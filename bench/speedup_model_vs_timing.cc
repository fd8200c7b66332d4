/**
 * @file
 * Section VI-D reproduction: simulation-time comparison between
 * GPUMech (input collection + interval algorithm + multi-warp model)
 * and the detailed timing simulator. The paper reports a 97x average
 * speedup; the shape requirement is a large (>10x) advantage for the
 * model, growing when a configuration is re-evaluated with the
 * representative warp already selected.
 *
 * Per kernel, three best-of-5 wall-clock series over pre-generated
 * traces (generation cost stays outside the timed region): the
 * detailed timing simulation, the full GPUMech pipeline, and an
 * evaluateAt re-evaluation at a swept MSHR count; then the speedup of
 * each model series over the simulation.
 */

#include <iostream>

#include "timing.hh"

#include "common/table.hh"
#include "core/gpumech.hh"
#include "timing/gpu_timing.hh"
#include "workloads/workload.hh"

using namespace gpumech;

int
main()
{
    constexpr unsigned kReps = 5;
    const HardwareConfig config = HardwareConfig::baseline();
    HardwareConfig swept = config;
    swept.numMshrs = 64;

    std::cout << "=== Section VI-D: GPUMech vs detailed timing "
                 "simulation (best of "
              << kReps << ", ms) ===\n\n";
    Table table({"kernel", "timing", "gpumech", "reevaluate",
                 "speedup", "reeval speedup"});
    volatile double sink = 0.0; // keeps the timed results observable
    for (const char *name :
         {"srad_kernel1", "cfd_step_factor", "kmeans_invert_mapping",
          "vectorAdd", "sgemm_tiled"}) {
        const KernelTrace kernel =
            workloadByName(name).generate(config);

        double timing_ms = timeMs(kReps, [&] {
            GpuTiming sim(kernel, config, SchedulingPolicy::RoundRobin);
            sink = sink + sim.run().totalCycles;
        });
        double full_ms = timeMs(kReps, [&] {
            sink = sink + runGpuMech(kernel, config).cpi;
        });
        // Exploring a new hardware configuration reuses the
        // representative warp; only the cache simulation and its
        // interval profile rerun.
        GpuMechProfiler profiler(kernel, config);
        double reeval_ms = timeMs(kReps, [&] {
            sink = sink +
                   profiler.evaluateAt(swept, SchedulingPolicy::RoundRobin)
                       .cpi;
        });

        table.addRow({name, fmtDouble(timing_ms, 3),
                      fmtDouble(full_ms, 3), fmtDouble(reeval_ms, 3),
                      fmtDouble(timing_ms / full_ms, 1) + "x",
                      fmtDouble(timing_ms / reeval_ms, 1) + "x"});
    }
    table.print(std::cout);
    return 0;
}
