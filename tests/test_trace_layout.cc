/**
 * @file
 * Regression suite for the flat SoA trace layout and the parallel
 * collector engine.
 *
 * The golden values were captured from the pre-SoA build (per-warp
 * arrays of instruction records, each owning a std::vector<Addr> of
 * lines; serial collector) at HardwareConfig::baseline(). The flat
 * layout, which builders now append to directly, and the parallel
 * collector must reproduce every number bit-for-bit at 1, 2, and 8
 * threads. Also covers the structural edge cases of the arena: line
 * slices that stay inside the kernel pool, and empty kernels.
 */

#include <gtest/gtest.h>

#include "collector/input_collector.hh"
#include "core/gpumech.hh"
#include "core/interval_builder.hh"
#include "trace/trace_builder.hh"
#include "workloads/archetypes.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

/**
 * Golden numbers captured from the pre-SoA (AoS) serial build. The
 * stress_two_phase cpi/ipc/stack values were re-pinned when the
 * bandwidth queue gained its continuity clamp (kBandwidthRhoClamp) —
 * it is the only golden workload that saturates the DRAM channel.
 */
struct Golden
{
    const char *workload;
    std::uint64_t totalInsts;
    std::uint32_t numWarps;
    std::uint64_t instL1Hit, instL2Hit, instL2Miss;
    std::uint64_t reqCount, reqL1Miss, reqL2Miss;
    double avgMissLatency, l1HitRate, l2HitRate;
    std::size_t numIntervals;
    double stallSum;
    double cpi, ipc;
    std::uint32_t repWarp;
    double stackTotal;
};

const Golden goldens[] = {
    {"micro_divergent8", 215040, 512, 0, 0, 30720, 245760, 245760,
     245760, 420.0, 0.0, 0.0, 153600, 15931392.0, 15.006456820016142,
     0.066637982036250196, 0, 15.006456820016142},
    {"micro_l1_resident", 286720, 512, 40704, 240, 16, 40960, 256, 16,
     138.75, 0.99375000000000002, 0.9375, 204800, 5095872.0,
     1.0000008862985337, 0.99999911370225181, 0, 1.0000008862985337},
    {"stress_two_phase", 286720, 512, 0, 0, 61440, 819200, 819200,
     819200, 420.0, 0.0, 0.0, 225280, 13176320.0, 30.490680803571429,
     0.032796906256119682, 0, 30.490680803571426},
};

/** Sum a PcProfile field across all PCs. */
template <typename F>
std::uint64_t
sumPcs(const CollectorResult &in, F field)
{
    std::uint64_t total = 0;
    for (const auto &p : in.pcs)
        total += field(p);
    return total;
}

void
checkAgainstGolden(const Golden &g, const KernelTrace &kernel,
                   const CollectorResult &in,
                   const HardwareConfig &config)
{
    EXPECT_EQ(kernel.totalInsts(), g.totalInsts) << g.workload;
    EXPECT_EQ(kernel.numWarps(), g.numWarps) << g.workload;

    EXPECT_EQ(sumPcs(in, [](const PcProfile &p) { return p.instCount; }),
              g.totalInsts)
        << g.workload;
    EXPECT_EQ(sumPcs(in, [](const PcProfile &p) { return p.instL1Hit; }),
              g.instL1Hit)
        << g.workload;
    EXPECT_EQ(sumPcs(in, [](const PcProfile &p) { return p.instL2Hit; }),
              g.instL2Hit)
        << g.workload;
    EXPECT_EQ(
        sumPcs(in, [](const PcProfile &p) { return p.instL2Miss; }),
        g.instL2Miss)
        << g.workload;
    EXPECT_EQ(sumPcs(in, [](const PcProfile &p) { return p.reqCount; }),
              g.reqCount)
        << g.workload;
    EXPECT_EQ(sumPcs(in, [](const PcProfile &p) { return p.reqL1Miss; }),
              g.reqL1Miss)
        << g.workload;
    EXPECT_EQ(sumPcs(in, [](const PcProfile &p) { return p.reqL2Miss; }),
              g.reqL2Miss)
        << g.workload;

    // Exact doubles: the new code must reproduce the old bit patterns.
    EXPECT_EQ(in.avgMissLatency, g.avgMissLatency) << g.workload;
    EXPECT_EQ(in.l1HitRate, g.l1HitRate) << g.workload;
    EXPECT_EQ(in.l2HitRate, g.l2HitRate) << g.workload;

    auto profiles = buildAllProfiles(kernel, in, config);
    std::size_t num_intervals = 0;
    double stall_sum = 0.0;
    for (const auto &p : profiles) {
        num_intervals += p.intervals.size();
        for (const auto &iv : p.intervals)
            stall_sum += iv.stallCycles;
    }
    EXPECT_EQ(num_intervals, g.numIntervals) << g.workload;
    EXPECT_EQ(stall_sum, g.stallSum) << g.workload;
}

TEST(TraceLayout, SerialPathMatchesPreSoaGoldens)
{
    HardwareConfig config;
    for (const Golden &g : goldens) {
        KernelTrace kernel = workloadByName(g.workload).generate(config);
        ASSERT_TRUE(kernel.validate()) << g.workload;
        CollectorResult in = collectInputs(kernel, config);
        checkAgainstGolden(g, kernel, in, config);

        GpuMechResult r = runGpuMech(kernel, config);
        EXPECT_EQ(r.cpi, g.cpi) << g.workload;
        EXPECT_EQ(r.ipc, g.ipc) << g.workload;
        EXPECT_EQ(r.repWarpIndex, g.repWarp) << g.workload;
        EXPECT_EQ(r.stack.total(), g.stackTotal) << g.workload;
    }
}

/** Field-by-field exact comparison of two collector results. */
void
expectCollectorIdentical(const CollectorResult &a,
                         const CollectorResult &b, const char *label)
{
    ASSERT_EQ(a.pcs.size(), b.pcs.size()) << label;
    for (std::size_t pc = 0; pc < a.pcs.size(); ++pc) {
        const PcProfile &pa = a.pcs[pc];
        const PcProfile &pb = b.pcs[pc];
        EXPECT_EQ(pa.op, pb.op) << label << " pc " << pc;
        EXPECT_EQ(pa.instCount, pb.instCount) << label << " pc " << pc;
        EXPECT_EQ(pa.instL1Hit, pb.instL1Hit) << label << " pc " << pc;
        EXPECT_EQ(pa.instL2Hit, pb.instL2Hit) << label << " pc " << pc;
        EXPECT_EQ(pa.instL2Miss, pb.instL2Miss) << label << " pc " << pc;
        EXPECT_EQ(pa.reqCount, pb.reqCount) << label << " pc " << pc;
        EXPECT_EQ(pa.reqL1Miss, pb.reqL1Miss) << label << " pc " << pc;
        EXPECT_EQ(pa.reqL2Miss, pb.reqL2Miss) << label << " pc " << pc;
    }
    ASSERT_EQ(a.pcLatency.size(), b.pcLatency.size()) << label;
    for (std::size_t pc = 0; pc < a.pcLatency.size(); ++pc)
        EXPECT_EQ(a.pcLatency[pc], b.pcLatency[pc]) << label << " " << pc;
    EXPECT_EQ(a.avgMissLatency, b.avgMissLatency) << label;
    EXPECT_EQ(a.l1HitRate, b.l1HitRate) << label;
    EXPECT_EQ(a.l2HitRate, b.l2HitRate) << label;
}

TEST(TraceLayout, ParallelCollectorBitIdenticalAt1_2_8Threads)
{
    HardwareConfig config;
    for (const Golden &g : goldens) {
        KernelTrace kernel = workloadByName(g.workload).generate(config);
        CollectorResult serial = collectInputs(kernel, config);
        for (unsigned jobs : {1u, 2u, 8u}) {
            CollectorResult par =
                collectInputsParallel(kernel, config, jobs);
            expectCollectorIdentical(serial, par, g.workload);
            // The parallel engine's inputs feed interval analysis and
            // the CPI stack; confirm those land on the goldens too.
            checkAgainstGolden(g, kernel, par, config);
        }
    }
}

TEST(TraceLayout, ParallelPipelineReproducesGoldenCpiStack)
{
    HardwareConfig config;
    for (const Golden &g : goldens) {
        KernelTrace kernel = workloadByName(g.workload).generate(config);
        for (unsigned jobs : {2u, 8u}) {
            // Full parallel pipeline: parallel collector + parallel
            // per-warp interval profiling inside the profiler.
            GpuMechProfiler profiler(kernel, config,
                                     RepSelection::Clustering, 2, jobs);
            GpuMechResult r =
                profiler.evaluate(SchedulingPolicy::RoundRobin);
            EXPECT_EQ(r.cpi, g.cpi) << g.workload << " jobs " << jobs;
            EXPECT_EQ(r.ipc, g.ipc) << g.workload << " jobs " << jobs;
            EXPECT_EQ(r.repWarpIndex, g.repWarp)
                << g.workload << " jobs " << jobs;
            EXPECT_EQ(r.stack.total(), g.stackTotal)
                << g.workload << " jobs " << jobs;
        }
    }
}

TEST(TraceLayout, LineSlicesStayInsidePool)
{
    HardwareConfig config;
    KernelTrace kernel =
        workloadByName("micro_divergent8").generate(config);
    const std::uint64_t pool_size = kernel.totalLines();
    for (WarpView warp : kernel.warps()) {
        for (std::size_t i = 0; i < warp.numInsts(); ++i) {
            LineSpan span = warp.lines(i);
            if (isGlobalMemory(warp.op(i))) {
                ASSERT_GT(span.size(), 0u);
                // The span must lie within the kernel's arena.
                auto offset = static_cast<std::uint64_t>(
                    span.begin() - kernel.linePool().data());
                ASSERT_LE(offset + span.size(), pool_size);
            } else {
                ASSERT_EQ(span.size(), 0u);
            }
        }
    }
}

TEST(TraceLayout, ValidateCatchesOutOfBoundsSlice)
{
    // A load claiming two lines of an empty pool would slice past the
    // arena's end; column adoption refuses it and leaves the trace
    // empty.
    DepArray none = {noDep, noDep, noDep};
    KernelTrace bad("bad");
    bad.addStatic(Opcode::GlobalLoad);
    Status status =
        bad.adoptColumns({0}, {0}, {1}, {0}, {32}, {none}, {2}, {});
    EXPECT_EQ(status.code(), StatusCode::OutOfRange);
    EXPECT_EQ(bad.numWarps(), 0u);
    EXPECT_EQ(bad.totalLines(), 0u);

    // A correctly sized slice passes.
    KernelTrace ok("ok");
    ok.addStatic(Opcode::GlobalLoad);
    ASSERT_TRUE(ok.adoptColumns({0}, {0}, {1}, {0}, {32}, {none}, {2},
                                {0x100, 0x180})
                    .ok());
    EXPECT_TRUE(ok.validate());
    EXPECT_EQ(ok.warp(0).lines(0).toVector(),
              (std::vector<Addr>{0x100, 0x180}));
}

TEST(TraceLayout, EmptyKernelCollectsAndProfilesCleanly)
{
    HardwareConfig config;
    KernelTrace kernel("empty");
    kernel.addStatic(Opcode::IntAlu);

    EXPECT_EQ(kernel.numWarps(), 0u);
    EXPECT_EQ(kernel.totalInsts(), 0u);
    EXPECT_EQ(kernel.totalLines(), 0u);
    EXPECT_TRUE(kernel.validate());

    for (unsigned jobs : {1u, 2u, 8u}) {
        CollectorResult in = collectInputsParallel(kernel, config, jobs);
        ASSERT_EQ(in.pcs.size(), 1u);
        EXPECT_EQ(in.pcs[0].instCount, 0u);
        EXPECT_EQ(in.pcs[0].reqCount, 0u);
    }
    CollectorResult in = collectInputs(kernel, config);
    EXPECT_TRUE(buildAllProfiles(kernel, in, config).empty());
}

TEST(TraceLayout, SizeHintsUpperBoundGeneratedTraces)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    std::uint64_t warps = totalWarps(config);

    LoopKernelParams loop;
    loop.storesPerIter = 2;
    loop.iterationVariance = 0.25;
    loop.extraPathFraction = 0.3;
    KernelTrace lk = loopKernel("hint_loop", loop, config);
    TraceSizeHint lh = sizeHint(loop);
    EXPECT_LE(lk.totalInsts(), warps * lh.instsPerWarp);
    EXPECT_LE(lk.totalLines(), warps * lh.linesPerWarp);

    HistogramParams histo;
    KernelTrace hk = histogramKernel("hint_histo", histo, config);
    TraceSizeHint hh = sizeHint(histo);
    EXPECT_LE(hk.totalInsts(), warps * hh.instsPerWarp);
    EXPECT_LE(hk.totalLines(), warps * hh.linesPerWarp);

    TransposeParams tp;
    KernelTrace tk = transposeKernel("hint_transpose", tp, config);
    TraceSizeHint th = sizeHint(tp, config);
    EXPECT_LE(tk.totalInsts(), warps * th.instsPerWarp);
    EXPECT_LE(tk.totalLines(), warps * th.linesPerWarp);
}

TEST(TraceLayout, MemoryFootprintCountsFlatArrays)
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    KernelTrace kernel =
        workloadByName("micro_divergent8").generate(config);
    // At minimum the SoA arrays' live bytes are accounted for.
    std::size_t lower_bound = kernel.totalInsts() *
            (sizeof(std::uint32_t) * 3 + sizeof(Opcode) +
             sizeof(DepArray) + sizeof(std::uint64_t)) +
        kernel.totalLines() * sizeof(Addr);
    EXPECT_GE(kernel.memoryFootprint(), lower_bound);
}

} // namespace
} // namespace gpumech
