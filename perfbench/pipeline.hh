/**
 * @file
 * The model on an already-built trace through the program's public
 * API, with a span around each layer's call, plus the bit-level
 * comparison and digest of model outputs the output checks use.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <memory>
#include <string>

#include "core/gpumech.hh"
#include "trace/kernel_trace.hh"

#include "util.hh"

namespace perfbench
{

/**
 * collectInputsParallel, then a GpuMechProfiler built on its result
 * (every warp's interval profile and the representative), as
 * InputCache::profiler does. Spans: collector.collect, core.profile.
 */
std::unique_ptr<gpumech::GpuMechProfiler>
profileKernel(const gpumech::KernelTrace &kernel,
              const gpumech::HardwareConfig &config,
              const std::string &item);

/** Bit-equal CPI, CPI components, representative and CPI stack. */
bool sameResult(const gpumech::GpuMechResult &a,
                const gpumech::GpuMechResult &b);

/** Add a result's model outputs to a digest. */
void addResult(Digest &d, const gpumech::GpuMechResult &r);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
