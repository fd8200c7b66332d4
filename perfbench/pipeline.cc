#include "pipeline.hh"

#include <cstring>

#include "collector/input_collector.hh"

namespace perfbench
{

using namespace gpumech;

std::unique_ptr<GpuMechProfiler>
profileKernel(const KernelTrace &kernel, const HardwareConfig &config,
              const std::string &item)
{
    double insts = static_cast<double>(kernel.totalInsts());
    std::shared_ptr<const CollectorResult> inputs;
    {
        Span s("collector", "collect", item, insts);
        inputs = std::make_shared<const CollectorResult>(
            collectInputsParallel(kernel, config));
    }
    Span s("core", "profile", item, insts);
    return std::make_unique<GpuMechProfiler>(
        kernel, config, RepSelection::Clustering, 2, 1, std::move(inputs));
}

namespace
{

bool
sameBits(double x, double y)
{
    return std::memcmp(&x, &y, sizeof x) == 0;
}

} // namespace

bool
sameResult(const GpuMechResult &a, const GpuMechResult &b)
{
    if (!sameBits(a.cpi, b.cpi) ||
        !sameBits(a.cpiMultithreading, b.cpiMultithreading) ||
        !sameBits(a.cpiContention, b.cpiContention) ||
        !sameBits(a.repWarpPerf, b.repWarpPerf) ||
        a.repWarpIndex != b.repWarpIndex)
        return false;
    for (std::size_t i = 0; i < a.stack.cpi.size(); ++i) {
        if (!sameBits(a.stack.cpi[i], b.stack.cpi[i]))
            return false;
    }
    return true;
}

void
addResult(Digest &d, const GpuMechResult &r)
{
    d.add(r.cpi);
    d.add(r.cpiMultithreading);
    d.add(r.cpiContention);
    d.add(static_cast<std::uint64_t>(r.repWarpIndex));
    for (double c : r.stack.cpi)
        d.add(c);
}

} // namespace perfbench
