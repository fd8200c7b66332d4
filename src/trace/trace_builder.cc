#include "trace/trace_builder.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/coalescer.hh"

namespace gpumech
{

TraceBuilder::TraceBuilder(KernelTrace &kernel, std::uint32_t warp_id,
                           std::uint32_t block_id,
                           const HardwareConfig &config)
    : kernel(kernel), config(config)
{
    kernel.beginWarp(warp_id, block_id);
}

TraceBuilder::~TraceBuilder()
{
    if (!finished)
        kernel.abandonWarp();
}

Reg
TraceBuilder::emitCompute(std::uint32_t pc, const Reg *srcs,
                          std::size_t num_srcs,
                          std::uint32_t active_threads)
{
    Opcode op = kernel.opcodeOf(pc);
    if (isGlobalMemory(op))
        panic("compute() emitted with a global-memory pc");
    if (active_threads == 0)
        active_threads = config.warpSize;
    return append(pc, srcs, num_srcs, active_threads, nullptr, 0,
                  !isStore(op));
}

Reg
TraceBuilder::emitMemory(std::uint32_t pc, Opcode want,
                         const std::vector<Addr> &thread_addrs,
                         const Reg *srcs, std::size_t num_srcs)
{
    const bool load = want == Opcode::GlobalLoad;
    const char *what = load ? "globalLoad()" : "globalStore()";
    if (kernel.opcodeOf(pc) != want) {
        panic(msg(what, " emitted with a non-",
                  load ? "GlobalLoad" : "GlobalStore", " pc"));
    }
    if (thread_addrs.empty())
        panic(msg(what, " needs at least one thread address"));
    coalesce(thread_addrs, config.l1LineBytes, lineScratch);
    return append(pc, srcs, num_srcs,
                  static_cast<std::uint32_t>(thread_addrs.size()),
                  lineScratch.data(),
                  static_cast<std::uint32_t>(lineScratch.size()), load);
}

Reg
TraceBuilder::append(std::uint32_t pc, const Reg *srcs,
                     std::size_t num_srcs, std::uint32_t active_threads,
                     const Addr *lines, std::uint32_t num_lines,
                     bool produces)
{
    if (finished)
        panic("TraceBuilder used after finish()");

    // Resolve register sources to distinct producer trace indices;
    // keep the youngest producers if there are more than fit, since
    // older ones have almost certainly completed already.
    depScratch.clear();
    for (std::size_t s = 0; s < num_srcs; ++s) {
        Reg r = srcs[s];
        if (r == regNone)
            continue;
        if (r < 0 || r >= static_cast<Reg>(producer.size()))
            panic(msg("source register ", r, " has no producer"));
        std::int32_t prod = producer[static_cast<std::size_t>(r)];
        if (std::find(depScratch.begin(), depScratch.end(), prod) ==
            depScratch.end()) {
            depScratch.push_back(prod);
        }
    }
    std::sort(depScratch.begin(), depScratch.end(),
              std::greater<std::int32_t>());
    DepArray deps = {noDep, noDep, noDep};
    for (std::size_t i = 0; i < deps.size() && i < depScratch.size();
         ++i) {
        deps[i] = depScratch[i];
    }

    std::int32_t idx =
        kernel.appendInst(pc, active_threads, deps, lines, num_lines);

    if (!produces)
        return regNone;
    Reg dest = nextReg++;
    producer.push_back(idx);
    return dest;
}

void
TraceBuilder::finish()
{
    if (finished)
        panic("TraceBuilder::finish() called twice");
    finished = true;
    kernel.endWarp();
}

} // namespace gpumech
