#include "collector/mrc_collector.hh"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/isolation.hh"
#include "common/logging.hh"
#include "common/status.hh"

namespace gpumech
{

namespace
{

/**
 * Every PC's request and instruction histograms, accumulated in one
 * open-addressing table keyed by (PC, histogram, pair) and finished
 * into per-PC vectors sorted by key.
 */
class PairHistAccumulator
{
  public:
    /** Add @p weight to bin @p pair of PC @p pc's histogram. */
    void
    add(std::uint32_t pc, bool inst, std::uint64_t pair, double weight)
    {
        const std::uint64_t tag = 2 * std::uint64_t{pc} + (inst ? 1 : 0);
        Entry *e = &slotOf(tag, pair);
        if (e->tag == emptyTag) {
            if (4 * (used + 1) > 3 * table.size()) {
                grow();
                e = &slotOf(tag, pair);
            }
            *e = Entry{tag, pair, 0.0};
            ++used;
        }
        e->weight += weight;
    }

    /** Move the bins into @p pcs' reqHist and instHist, sorted. */
    void
    finish(std::vector<MrcPcProfile> &pcs)
    {
        std::erase_if(table,
                      [](const Entry &e) { return e.tag == emptyTag; });
        std::sort(table.begin(), table.end(),
                  [](const Entry &a, const Entry &b) {
                      return std::tie(a.tag, a.pair) <
                             std::tie(b.tag, b.pair);
                  });
        for (const Entry &e : table) {
            MrcPcProfile &pc = pcs[e.tag / 2];
            (e.tag % 2 ? pc.instHist : pc.reqHist)
                .push_back(ReusePairBin{e.pair, e.weight});
        }
        table.clear();
    }

  private:
    struct Entry
    {
        std::uint64_t tag; //!< 2 * pc + (instruction histogram)
        std::uint64_t pair;
        double weight;
    };
    static constexpr std::uint64_t emptyTag = ~std::uint64_t{0};

    Entry &
    slotOf(std::uint64_t tag, std::uint64_t pair)
    {
        const std::size_t mask = table.size() - 1;
        std::size_t i = static_cast<std::size_t>(
            ((pair ^ (tag * 0xc2b2ae3d27d4eb4fULL)) *
             0x9e3779b97f4a7c15ULL) >>
            shift);
        while (table[i].tag != emptyTag &&
               (table[i].tag != tag || table[i].pair != pair))
            i = (i + 1) & mask;
        return table[i];
    }

    void
    grow()
    {
        std::vector<Entry> old(table.size() * 2, Entry{emptyTag, 0, 0.0});
        old.swap(table);
        --shift;
        for (const Entry &e : old) {
            if (e.tag != emptyTag)
                slotOf(e.tag, e.pair) = e;
        }
    }

    std::vector<Entry> table =
        std::vector<Entry>(1024, Entry{emptyTag, 0, 0.0});
    unsigned shift = 64 - 10; //!< 64 - log2(table.size())
    std::size_t used = 0;
};

} // namespace

MrcProfile
collectMrcProfile(const KernelTrace &kernel,
                  const HardwareConfig &config, double sampling_rate)
{
    evalCheckpoint(FaultSite::Collect);

    MrcProfile profile;
    profile.samplingRate = sampling_rate;
    profile.lineBytes = config.l1LineBytes;
    profile.pcs.resize(kernel.numStaticInsts());

    ShardsSampler sampler(sampling_rate);
    PairHistAccumulator hists;
    ReuseDistanceTracker global;
    std::vector<ReuseDistanceTracker> per_core(config.numCores);

    const std::vector<Opcode> &ops = kernel.instOps();
    const std::vector<std::uint32_t> &pcs = kernel.instPcs();

    // The serial collector's walk: per-warp cursors over global-memory
    // instructions, warps (and cores) interleaved round-robin, so the
    // merged-stream distances see the same global order the shared L2
    // sees and each per-core tracker sees its L1's exact stream.
    struct Cursor
    {
        std::uint64_t idx;
        std::uint64_t end;
        std::uint32_t core;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(kernel.numWarps());
    for (std::uint32_t w = 0; w < kernel.numWarps(); ++w) {
        std::uint64_t off = kernel.instOffsetOf(w);
        cursors.push_back(Cursor{off, off + kernel.warp(w).numInsts(),
                                 kernel.coreOfWarp(w, config)});
    }

    bool progress = true;
    while (progress) {
        deadlineCheckpoint();
        progress = false;
        for (auto &cur : cursors) {
            while (cur.idx < cur.end && !isGlobalMemory(ops[cur.idx]))
                ++cur.idx;
            if (cur.idx >= cur.end)
                continue;
            progress = true;

            const std::uint64_t f = cur.idx++;
            MrcPcProfile &pc = profile.pcs[pcs[f]];
            LineSpan lines = kernel.linesOfFlat(f);

            if (ops[f] == Opcode::GlobalLoad) {
                ++pc.loadInsts;
                pc.loadReqs += lines.size();
                profile.totalLoadLines += lines.size();
                bool any_sampled = false;
                std::uint32_t max_d1 = 0, max_dg = 0;
                for (Addr line : lines) {
                    if (!sampler.sampled(line))
                        continue;
                    ++profile.sampledLoadLines;
                    std::uint32_t d1 = sampler.unscale(
                        per_core[cur.core].access(line));
                    std::uint32_t dg =
                        sampler.unscale(global.access(line));
                    hists.add(pcs[f], false, packReusePair(d1, dg),
                              sampler.weight());
                    // The cold sentinel is the numeric max, so max()
                    // correctly makes a cold line the slowest.
                    max_d1 = any_sampled ? std::max(max_d1, d1) : d1;
                    max_dg = any_sampled ? std::max(max_dg, dg) : dg;
                    any_sampled = true;
                }
                if (any_sampled) {
                    hists.add(pcs[f], true,
                              packReusePair(max_d1, max_dg),
                              sampler.weight());
                }
            } else {
                // Stores are write-through/no-allocate: no tag state,
                // no tracker updates, always DRAM-bound.
                ++pc.storeInsts;
                pc.storeReqs += lines.size();
            }
        }
    }
    hists.finish(profile.pcs);
    return profile;
}

namespace
{

/** Cache geometry in (sets, ways) with division-by-zero guarding. */
struct Geometry
{
    std::uint32_t sets;
    std::uint32_t ways;
};

Geometry
geometryOf(std::uint32_t size_bytes, std::uint32_t line_bytes,
           std::uint32_t assoc, const char *level)
{
    if (line_bytes == 0 || assoc == 0 ||
        size_bytes % (line_bytes * assoc) != 0 ||
        size_bytes / (line_bytes * assoc) == 0) {
        throw StatusException(Status(
            StatusCode::InvalidArgument,
            msg("deriveCollectorResult: invalid ", level, " geometry (",
                size_bytes, "B / ", line_bytes, "B lines / ", assoc,
                " ways)")));
    }
    return Geometry{size_bytes / (line_bytes * assoc), assoc};
}

/** Expected hit/miss mass of one histogram under a geometry pair. */
struct ClassWeights
{
    double total = 0.0;
    double l1Hit = 0.0;
    double l2Hit = 0.0;
    double l2Miss = 0.0;

    void
    add(const ClassWeights &o)
    {
        total += o.total;
        l1Hit += o.l1Hit;
        l2Hit += o.l2Hit;
        l2Miss += o.l2Miss;
    }
};

ClassWeights
classify(const ReusePairHist &hist, Geometry l1, Geometry l2)
{
    ClassWeights out;
    for (const auto &[key, w] : hist) {
        double p1 =
            assocHitProbability(reusePairD1(key), l1.sets, l1.ways);
        double p2 =
            assocHitProbability(reusePairDg(key), l2.sets, l2.ways);
        out.total += w;
        out.l1Hit += w * p1;
        out.l2Hit += w * (1.0 - p1) * p2;
        out.l2Miss += w * (1.0 - p1) * (1.0 - p2);
    }
    return out;
}

/**
 * Split an exact integer count into three classes proportional to the
 * given weights, rounding so the parts always sum to the whole.
 */
void
splitCount(std::uint64_t count, const ClassWeights &w,
           std::uint64_t &l1_hit, std::uint64_t &l2_hit,
           std::uint64_t &l2_miss)
{
    if (count == 0 || w.total <= 0.0) {
        l1_hit = l2_hit = l2_miss = 0;
        return;
    }
    double n = static_cast<double>(count);
    std::uint64_t a = static_cast<std::uint64_t>(
        std::llround(n * w.l1Hit / w.total));
    a = std::min(a, count);
    std::uint64_t ab = static_cast<std::uint64_t>(
        std::llround(n * (w.l1Hit + w.l2Hit) / w.total));
    ab = std::min(std::max(ab, a), count);
    l1_hit = a;
    l2_hit = ab - a;
    l2_miss = count - ab;
}

} // namespace

CollectorResult
deriveCollectorResult(const MrcProfile &profile,
                      const KernelTrace &kernel,
                      const HardwareConfig &config)
{
    evalCheckpoint(FaultSite::Collect);

    if (config.l1LineBytes != profile.lineBytes ||
        config.l2LineBytes != profile.lineBytes) {
        throw StatusException(Status(
            StatusCode::InvalidArgument,
            msg("deriveCollectorResult: line size mismatch (profile ",
                profile.lineBytes, "B, L1 ", config.l1LineBytes,
                "B, L2 ", config.l2LineBytes,
                "B); the line-size axis requires --sweep-mode=rerun")));
    }
    if (profile.pcs.size() != kernel.numStaticInsts()) {
        throw StatusException(Status(
            StatusCode::InvalidArgument,
            msg("deriveCollectorResult: profile has ",
                profile.pcs.size(), " PCs, kernel '", kernel.name(),
                "' has ", kernel.numStaticInsts())));
    }

    Geometry l1 = geometryOf(config.l1SizeBytes, config.l1LineBytes,
                             config.l1Assoc, "l1");
    Geometry l2 = geometryOf(config.l2SizeBytes, config.l2LineBytes,
                             config.l2Assoc, "l2");

    CollectorResult result;
    result.mrcDerived = true;
    {
        std::string reasons;
        auto add = [&reasons](const char *r) {
            if (!reasons.empty())
                reasons += ", ";
            reasons += r;
        };
        if (profile.samplingRate < 1.0)
            add("sampled profile");
        if (l1.sets > 1 || l2.sets > 1)
            add("set-associative geometry (balanced-mapping "
                "conversion)");
        if (config.replacementPolicy != 0)
            add("non-LRU replacement modeled as LRU stack distances");
        result.mrcApproximate = !reasons.empty();
        result.mrcApproximation = reasons;
    }

    // Same initialization as the simulated engines: per-PC opcode and
    // exact dynamic instruction counts.
    result.pcs.resize(kernel.numStaticInsts());
    for (std::uint32_t pc = 0; pc < kernel.numStaticInsts(); ++pc)
        result.pcs[pc].op = kernel.opcodeOf(pc);
    for (std::uint32_t pc : kernel.instPcs())
        ++result.pcs[pc].instCount;

    // Each PC's histograms, classified once; their sums are the
    // profile-wide fallback fractions for PCs whose lines were all
    // sampled away (only possible at rate < 1).
    std::vector<ClassWeights> pc_req(profile.pcs.size());
    std::vector<ClassWeights> pc_inst(profile.pcs.size());
    ClassWeights agg_req, agg_inst;
    for (std::size_t pc = 0; pc < profile.pcs.size(); ++pc) {
        pc_req[pc] = classify(profile.pcs[pc].reqHist, l1, l2);
        pc_inst[pc] = classify(profile.pcs[pc].instHist, l1, l2);
        agg_req.add(pc_req[pc]);
        agg_inst.add(pc_inst[pc]);
    }

    for (std::uint32_t pc = 0; pc < kernel.numStaticInsts(); ++pc) {
        const MrcPcProfile &mp = profile.pcs[pc];
        PcProfile &out = result.pcs[pc];
        out.reqCount = mp.loadReqs + mp.storeReqs;

        if (mp.loadReqs > 0) {
            ClassWeights req = pc_req[pc];
            if (req.total <= 0.0)
                req = agg_req;
            std::uint64_t l1_hit = 0, l2_hit = 0, l2_miss = 0;
            splitCount(mp.loadReqs, req, l1_hit, l2_hit, l2_miss);
            out.reqL1Miss = l2_hit + l2_miss;
            out.reqL2Miss = l2_miss;
        }
        if (mp.loadInsts > 0) {
            ClassWeights inst = pc_inst[pc];
            if (inst.total <= 0.0)
                inst = agg_inst.total > 0.0 ? agg_inst : agg_req;
            splitCount(mp.loadInsts, inst, out.instL1Hit,
                       out.instL2Hit, out.instL2Miss);
        }
        // Stores: write-through/no-allocate, every request DRAM-bound.
        out.reqL1Miss += mp.storeReqs;
        out.reqL2Miss += mp.storeReqs;
        out.instL2Miss += mp.storeInsts;
    }

    finishCollectorResult(result, kernel, config);

    // Aggregate rates mirror the functional hierarchy's counters:
    // L1 sees every load line, L2 only the L1-missing ones.
    double l1_misses = agg_req.l2Hit + agg_req.l2Miss;
    result.l1HitRate =
        agg_req.total <= 0.0 ? 0.0 : agg_req.l1Hit / agg_req.total;
    result.l2HitRate =
        l1_misses <= 0.0 ? 0.0 : agg_req.l2Hit / l1_misses;
    return result;
}

} // namespace gpumech
