/**
 * @file
 * Miss-ratio-curve (MRC) evaluation layer: reuse-distance tracking
 * with SHARDS-style spatial sampling, joint per-PC reuse-distance
 * histograms, and the way-counted associativity conversion that turns
 * an LRU stack distance into a hit probability for an arbitrary
 * set-associative geometry.
 *
 * The collector pass (collector/mrc_collector.hh) walks the trace
 * ONCE and records, for every sampled load line request, the pair
 *
 *   (d1, dg) = (per-core LRU stack distance,
 *               merged-stream LRU stack distance)
 *
 * in distinct-lines units. Everything geometry-dependent happens at
 * evaluation time: a cache of S sets x A ways hits a request of
 * distance d with probability assocHitProbability(d, S, A), which is
 * exact (d < A) for a fully-associative LRU cache and the balanced
 * modulo-mapping model (d < S*A) otherwise. One profile therefore
 * prices every cache size/associativity in a sweep without re-running
 * the functional hierarchy.
 *
 * Exactness contract (see DESIGN.md section 14): with sampling rate
 * 1.0, LRU replacement, and fully-associative geometry the derived L1
 * classification is bit-exact (each core's L1 sees its unfiltered
 * stream). The L2 side measures distances on the merged access stream
 * rather than the L1-miss-filtered stream the real L2 observes (the
 * "union stream" approximation), so it is exact only when L1 filters
 * nothing (and in the common cold-miss-dominated regimes); every other
 * combination is flagged, not silently absorbed.
 */

#ifndef GPUMECH_MEM_MRC_HH
#define GPUMECH_MEM_MRC_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "trace/coalescer.hh"

namespace gpumech
{

/** Reuse distance of a line never seen before (cold access). */
inline constexpr std::uint32_t mrcColdDistance =
    std::numeric_limits<std::uint32_t>::max();

/**
 * LRU stack-distance tracker over one access stream.
 *
 * Olken's two-structure design, flattened. An open-addressing table
 * maps each line to the stamp of its previous access, and a bitmap
 * holds one set bit per live stamp (each line's current last access).
 * A Fenwick tree over the bitmap's 64-bit words sums their popcounts,
 * so a reuse distance — the set bits strictly after the previous
 * stamp, i.e. the distinct lines touched since — costs one word-level
 * prefix query plus one popcount. When the stamps run out, the live
 * ones are renumbered in order into [0, live) and the bitmap rebuilt:
 * order-preserving renumbering changes no distance, and capacity
 * stays O(unique lines) instead of O(accesses).
 */
class ReuseDistanceTracker
{
  public:
    /**
     * Record one access; returns the LRU stack distance in distinct
     * lines (0 = immediate re-reference), or mrcColdDistance for a
     * line never seen before.
     */
    std::uint32_t access(Addr line);

    /** Distinct lines currently tracked. */
    std::size_t uniqueLines() const { return live; }

    /** Accesses recorded so far. */
    std::uint64_t accesses() const { return count; }

  private:
    /** Line-table entry; stamp == emptyStamp marks a free slot. */
    struct Slot
    {
        Addr line;
        std::uint32_t stamp;
    };
    static constexpr std::uint32_t emptyStamp =
        std::numeric_limits<std::uint32_t>::max();

    /** The slot holding @p line, or the free slot where it belongs. */
    Slot &slotOf(Addr line);
    void growTable();
    /** Renumber the live stamps into [0, live); grow to 4x live. */
    void compact();
    /** Fenwick update of word @p word's count by @p delta. */
    void treeAdd(std::size_t word, std::int32_t delta);
    /** Set bits in words [0, word). */
    std::uint32_t treePrefix(std::size_t word) const;

    /** Power-of-two size, linear probing. */
    std::vector<Slot> table = std::vector<Slot>(64, Slot{0, emptyStamp});
    unsigned tableShift = 64 - 6; //!< 64 - log2(table.size())
    /** One bit per stamp, set while it is some line's last access. */
    std::vector<std::uint64_t> bits = std::vector<std::uint64_t>(1, 0);
    /** Fenwick tree (1-based) over the popcounts of the full words. */
    std::vector<std::uint32_t> tree = std::vector<std::uint32_t>(1, 0);
    std::uint32_t next = 0;  //!< next stamp
    std::uint32_t live = 0;  //!< set bits (distinct lines)
    std::uint64_t count = 0; //!< accesses recorded
};

/**
 * SHARDS fixed-rate spatial sampler: a line is sampled iff a fixed
 * hash of its address falls below rate * 2^64, so every tracker and
 * every PC agree on the sampled line subset. Rate 1.0 samples
 * everything (the exact mode).
 */
class ShardsSampler
{
  public:
    explicit ShardsSampler(double rate);

    bool sampled(Addr line) const;

    /** Configured sampling rate in (0, 1]. */
    double rate() const { return samplingRate; }

    /** Histogram weight of one sampled observation (1 / rate). */
    double weight() const { return obsWeight; }

    /** Scale a sampled-stream distance back to the full stream. */
    std::uint32_t unscale(std::uint32_t sampled_distance) const;

  private:
    double samplingRate;
    double obsWeight;
    std::uint64_t threshold; //!< sampled iff hash < threshold
};

/**
 * Hit probability of an LRU cache of @p sets x @p ways for a request
 * of stack distance @p distance (distinct lines).
 *
 * Fully associative (sets == 1): exactly distance < ways. Otherwise
 * the way-counted balanced-mapping conversion: the functional
 * hierarchy indexes sets by line modulo, under which the d distinct
 * intervening lines of the (locally dense) address streams this
 * simulator produces disperse evenly — each set receives ~d/sets of
 * them — so the request hits iff floor(d/sets) <= ways - 1, i.e.
 * d < sets * ways. (A Binomial(d, 1/sets) tail models *random* set
 * mapping instead; measured against the functional simulation on the
 * micro suite it is strictly worse here — 5.1% worst-case CPI drift at
 * capacity boundaries vs 1.1% for the balanced rule — because modulo
 * indexing of regular streams has no conflict spread to model.)
 *
 * Cold requests (mrcColdDistance) never hit.
 */
double assocHitProbability(std::uint32_t distance, std::uint32_t sets,
                           std::uint32_t ways);

/** One bin of a ReusePairHist: a packed (d1, dg) key and its weight. */
struct ReusePairBin
{
    std::uint64_t key;
    double weight;
};

/**
 * Weighted joint histogram over (d1, dg) reuse-distance pairs, sorted
 * by key. A key packs d1 in the high and dg in the low 32 bits; the
 * weights are SHARDS weights (integer counts at rate 1.0).
 */
using ReusePairHist = std::vector<ReusePairBin>;

/** Pack a (d1, dg) pair into a ReusePairHist key. */
inline std::uint64_t
packReusePair(std::uint32_t d1, std::uint32_t dg)
{
    return (static_cast<std::uint64_t>(d1) << 32) | dg;
}

inline std::uint32_t reusePairD1(std::uint64_t key)
{
    return static_cast<std::uint32_t>(key >> 32);
}

inline std::uint32_t reusePairDg(std::uint64_t key)
{
    return static_cast<std::uint32_t>(key & 0xffffffffu);
}

/** One static instruction's reuse-distance profile. */
struct MrcPcProfile
{
    /**
     * Exact (unsampled) dynamic counts; classification alone is
     * sampled, so derived results can renormalize to true totals.
     */
    std::uint64_t loadInsts = 0;  //!< dynamic load executions
    std::uint64_t loadReqs = 0;   //!< coalesced load line requests
    std::uint64_t storeInsts = 0; //!< dynamic store executions
    std::uint64_t storeReqs = 0;  //!< coalesced store line requests

    /** Per-request (d1, dg) weights over sampled load lines. */
    ReusePairHist reqHist;

    /**
     * Per-instruction (max d1, max dg) weights over dynamic load
     * executions with at least one sampled line — the slowest-request
     * classification of the collector, in distance space.
     */
    ReusePairHist instHist;
};

/** Aggregate and per-PC miss-ratio curves from one profiling pass. */
struct MrcProfile
{
    /** Per-PC profiles, indexed by static PC. */
    std::vector<MrcPcProfile> pcs;

    double samplingRate = 1.0;
    std::uint32_t lineBytes = 0; //!< line size distances are measured in

    std::uint64_t totalLoadLines = 0;   //!< load line requests walked
    std::uint64_t sampledLoadLines = 0; //!< of which sampled
};

} // namespace gpumech

#endif // GPUMECH_MEM_MRC_HH
