/**
 * @file
 * Tests for the MRC evaluation layer: reuse-distance tracking, SHARDS
 * sampling, the balanced-mapping associativity conversion, the
 * exactness contract of deriveCollectorResult() against the functional
 * collector, and the sweep-mode plumbing (including bit-identity of
 * --sweep-mode=rerun with the pre-MRC engine, pinned by a golden CSV).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "collector/input_collector.hh"
#include "collector/mrc_collector.hh"
#include "common/status.hh"
#include "core/gpumech.hh"
#include "harness/sweep.hh"
#include "mem/mrc.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

// ---------------------------------------------------------------------
// ReuseDistanceTracker
// ---------------------------------------------------------------------

TEST(ReuseDistance, ColdAccessesAndBasicDistances)
{
    ReuseDistanceTracker t;
    EXPECT_EQ(t.access(0xa), mrcColdDistance);
    EXPECT_EQ(t.access(0xb), mrcColdDistance);
    // One distinct line (b) touched since a's previous access.
    EXPECT_EQ(t.access(0xa), 1u);
    // Immediate re-reference.
    EXPECT_EQ(t.access(0xa), 0u);
    EXPECT_EQ(t.access(0xb), 1u);
    EXPECT_EQ(t.uniqueLines(), 2u);
    EXPECT_EQ(t.accesses(), 5u);
}

TEST(ReuseDistance, DistanceCountsDistinctLinesNotAccesses)
{
    ReuseDistanceTracker t;
    t.access(0x1);
    // Touch one other line many times: still distance 1.
    for (int i = 0; i < 10; ++i)
        t.access(0x2);
    EXPECT_EQ(t.access(0x1), 1u);
}

TEST(ReuseDistance, SurvivesFenwickGrowth)
{
    // The stamp bitmap starts at 64 stamps; 1000 distinct lines cross
    // several capacity doublings and line-table rehashes.
    ReuseDistanceTracker t;
    for (Addr line = 0; line < 1000; ++line)
        EXPECT_EQ(t.access(line), mrcColdDistance);
    EXPECT_EQ(t.access(0), 999u);
    EXPECT_EQ(t.access(999), 1u);
    EXPECT_EQ(t.uniqueLines(), 1000u);
}

/** Naive LRU stack: the most recent line at the back, O(n) per access. */
class LruStackOracle
{
  public:
    std::uint32_t
    access(Addr line)
    {
        auto it = std::find(stack.rbegin(), stack.rend(), line);
        std::uint32_t distance = mrcColdDistance;
        if (it != stack.rend()) {
            distance = static_cast<std::uint32_t>(it - stack.rbegin());
            stack.erase(std::next(it).base());
        }
        stack.push_back(line);
        return distance;
    }

    std::size_t uniqueLines() const { return stack.size(); }

  private:
    std::vector<Addr> stack;
};

TEST(ReuseDistance, MatchesNaiveLruStackOracle)
{
    // Phase 1 cycles a small working set, so stamps run out and the
    // tracker compacts thousands of times; phase 2 keeps adding lines,
    // so the stamp capacity and the line table double repeatedly.
    // The extreme addresses 0 and ~0 are part of the working set.
    ReuseDistanceTracker t;
    LruStackOracle oracle;
    std::mt19937_64 rng(14);
    std::vector<Addr> lines = {0, ~Addr{0}};
    for (Addr i = 1; i < 40; ++i)
        lines.push_back(i * 0x80);
    std::uint64_t n = 0;
    auto check = [&](Addr line) {
        ++n;
        ASSERT_EQ(t.access(line), oracle.access(line))
            << "access " << n << " line " << line;
    };
    for (int i = 0; i < 150000; ++i)
        check(lines[rng() % lines.size()]);
    for (int i = 0; i < 60000; ++i) {
        std::uint64_t r = rng();
        if (r % 4 == 0) {
            lines.push_back(0x100000 + (r >> 8) % 0x10000000);
            check(lines.back());
        } else if (r % 16 == 1) {
            check(lines[(r >> 8) % lines.size()]);
        } else {
            std::size_t recent = std::min<std::size_t>(64, lines.size());
            check(lines[lines.size() - 1 - (r >> 8) % recent]);
        }
    }
    EXPECT_EQ(t.accesses(), n);
    EXPECT_EQ(t.uniqueLines(), oracle.uniqueLines());
    EXPECT_GT(t.uniqueLines(), 10000u);
}

/** FNV-1a 64 (the .gmt checksum) folded over @p size bytes. */
std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Digest of every count and histogram bin of @p profile. Bins are
 * hashed in key order, so the digest does not depend on how a
 * histogram stores them.
 */
std::uint64_t
profileDigest(const MrcProfile &profile)
{
    std::uint64_t h = 1469598103934665603ull;
    auto add = [&h](auto v) { h = fnv1a(&v, sizeof v, h); };
    auto addHist = [&](const auto &hist) {
        std::vector<std::pair<std::uint64_t, double>> bins;
        for (const auto &[key, w] : hist)
            bins.emplace_back(key, w);
        std::sort(bins.begin(), bins.end());
        add(static_cast<std::uint64_t>(bins.size()));
        for (const auto &[key, w] : bins) {
            add(key);
            add(w);
        }
    };
    add(profile.samplingRate);
    add(profile.lineBytes);
    add(profile.totalLoadLines);
    add(profile.sampledLoadLines);
    for (const MrcPcProfile &pc : profile.pcs) {
        add(pc.loadInsts);
        add(pc.loadReqs);
        add(pc.storeInsts);
        add(pc.storeReqs);
        addHist(pc.reqHist);
        addHist(pc.instHist);
    }
    return h;
}

TEST(ReuseDistance, CollectedProfileDigestsArePinned)
{
    // Captured from the previous tracker (a node-based hash map plus a
    // Fenwick tree with one node per access) on the baseline machine;
    // the compacted bitmap tracker and the flat histograms must
    // reproduce every distance, count and weight bit for bit.
    HardwareConfig config = HardwareConfig::baseline();
    struct Pin
    {
        const char *kernel;
        double rate;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"micro_l1_resident", 1.0, 0xcc39c2b681386216ull},
        {"micro_l1_resident", 0.5, 0x8781c7353ddc6e2aull},
        {"micro_pointer_chase", 1.0, 0x70302a3c508d32b6ull},
        {"micro_pointer_chase", 0.5, 0x7ac249d2c908dc32ull},
    };
    for (const Pin &pin : pins) {
        KernelTrace kernel = workloadByName(pin.kernel).generate(config);
        std::uint64_t got =
            profileDigest(collectMrcProfile(kernel, config, pin.rate));
        EXPECT_EQ(got, pin.digest)
            << pin.kernel << " at rate " << pin.rate << ": 0x" << std::hex
            << got;
    }
}

// ---------------------------------------------------------------------
// ShardsSampler
// ---------------------------------------------------------------------

TEST(Shards, RateOneIsExact)
{
    ShardsSampler s(1.0);
    for (Addr line : {0ull, 1ull, 0xdeadbeefull, ~0ull})
        EXPECT_TRUE(s.sampled(line));
    EXPECT_DOUBLE_EQ(s.weight(), 1.0);
    EXPECT_EQ(s.unscale(7), 7u);
    EXPECT_EQ(s.unscale(mrcColdDistance), mrcColdDistance);
}

TEST(Shards, SubsamplingScalesWeightAndDistance)
{
    ShardsSampler s(0.5);
    EXPECT_DOUBLE_EQ(s.weight(), 2.0);
    EXPECT_EQ(s.unscale(7), 14u);
    // Cold stays cold; near-max distances saturate below the sentinel.
    EXPECT_EQ(s.unscale(mrcColdDistance), mrcColdDistance);
    EXPECT_EQ(s.unscale(mrcColdDistance - 1), mrcColdDistance - 1);
}

TEST(Shards, SampledSetIsDeterministicAndRoughlyRateSized)
{
    ShardsSampler s(0.25);
    std::size_t hits = 0;
    for (Addr line = 0; line < 4096; ++line)
        hits += s.sampled(line) ? 1 : 0;
    // splitmix64 is uniform; 4096 draws at p=0.25 stay well within
    // this deterministic band.
    EXPECT_GT(hits, 4096 * 0.2);
    EXPECT_LT(hits, 4096 * 0.3);
    ShardsSampler again(0.25);
    for (Addr line = 0; line < 256; ++line)
        EXPECT_EQ(s.sampled(line), again.sampled(line));
}

// ---------------------------------------------------------------------
// assocHitProbability
// ---------------------------------------------------------------------

TEST(AssocHit, ColdNeverHits)
{
    EXPECT_DOUBLE_EQ(assocHitProbability(mrcColdDistance, 1, 8), 0.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(mrcColdDistance, 64, 8), 0.0);
}

TEST(AssocHit, FullyAssociativeIsExactStackDistance)
{
    EXPECT_DOUBLE_EQ(assocHitProbability(0, 1, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(7, 1, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(8, 1, 8), 0.0);
    // Degenerate single-line cache: only immediate re-reference hits.
    EXPECT_DOUBLE_EQ(assocHitProbability(0, 1, 1), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(1, 1, 1), 0.0);
}

TEST(AssocHit, BalancedMappingThresholdIsCapacity)
{
    // 64 sets x 8 ways: resident iff fewer than 512 distinct lines
    // intervene.
    EXPECT_DOUBLE_EQ(assocHitProbability(0, 64, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(511, 64, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(512, 64, 8), 0.0);
    // Non-power-of-two set count (the Table I L2 shape).
    EXPECT_DOUBLE_EQ(assocHitProbability(768 * 8 - 1, 768, 8), 1.0);
    EXPECT_DOUBLE_EQ(assocHitProbability(768 * 8, 768, 8), 0.0);
}

// ---------------------------------------------------------------------
// deriveCollectorResult: exactness contract
// ---------------------------------------------------------------------

/** Small machine used throughout: cache behaviour visible, fast. */
HardwareConfig
smallMachine()
{
    HardwareConfig config = HardwareConfig::baseline();
    config.numCores = 2;
    config.warpsPerCore = 4;
    return config;
}

/** Make both levels fully associative (one set) at unchanged sizes. */
HardwareConfig
fullyAssociative(HardwareConfig config)
{
    config.l1Assoc = config.l1SizeBytes / config.l1LineBytes;
    config.l2Assoc = config.l2SizeBytes / config.l2LineBytes;
    return config;
}

void
expectSameCollectorResult(const CollectorResult &derived,
                          const CollectorResult &simulated,
                          const std::string &context)
{
    ASSERT_EQ(derived.pcs.size(), simulated.pcs.size()) << context;
    for (std::size_t pc = 0; pc < derived.pcs.size(); ++pc) {
        const PcProfile &d = derived.pcs[pc];
        const PcProfile &s = simulated.pcs[pc];
        EXPECT_EQ(d.instCount, s.instCount) << context << " pc " << pc;
        EXPECT_EQ(d.instL1Hit, s.instL1Hit) << context << " pc " << pc;
        EXPECT_EQ(d.instL2Hit, s.instL2Hit) << context << " pc " << pc;
        EXPECT_EQ(d.instL2Miss, s.instL2Miss)
            << context << " pc " << pc;
        EXPECT_EQ(d.reqCount, s.reqCount) << context << " pc " << pc;
        EXPECT_EQ(d.reqL1Miss, s.reqL1Miss) << context << " pc " << pc;
        EXPECT_EQ(d.reqL2Miss, s.reqL2Miss) << context << " pc " << pc;
        EXPECT_DOUBLE_EQ(derived.pcLatency[pc], simulated.pcLatency[pc])
            << context << " pc " << pc;
    }
    EXPECT_DOUBLE_EQ(derived.avgMissLatency, simulated.avgMissLatency)
        << context;
    EXPECT_DOUBLE_EQ(derived.l1HitRate, simulated.l1HitRate) << context;
    EXPECT_DOUBLE_EQ(derived.l2HitRate, simulated.l2HitRate) << context;
}

TEST(MrcDerive, ExactOnFullyAssociativeLruUnsampled)
{
    // The contract: rate 1.0 + LRU + fully-associative geometry (with
    // an L2 large enough that only cold lines miss it) reproduces the
    // functional collector bit-for-bit, per PC.
    HardwareConfig config = fullyAssociative(smallMachine());
    for (const Workload &w : microWorkloads()) {
        KernelTrace kernel = w.generate(config);
        MrcProfile profile = collectMrcProfile(kernel, config, 1.0);
        CollectorResult derived =
            deriveCollectorResult(profile, kernel, config);
        CollectorResult simulated = collectInputs(kernel, config);
        expectSameCollectorResult(derived, simulated, w.name);
        EXPECT_TRUE(derived.mrcDerived);
        EXPECT_FALSE(derived.mrcApproximate) << derived.mrcApproximation;
        EXPECT_FALSE(simulated.mrcDerived);
    }
}

TEST(MrcDerive, ExactWithSingleLineL1)
{
    // One-line fully-associative L1 (hit iff immediate re-reference):
    // the harshest L1 filter, still exact because the big L2 turns the
    // union-stream approximation into "only cold misses".
    HardwareConfig config = fullyAssociative(smallMachine());
    config.l1SizeBytes = config.l1LineBytes;
    config.l1Assoc = 1;
    for (const char *name : {"micro_write_burst", "micro_l1_resident",
                             "micro_pointer_chase"}) {
        const Workload &w = workloadByName(name);
        KernelTrace kernel = w.generate(config);
        MrcProfile profile = collectMrcProfile(kernel, config, 1.0);
        CollectorResult derived =
            deriveCollectorResult(profile, kernel, config);
        CollectorResult simulated = collectInputs(kernel, config);
        expectSameCollectorResult(derived, simulated, name);
    }
}

TEST(MrcDerive, ProfileIsGeometryIndependent)
{
    // One profile collected once must serve multiple geometries; the
    // profile object is untouched by derivation.
    HardwareConfig base = smallMachine();
    const Workload &w = workloadByName("micro_l1_resident");
    KernelTrace kernel = w.generate(base);
    MrcProfile profile = collectMrcProfile(kernel, base, 1.0);
    std::uint64_t total = profile.totalLoadLines;

    double last_hit_rate = -1.0;
    bool varied = false;
    for (std::uint32_t kb : {1u, 4u, 32u}) {
        HardwareConfig config = base;
        config.l1SizeBytes = kb * 1024;
        CollectorResult derived =
            deriveCollectorResult(profile, kernel, config);
        if (last_hit_rate >= 0.0 &&
            derived.l1HitRate != last_hit_rate)
            varied = true;
        // Growing the L1 never lowers the derived hit rate.
        EXPECT_GE(derived.l1HitRate, last_hit_rate);
        last_hit_rate = derived.l1HitRate;
    }
    EXPECT_TRUE(varied); // the sweep axis actually moved the answer
    EXPECT_EQ(profile.totalLoadLines, total);
}

TEST(MrcDerive, ApproximationFlagsAndReasons)
{
    HardwareConfig exact_cfg = fullyAssociative(smallMachine());
    const Workload &w = workloadByName("micro_write_burst");
    KernelTrace kernel = w.generate(exact_cfg);
    MrcProfile profile = collectMrcProfile(kernel, exact_cfg, 1.0);

    // Set-associative geometry is flagged.
    HardwareConfig set_assoc = smallMachine();
    CollectorResult d1 =
        deriveCollectorResult(profile, kernel, set_assoc);
    EXPECT_TRUE(d1.mrcApproximate);
    EXPECT_NE(d1.mrcApproximation.find("set-associative"),
              std::string::npos);

    // A sampled profile is flagged.
    MrcProfile sampled = collectMrcProfile(kernel, exact_cfg, 0.5);
    CollectorResult d2 =
        deriveCollectorResult(sampled, kernel, exact_cfg);
    EXPECT_TRUE(d2.mrcApproximate);
    EXPECT_NE(d2.mrcApproximation.find("sampled"), std::string::npos);

    // Non-LRU replacement is flagged.
    HardwareConfig arc_cfg = exact_cfg;
    arc_cfg.replacementPolicy = 3;
    CollectorResult d3 = deriveCollectorResult(profile, kernel, arc_cfg);
    EXPECT_TRUE(d3.mrcApproximate);
    EXPECT_NE(d3.mrcApproximation.find("non-LRU"), std::string::npos);
}

TEST(MrcDerive, LineSizeMismatchThrows)
{
    HardwareConfig config = smallMachine();
    const Workload &w = workloadByName("micro_stream");
    KernelTrace kernel = w.generate(config);
    MrcProfile profile = collectMrcProfile(kernel, config, 1.0);

    HardwareConfig other_line = config;
    other_line.l1LineBytes = 64;
    other_line.l2LineBytes = 64;
    try {
        deriveCollectorResult(profile, kernel, other_line);
        FAIL() << "line-size mismatch must throw";
    } catch (const StatusException &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("--sweep-mode=rerun"),
                  std::string::npos);
    }
}

TEST(MrcDerive, PcCountMismatchThrows)
{
    HardwareConfig config = smallMachine();
    const Workload &w = workloadByName("micro_stream");
    KernelTrace kernel = w.generate(config);
    MrcProfile profile = collectMrcProfile(kernel, config, 1.0);
    profile.pcs.pop_back();
    EXPECT_THROW(deriveCollectorResult(profile, kernel, config),
                 StatusException);
}

TEST(MrcDerive, SamplingDriftIsBounded)
{
    // Sampling is hash-based and deterministic; the rate-0.5 aggregate
    // hit rates measured on the micro suite sit within 0.025 of exact,
    // so 0.05 is a stable regression band (not a statistical test).
    HardwareConfig config = smallMachine();
    for (const Workload &w : microWorkloads()) {
        KernelTrace kernel = w.generate(config);
        MrcProfile full = collectMrcProfile(kernel, config, 1.0);
        MrcProfile half = collectMrcProfile(kernel, config, 0.5);
        CollectorResult df = deriveCollectorResult(full, kernel, config);
        CollectorResult dh = deriveCollectorResult(half, kernel, config);
        EXPECT_NEAR(dh.l1HitRate, df.l1HitRate, 0.05) << w.name;
        EXPECT_NEAR(dh.l2HitRate, df.l2HitRate, 0.05) << w.name;
        // Exact totals are carried unsampled.
        EXPECT_EQ(half.totalLoadLines, full.totalLoadLines) << w.name;
        EXPECT_LE(half.sampledLoadLines, full.sampledLoadLines)
            << w.name;
    }
}

// ---------------------------------------------------------------------
// Model-level drift: MRC path vs rerun path
// ---------------------------------------------------------------------

TEST(MrcSweep, ModelCpiDriftWithinTwoPercentOfRerun)
{
    // The PR's accuracy gate, in miniature: across a cache-geometry
    // subgrid, the unsampled MRC path's model CPI stays within 2% of
    // per-cell functional re-simulation for every micro kernel.
    HardwareConfig base = smallMachine();
    struct Cell
    {
        std::uint32_t l1Kb;
        std::uint32_t l2Kb;
    };
    const Cell cells[] = {{1, 16}, {2, 6}, {4, 48}, {16, 192}};
    for (const Workload &w : microWorkloads()) {
        KernelTrace kernel = w.generate(base);
        GpuMechProfiler rerun(kernel, base);
        auto profile = std::make_shared<const MrcProfile>(
            collectMrcProfile(kernel, base, 1.0));
        GpuMechProfiler mrc(kernel, base, RepSelection::Clustering, 2,
                            1, nullptr, profile);
        for (const Cell &cell : cells) {
            HardwareConfig config = base;
            config.l1SizeBytes = cell.l1Kb * 1024;
            config.l2SizeBytes = cell.l2Kb * 1024;
            double want =
                rerun
                    .evaluateAt(config, SchedulingPolicy::RoundRobin)
                    .cpi;
            double got =
                mrc.evaluateAt(config, SchedulingPolicy::RoundRobin)
                    .cpi;
            ASSERT_GT(want, 0.0);
            EXPECT_LE(std::abs(got - want) / want, 0.02)
                << w.name << " at l1 " << cell.l1Kb << "KB / l2 "
                << cell.l2Kb << "KB (rerun " << want << ", mrc " << got
                << ")";
        }
    }
}

// ---------------------------------------------------------------------
// Sweep plumbing: golden bit-identity of rerun mode, mode parsing
// ---------------------------------------------------------------------

/**
 * Captured from the pre-MRC engine (commit 25f8889) by running exactly
 * the sweep reconstructed below; also stored at
 * tests/golden/sweep_cachegeom_rerun.csv. --sweep-mode=rerun must
 * keep reproducing it byte-for-byte. The MT_MSHR_BAND row was
 * re-captured when the bandwidth queue gained its continuity clamp at
 * kBandwidthRhoClamp (the only model whose numbers moved).
 */
const char *const sweepGoldenCsv =
    "model,l1-1kb,l1-2kb,l1-4kb,l2-4kb,l2-16kb\n"
    "Naive_Interval,0.092766,0.118674,0.153197,0.161636,0.174839\n"
    "Markov_Chain,0.071879,0.097554,0.128118,0.135884,0.147205\n"
    "MT,0.091762,0.117320,0.151579,0.159949,0.173040\n"
    "MT_MSHR,0.091762,0.117320,0.151579,0.159949,0.173040\n"
    "MT_MSHR_BAND,0.076617,0.088507,0.086207,0.085991,0.086426\n";

std::vector<Workload>
goldenSweepKernels()
{
    std::vector<Workload> kernels;
    for (const Workload &w : microWorkloads()) {
        if (w.name == "micro_stream" || w.name == "micro_l1_resident" ||
            w.name == "micro_write_burst" ||
            w.name == "micro_pointer_chase")
            kernels.push_back(w);
    }
    return kernels;
}

std::vector<SweepPoint>
goldenSweepPoints()
{
    std::vector<SweepPoint> points;
    for (std::uint32_t kb : {1u, 2u, 4u}) {
        HardwareConfig config;
        config.numCores = 2;
        config.warpsPerCore = 4;
        config.l1SizeBytes = kb * 1024;
        points.push_back({"l1-" + std::to_string(kb) + "kb", config});
    }
    for (std::uint32_t kb : {4u, 16u}) {
        HardwareConfig config;
        config.numCores = 2;
        config.warpsPerCore = 4;
        config.l2SizeBytes = kb * 1024;
        points.push_back({"l2-" + std::to_string(kb) + "kb", config});
    }
    return points;
}

TEST(MrcSweep, RerunModeIsBitIdenticalToGolden)
{
    SweepResult result =
        runSweep(goldenSweepKernels(), goldenSweepPoints(),
                 SchedulingPolicy::RoundRobin, false, 1);
    ASSERT_TRUE(result.complete());
    std::ostringstream csv;
    printSweepCsv(csv, result);
    EXPECT_EQ(csv.str(), sweepGoldenCsv);
}

TEST(MrcSweep, MrcModeCompletesAndStaysClose)
{
    // Same sweep through the MRC path: every cell must evaluate, and
    // the per-model average errors (vs the timing oracle) must land
    // near the rerun numbers — the model inputs changed by at most the
    // derivation approximations.
    SweepOptions options;
    options.mode = SweepMode::Mrc;
    SweepResult rerun =
        runSweep(goldenSweepKernels(), goldenSweepPoints(),
                 SchedulingPolicy::RoundRobin, false, 1);
    SweepResult mrc =
        runSweep(goldenSweepKernels(), goldenSweepPoints(),
                 SchedulingPolicy::RoundRobin, false, 1, nullptr, {},
                 options);
    ASSERT_TRUE(mrc.complete());
    ASSERT_EQ(mrc.labels, rerun.labels);
    for (const auto &[model, averages] : rerun.averages) {
        const auto it = mrc.averages.find(model);
        ASSERT_NE(it, mrc.averages.end());
        for (std::size_t i = 0; i < averages.size(); ++i) {
            EXPECT_NEAR(it->second[i], averages[i], 0.02)
                << toString(model) << " at " << rerun.labels[i];
        }
    }
}

TEST(MrcSweep, ParseSweepMode)
{
    SweepMode mode = SweepMode::Mrc;
    EXPECT_TRUE(parseSweepMode("rerun", mode));
    EXPECT_EQ(mode, SweepMode::Rerun);
    EXPECT_TRUE(parseSweepMode("mrc", mode));
    EXPECT_EQ(mode, SweepMode::Mrc);
    SweepMode untouched = SweepMode::Rerun;
    EXPECT_FALSE(parseSweepMode("bogus", untouched));
    EXPECT_EQ(untouched, SweepMode::Rerun);
    EXPECT_EQ(toString(SweepMode::Rerun), "rerun");
    EXPECT_EQ(toString(SweepMode::Mrc), "mrc");
}

} // namespace
} // namespace gpumech
