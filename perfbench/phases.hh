/**
 * @file
 * The four phases every workload runs, and what a run shares: its
 * options, the per-workload plan, the failure tally and the metrics.
 *
 * A phase is set up (possibly several times, the last one kept), then
 * measured in repetitions that the scheduler interleaves with the
 * other phases' repetitions, then checked off the clock.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string serveBin;
    std::string runDir = ".";
    std::string buildType = "unknown";
    std::string commit = "unknown";
};

/** Inputs and sizes of one workload's four phases. */
struct Plan
{
    std::vector<std::string> cold;     //!< cold-path kernel set
    std::vector<std::string> explore;  //!< sweep + tune kernels
    std::vector<std::uint32_t> l1Kb, l2Kb; //!< sweep grid, KB
    std::vector<std::string> tuneDims;
    std::vector<std::string> serve;    //!< daemon key-set kernels
    /** Rungs below the reference rate, req/s. */
    std::vector<double> ladder = {500, 1000, 2000, 4000};
    double refRate = 8000;    //!< rate of the latency segments
    double refSeconds = 0.25; //!< length of one segment
    int refSegments = 4;      //!< segments per repetition
    /** Overload rungs; the last one saturates the daemon. */
    std::vector<double> climb = {16000, 32000, 64000};
    double rungSeconds = 0.25; //!< ladder and climb rungs
    std::vector<std::string> validate; //!< model vs oracle kernels
    int minReps = 3;
};

Plan makePlan(const std::string &workload, bool tiny);

/** splitmix64, for the seed-derived reorderings. */
std::uint64_t mix(std::uint64_t x);

/** Seeded Fisher-Yates reorder. */
template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t seed)
{
    std::uint64_t s = mix(seed);
    for (std::size_t i = v.size(); i > 1; --i) {
        s = mix(s);
        std::swap(v[i - 1], v[s % i]);
    }
}

/**
 * @p items in the order repetition @p rep runs them: a reorder drawn
 * from the seed and the repetition, so each repetition of a run takes
 * another order and a run's medians cover many orders, not the one
 * order a seed would fix (kernel order alone moves a phase's time).
 */
template <typename T>
std::vector<T>
repOrder(std::vector<T> items, std::uint64_t seed, int rep)
{
    shuffle(items, seed ^ mix(static_cast<std::uint64_t>(rep)));
    return items;
}

/**
 * Operations attempted and failed (errors, shed requests, output
 * mismatches), counted per kind: one kind per sort of operation, such
 * as a daemon send or one output check.
 */
struct Tally
{
    struct Count
    {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
    };
    std::map<std::string, Count> kinds;
    std::vector<std::string> problems; //!< the first few reasons

    void attempt(const std::string &kind, std::uint64_t count = 1);
    void fail(const std::string &kind, const std::string &why,
              std::uint64_t count = 1);
    /** One attempt of @p kind, failed with @p why unless @p ok. */
    void check(const std::string &kind, bool ok, const std::string &why);

    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    /**
     * The lowest success share over the kinds, so that one mismatch
     * among a kind's few checks shows however many sends succeed.
     */
    double successRatio() const;
};

struct Metric
{
    std::string name, unit;
    double value;
};

/** Measured repetitions of one phase. */
struct RepTimes
{
    std::vector<double> traced, untraced; //!< wall seconds per rep
    double capacityNs = 0; //!< traced wall x threads, for attribution
    std::map<std::string, double> layerNs; //!< traced self time
    double usedS = 0;      //!< all reps' wall time, for scheduling
    int reps = 0;
};

/** One phase of a run. */
class Phase
{
  public:
    virtual ~Phase() = default;

    virtual const char *name() const = 0;
    /** The phase's share of the run, relative to the others. */
    virtual double share() const { return 1; }
    /** Fewest measured repetitions a run makes. */
    virtual int minReps(const Plan &plan) const { return plan.minReps; }
    /** Threads the phase's spans run on (attribution capacity). */
    virtual int threads() const { return 1; }
    /** Set-up; may run several times, each replacing the last. */
    virtual void setup() {}
    /**
     * Untimed warm-up before the measured repetitions; by default
     * repetition 0, whose outputs later repetitions must reproduce.
     */
    virtual void prepare() { step(0, false); }
    /**
     * One repetition; measured ones start at 1. Spans are recorded
     * when @p traced.
     */
    virtual void step(int rep, bool traced) = 0;
    /**
     * Off-the-clock output checks, and the probes that time single
     * functions no repetition calls on its own (spans recorded when
     * the run is traced).
     */
    virtual void finish() {}
    /** End-to-end and per-layer metrics, and the output digest. */
    virtual void report(std::vector<Metric> &e2e,
                        std::vector<Metric> &layers,
                        std::map<std::string, SpanStats> &spans) = 0;
    virtual std::uint64_t digest() const = 0;
    /** Extra fields for the run record (JSON members, or empty). */
    virtual std::string info() const { return {}; }
    /** Peak memory of processes the phase owns, in MiB. */
    virtual double childPeakRssMb() const { return 0; }

    RepTimes times;
};

/** Make the four phases of a run. */
std::vector<std::unique_ptr<Phase>>
makePhases(const Options &opt, const Plan &plan, Tally &tally);

/** Format a double with all its digits (JSON). */
std::string num(double v);

/** A JSON string literal. */
std::string quoted(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
