/**
 * @file
 * The benchmark's one set of measurement helpers: a monotonic clock,
 * medians and percentiles, peak resident memory, an output digest, and
 * in-memory layer spans with Chrome trace-event export.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * layer's public functions; nothing here reads the program's internal
 * stage histograms.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since @p start_ns (a nowNs() reading). */
inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

/** Percentile by linear interpolation between closest ranks (q in [0,1]). */
double percentile(std::vector<double> values, double q);

/** Median; 0 for an empty sample. */
inline double
median(const std::vector<double> &values)
{
    return percentile(values, 0.5);
}

/**
 * Seconds this host takes for a fixed piece of work that lives in the
 * benchmark, not in the program, so no change to the program moves it:
 * random memory updates, a hash map built and probed, fresh pages
 * mapped and small sorts, the kinds of work the engine does. Timed
 * before every repetition, it tracks how fast the shared host runs.
 */
double calibrationSeconds();

/** Peak resident set of this process in MiB (getrusage). */
double selfPeakRssMb();

/** Peak resident set (VmHWM) of another live process in MiB; 0 if unknown. */
double processPeakRssMb(int pid);

/** FNV-1a over raw bytes, chained from @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 1469598103934665603ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Running digest of model outputs (exact bits of every double). */
class Digest
{
  public:
    void
    add(double v)
    {
        h = fnv1a(&v, sizeof v, h);
    }
    void
    add(std::uint64_t v)
    {
        h = fnv1a(&v, sizeof v, h);
    }
    void
    add(const std::string &s)
    {
        h = fnv1a(s.data(), s.size(), h);
        add(static_cast<std::uint64_t>(s.size()));
    }
    std::uint64_t value() const { return h; }
    std::string hex() const;

  private:
    std::uint64_t h = 1469598103934665603ull;
};

/** One completed span. */
struct SpanRecord
{
    const char *layer = ""; //!< module the call enters ("collector", ...)
    const char *name = "";  //!< public function or step ("collect", ...)
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::uint32_t tid = 0;
    std::string item; //!< kernel name or request id; may be empty
    double work = 0;  //!< units of work (instructions), 0 = none
};

/** Aggregates of one (layer, name) over the traced run. */
struct SpanStats
{
    std::vector<double> durNs; //!< every call, in record order
    double totalNs = 0;
    double selfNs = 0; //!< duration minus same-thread children
    double work = 0;
};

/**
 * In-memory span recorder. Disabled spans cost one branch and read no
 * clock. Records are appended under a mutex at span end; spans sit at
 * layer boundaries (per kernel, per call), never in inner loops.
 */
class Tracer
{
  public:
    std::atomic<bool> enabled{false};

    void record(SpanRecord &&rec);
    std::uint64_t newId() { return nextId.fetch_add(1); }

    /** Per "layer.name" aggregates with self time. */
    std::map<std::string, SpanStats> stats() const;

    /** Self time per layer (ns). */
    std::map<std::string, double> layerSelfNs() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

    std::size_t size() const;

  private:
    mutable std::mutex mu;
    std::vector<SpanRecord> spans;
    std::atomic<std::uint64_t> nextId{1};
};

/** The process-wide tracer. */
Tracer &tracer();

/** Small sequential id of the calling thread. */
std::uint32_t threadId();

/**
 * RAII span around one call into a layer. The parent is the calling
 * thread's innermost open span unless @p parent is given (for work
 * handed to another thread).
 */
class Span
{
  public:
    Span(const char *layer, const char *name, std::string item = {},
         double work = 0, std::uint64_t parent = ~0ull);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Set the work units after the call (e.g. instructions generated). */
    void setWork(double w) { rec.work = w; }

  private:
    bool on;
    std::uint64_t savedCurrent = 0;
    SpanRecord rec;
};

/** Id of the calling thread's innermost open span (0 = none). */
std::uint64_t currentSpan();

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
