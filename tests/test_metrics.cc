/**
 * @file
 * Unit tests for the metrics registry (common/metrics.hh) and the
 * stage-tracing layer (common/trace_span.hh): handle correctness,
 * thread-shard merge determinism, span nesting, the zero-cost
 * disabled path, and Chrome-trace / metrics JSON validity via the
 * independent validator in json_check.hh.
 *
 * Metrics state is process-global, so every test starts from a clean
 * slate via the MetricsTest fixture (enable + reset) and restores the
 * disabled default on teardown to keep other suites unaffected.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"
#include "harness/experiment.hh"
#include "harness/input_cache.hh"
#include "json_check.hh"
#include "workloads/workload.hh"

namespace gpumech
{
namespace
{

using testing::isValidJson;

class MetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Metrics::enable(true);
        Metrics::reset();
        TraceLog::clear();
    }

    void
    TearDown() override
    {
        Metrics::enable(false);
        TraceLog::enable(false);
        Metrics::reset();
        TraceLog::clear();
    }
};

/** Snapshot entry by name; fails the test when absent. */
MetricSnapshot
find(const std::string &name)
{
    for (const MetricSnapshot &m : Metrics::snapshot()) {
        if (m.name == name)
            return m;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return MetricSnapshot{};
}

TEST_F(MetricsTest, CounterAccumulates)
{
    Counter c("test.counter");
    c.add();
    c.add(41);
    MetricSnapshot snap = find("test.counter");
    EXPECT_EQ(snap.kind, MetricKind::Counter);
    EXPECT_EQ(snap.value, 42.0);
}

TEST_F(MetricsTest, GaugeKeepsLastValue)
{
    Gauge g("test.gauge");
    g.set(3.0);
    g.set(7.5);
    MetricSnapshot snap = find("test.gauge");
    EXPECT_EQ(snap.kind, MetricKind::Gauge);
    EXPECT_EQ(snap.value, 7.5);
}

TEST_F(MetricsTest, HistogramStats)
{
    Histogram h("test.hist");
    for (double v : {1.0, 2.0, 4.0, 8.0})
        h.observe(v);
    MetricSnapshot snap = find("test.hist");
    EXPECT_EQ(snap.kind, MetricKind::Histogram);
    EXPECT_EQ(snap.hist.count, 4u);
    EXPECT_DOUBLE_EQ(snap.hist.sum, 15.0);
    EXPECT_DOUBLE_EQ(snap.hist.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.hist.max, 8.0);
    EXPECT_DOUBLE_EQ(snap.hist.mean(), 3.75);
    // Quantiles are bucket estimates clamped to [min, max].
    EXPECT_GE(snap.hist.quantile(0.0), 1.0);
    EXPECT_LE(snap.hist.quantile(1.0), 8.0);
    EXPECT_LE(snap.hist.quantile(0.5), snap.hist.quantile(0.95));
}

TEST_F(MetricsTest, ReregisteringSameNameSharesState)
{
    Counter a("test.shared");
    Counter b("test.shared");
    a.add(2);
    b.add(3);
    EXPECT_EQ(find("test.shared").value, 5.0);
}

TEST_F(MetricsTest, DisabledPathRecordsNothing)
{
    Counter c("test.off");
    Histogram h("test.off_hist");
    Metrics::enable(false);
    c.add(100);
    h.observe(1.0);
    Metrics::enable(true);
    EXPECT_EQ(find("test.off").value, 0.0);
    EXPECT_EQ(find("test.off_hist").hist.count, 0u);
}

TEST_F(MetricsTest, ResetClearsValuesKeepsRegistrations)
{
    Counter c("test.reset");
    c.add(9);
    Metrics::reset();
    EXPECT_EQ(find("test.reset").value, 0.0);
    c.add(1);
    EXPECT_EQ(find("test.reset").value, 1.0);
}

TEST_F(MetricsTest, ShardMergeIsDeterministicAcrossThreadCounts)
{
    // N increments distributed over a parallel loop must total N at
    // any job count — the tentpole determinism claim.
    constexpr std::size_t n = 10000;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        Metrics::reset();
        Counter c("test.parallel");
        Histogram h("test.parallel_hist");
        parallelFor(
            n,
            [&](std::size_t i) {
                c.add();
                h.observe(static_cast<double>(i % 7));
            },
            1, jobs);
        EXPECT_EQ(find("test.parallel").value, static_cast<double>(n))
            << "jobs=" << jobs;
        EXPECT_EQ(find("test.parallel_hist").hist.count, n)
            << "jobs=" << jobs;
    }
    setDefaultJobs(0);
}

TEST_F(MetricsTest, PoolMetricsCompleteWhenParallelForReturns)
{
    // Every worker records its pool metrics before the completion
    // signal that may wake the submitter, so the chunk count is whole
    // the moment parallelFor returns.
    constexpr std::size_t n = 1000;
    constexpr std::size_t grain = 100; // one chunk per grain at 4 jobs
    setDefaultJobs(4);
    for (int rep = 0; rep < 200; ++rep) {
        Metrics::reset();
        parallelFor(n, [](std::size_t) {}, grain, 4);
        ASSERT_EQ(find("pool.chunks").value,
                  static_cast<double>((n + grain - 1) / grain))
            << "rep " << rep;
        ASSERT_EQ(find("pool.items").value, static_cast<double>(n))
            << "rep " << rep;
    }
    setDefaultJobs(0);
}

TEST_F(MetricsTest, CountsSurviveThreadExit)
{
    // A worker thread's shard must merge into the totals when the
    // thread exits before the snapshot is taken.
    Counter c("test.exited");
    std::thread t([&] { c.add(17); });
    t.join();
    EXPECT_EQ(find("test.exited").value, 17.0);
}

TEST_F(MetricsTest, ScopedTimerObserves)
{
    Histogram h("test.timer.ms");
    {
        ScopedTimerMs timer(h);
    }
    MetricSnapshot snap = find("test.timer.ms");
    EXPECT_EQ(snap.hist.count, 1u);
    EXPECT_GE(snap.hist.min, 0.0);
}

TEST_F(MetricsTest, MetricsJsonIsValid)
{
    Counter c("test.json\"quoted");
    c.add(3);
    Histogram h("test.json_hist");
    h.observe(2.5);
    std::string json = metricsToJson();
    EXPECT_TRUE(isValidJson(json)) << json;
    EXPECT_NE(json.find("test.json_hist"), std::string::npos);
}

TEST_F(MetricsTest, SummaryPrintsRecordedMetrics)
{
    Counter c("test.summary");
    c.add(5);
    std::ostringstream os;
    printMetricsSummary(os);
    EXPECT_NE(os.str().find("test.summary"), std::string::npos);
    EXPECT_NE(os.str().find("5"), std::string::npos);
}

TEST_F(MetricsTest, SpanFeedsStageHistogram)
{
    {
        Span span("unittest", "kernel_a");
    }
    MetricSnapshot snap = find("stage.unittest.ms");
    EXPECT_EQ(snap.kind, MetricKind::Histogram);
    EXPECT_EQ(snap.hist.count, 1u);
}

/** A small machine, so the pipeline tests stay quick under sanitizers. */
HardwareConfig
smallConfig()
{
    HardwareConfig c;
    c.numCores = 2;
    c.warpsPerCore = 4;
    return c;
}

/** Observations of a stage histogram; 0 when it was never opened. */
std::uint64_t
stageCount(const std::string &stage)
{
    for (const MetricSnapshot &m : Metrics::snapshot()) {
        if (m.name == "stage." + stage + ".ms")
            return m.hist.count;
    }
    return 0;
}

TEST_F(MetricsTest, ModelOnGeneratedWorkloadRecordsGenerateNotParse)
{
    // Generating a workload's trace is its own stage; "parse" is kept
    // for reading trace files. Both the cached path (the CLI and
    // daemon) and the uncached one must say so.
    const Workload *workload = findWorkload("micro_stream");
    ASSERT_NE(workload, nullptr);
    HardwareConfig config = smallConfig();
    for (bool cached : {false, true}) {
        Metrics::reset();
        InputCache cache;
        std::vector<KernelPrediction> preds = predictSuite(
            {*workload}, config, {}, 1, cached ? &cache : nullptr);
        ASSERT_TRUE(preds.at(0).ok()) << preds[0].status.toString();
        EXPECT_EQ(stageCount("generate"), 1u) << "cached=" << cached;
        EXPECT_EQ(stageCount("parse"), 0u) << "cached=" << cached;
    }
}

TEST_F(MetricsTest, ProfilerMissRecordsOneProfileSpan)
{
    // GpuMechProfiler opens the "profile" span itself; the cache must
    // not open a second one around it.
    const Workload *workload = findWorkload("micro_stream");
    ASSERT_NE(workload, nullptr);
    HardwareConfig config = smallConfig();
    InputCache cache;
    cache.profiler(*workload, config);
    EXPECT_EQ(stageCount("profile"), 1u);
    cache.profiler(*workload, config); // a hit profiles nothing
    EXPECT_EQ(stageCount("profile"), 1u);
    Metrics::reset();
    cache.mrcProfiler(*workload, config);
    EXPECT_EQ(stageCount("profile"), 1u);
}

TEST_F(MetricsTest, SpanNestingRecordsBothEvents)
{
    TraceLog::enable(true);
    {
        Span outer("outer_stage", "kern");
        Span inner("inner_stage", "kern");
    }
    std::vector<TraceEvent> events = TraceLog::collect();
    ASSERT_EQ(events.size(), 2u);
    // Same thread, sorted by start: outer opened first and fully
    // contains inner.
    EXPECT_EQ(events[0].name, "outer_stage");
    EXPECT_EQ(events[1].name, "inner_stage");
    EXPECT_EQ(events[0].tid, events[1].tid);
    EXPECT_LE(events[0].startNs, events[1].startNs);
    EXPECT_GE(events[0].startNs + events[0].durNs,
              events[1].startNs + events[1].durNs);
}

TEST_F(MetricsTest, SpansDisabledBufferNothing)
{
    Metrics::enable(false);
    {
        Span span("ignored", "kern");
    }
    EXPECT_TRUE(TraceLog::collect().empty());
}

TEST_F(MetricsTest, ChromeTraceJsonIsValid)
{
    TraceLog::enable(true);
    {
        // Details with quotes, backslashes and newlines must survive
        // the hand-rolled array writer.
        Span span("stage_x", "detail \"quoted\" \\ line\nbreak");
    }
    {
        Span span("stage_y", "plain");
    }
    std::ostringstream os;
    TraceLog::writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_TRUE(isValidJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("stage_x"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(MetricsTest, ChromeTraceEmptyIsValid)
{
    std::ostringstream os;
    TraceLog::writeChromeTrace(os);
    EXPECT_TRUE(isValidJson(os.str())) << os.str();
}

TEST(Logging, ParallelLinesDoNotInterleave)
{
    // Redirect stderr to a file, hammer inform() from several threads,
    // and verify every line comes back whole. Pre-fix, concurrent
    // fprintf calls could interleave fragments mid-line.
    std::string path = ::testing::TempDir() + "log_interleave.txt";
    std::fflush(stderr);
    int saved = dup(fileno(stderr));
    ASSERT_GE(saved, 0);
    int fd = open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_GE(dup2(fd, fileno(stderr)), 0);
    close(fd);

    constexpr int threads = 8;
    constexpr int lines_per_thread = 200;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([t] {
            for (int i = 0; i < lines_per_thread; ++i)
                inform(msg("thread ", t, " line ", i, " end"));
        });
    }
    for (std::thread &t : pool)
        t.join();

    std::fflush(stderr);
    ASSERT_GE(dup2(saved, fileno(stderr)), 0);
    close(saved);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int count = 0;
    while (std::getline(in, line)) {
        ++count;
        EXPECT_EQ(line.rfind("info: thread ", 0), 0u) << line;
        EXPECT_EQ(line.substr(line.size() - 4), " end") << line;
    }
    EXPECT_EQ(count, threads * lines_per_thread);
    std::remove(path.c_str());
}

} // namespace
} // namespace gpumech
