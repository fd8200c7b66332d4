/**
 * @file
 * The repository benchmark: one process runs one workload and prints
 * one JSON result line.
 *
 *   perfbench --workload paper_suite|small_kernels
 *             --seed N --seconds S --trace 0|1 --serve-bin PATH
 *             [--run-dir DIR] [--tiny] [--build-type T] [--commit C]
 *
 * Every workload runs the four phases of a user's session (phases.hh):
 * cold prediction, design-space exploration, serving and validation.
 * The workload decides their inputs. Repetitions of the four phases are
 * interleaved and share the run in fixed proportions, so each phase
 * samples the whole run rather than one stretch of a noisy machine.
 *
 * The seed only reorders inputs (kernel, cell and request order; each
 * repetition its own order drawn from the seed); it never changes which
 * kernels run. With --trace 1 the run records
 * layer spans around its calls into each module and prints the
 * per-layer metrics instead of the end-to-end ones. See README.md.
 */

#include <malloc.h>

#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "phases.hh"
#include "util.hh"

using namespace perfbench;

namespace
{

/**
 * The calibration's median time (calibrationSeconds) on the reference
 * host, a quiet 4-vCPU Intel Xeon VM. Host-time metrics are reported
 * as that host would have measured them: scaled by this over the
 * run's median calibration, which cancels the minutes-long swings in
 * speed of a shared host. The raw figures stay in the run record.
 */
constexpr double kReferenceCalibrationS = 0.04;

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--serve-bin")
            o.serveBin = value();
        else if (a == "--run-dir")
            o.runDir = value();
        else if (a == "--build-type")
            o.buildType = value();
        else if (a == "--commit")
            o.commit = value();
        else if (a == "--tiny")
            o.tiny = true;
        else
            throw std::runtime_error("unknown argument " + a);
    }
    if (o.workload.empty() || o.serveBin.empty())
        throw std::runtime_error("--workload and --serve-bin are required");
    if (!(o.seconds > 0))
        throw std::runtime_error("--seconds must be positive");
    return o;
}

/**
 * Run repetitions until --seconds have passed and every phase has its
 * minimum, always stepping the phase that has used the least time for
 * its share, so the phases share the run in those proportions and each
 * one's repetitions spread over all of it. In a traced run each phase
 * alternates traced and untraced repetitions; the untraced ones give
 * the end-to-end metrics.
 *
 * Before each repetition, off the clock, freed memory goes back to the
 * system, so every repetition maps its memory afresh as a new process
 * would; otherwise one run reuses one set of pages throughout, and how
 * fast those happen to be moves every repetition of that run together.
 * Then the host-speed calibration runs.
 */
void
schedule(const Options &opt, const Plan &plan,
         std::vector<std::unique_ptr<Phase>> &phases,
         std::vector<double> &calibrations)
{
    std::int64_t start = nowNs();
    for (;;) {
        bool done = secondsSince(start) >= opt.seconds;
        Phase *next = nullptr;
        for (auto &p : phases) {
            if (done && p->times.reps >= p->minReps(plan))
                continue;
            if (!next || p->times.usedS / p->share() <
                             next->times.usedS / next->share())
                next = p.get();
        }
        if (!next)
            return;
        RepTimes &t = next->times;
        malloc_trim(0);
        calibrations.push_back(calibrationSeconds());
        bool traced = opt.trace && t.reps % 2 == 0;
        tracer().enabled = traced;
        auto before = traced ? tracer().layerSelfNs()
                             : std::map<std::string, double>{};
        std::int64_t t0 = nowNs();
        {
            // Rep 0 is each phase's untimed reference (Phase::prepare).
            Span root("bench", next->name(),
                      "rep " + std::to_string(t.reps + 1));
            next->step(t.reps + 1, traced);
        }
        double wallNs = static_cast<double>(nowNs() - t0);
        tracer().enabled = false;
        t.usedS += wallNs / 1e9;
        ++t.reps;
        if (traced) {
            t.traced.push_back(wallNs / 1e9);
            t.capacityNs += wallNs * next->threads();
            for (const auto &[layer, ns] : tracer().layerSelfNs())
                t.layerNs[layer] += ns - before[layer];
        } else {
            t.untraced.push_back(wallNs / 1e9);
        }
    }
}

/** Self-time shares, the unattributed remainder and tracing overhead. */
void
attribution(const std::vector<std::unique_ptr<Phase>> &phases,
            std::vector<Metric> &layers)
{
    double capacity = 0, traced = 0, untraced = 0;
    std::map<std::string, double> self;
    for (const auto &p : phases) {
        const RepTimes &t = p->times;
        capacity += t.capacityNs;
        for (const auto &[layer, ns] : t.layerNs)
            self[layer] += ns;
        if (!t.traced.empty() && !t.untraced.empty()) {
            traced += median(t.traced);
            untraced += median(t.untraced);
        }
    }
    double attributed = 0;
    for (const char *layer : {"workloads", "collector", "core", "harness",
                              "service", "timing"}) {
        double pct = capacity > 0 ? self[layer] / capacity * 100 : 0;
        attributed += pct;
        layers.push_back({std::string("self_pct.") + layer, "%", pct});
    }
    layers.push_back({"self_pct.unattributed", "%", 100.0 - attributed});
    // Median traced over median untraced repetition, summed over phases.
    layers.push_back({"trace.overhead_pct", "%",
                      untraced > 0 ? (traced / untraced - 1) * 100 : 0});
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + quoted(ms[i].name) +
               ": {\"value\": " + num(ms[i].value) +
               ", \"unit\": " + quoted(ms[i].unit) + "}";
    }
    return out + "}";
}

int
run(const Options &opt)
{
    const Plan plan = makePlan(opt.workload, opt.tiny);
    Tally tally;
    std::vector<std::unique_ptr<Phase>> phases = makePhases(opt, plan, tally);

    // Set-up, three times, keeping the last: trace generation for the
    // explore and validate phases, daemon start and pre-warm.
    std::vector<double> setupS, calibrations;
    for (int i = 0; i < 3; ++i) {
        calibrations.push_back(calibrationSeconds());
        std::int64_t t0 = nowNs();
        for (auto &p : phases)
            p->setup();
        setupS.push_back(secondsSince(t0));
    }
    for (auto &p : phases)
        p->prepare();
    std::int64_t measured0 = nowNs();
    schedule(opt, plan, phases, calibrations);
    double measuredS = secondsSince(measured0);
    for (auto &p : phases)
        p->finish();

    std::map<std::string, SpanStats> spans = tracer().stats();
    std::vector<Metric> e2e{{"setup_s", "s", median(setupS)}};
    std::vector<Metric> layers;
    Digest all;
    double rssMb = selfPeakRssMb();
    for (auto &p : phases) {
        p->report(e2e, layers, spans);
        all.add(p->digest());
        rssMb += p->childPeakRssMb();
    }
    // Host time at the reference host speed: a time scales with the
    // speed the calibration saw, a rate inversely.
    double speed = kReferenceCalibrationS / median(calibrations);
    for (Metric &m : e2e) {
        if (m.unit == "s")
            m.value *= speed;
        else if (m.unit.size() > 2 && m.unit.ends_with("/s"))
            m.value /= speed;
    }
    e2e.push_back({"peak_rss_mb", "MB", rssMb});
    e2e.push_back({"success_ratio", "ratio", tally.successRatio()});

    if (opt.trace) {
        attribution(phases, layers);
        std::string path = opt.runDir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
        if (tracer().writeChromeTrace(path))
            std::cerr << "perfbench: " << tracer().size()
                      << " spans written to " << path << "\n";
        else
            std::cerr << "perfbench: cannot write " << path << "\n";
    }

    // The run record, then the result as the last line.
    std::ostringstream info;
    info << "{\"info\": {\"workload\": " << quoted(opt.workload)
         << ", \"seed\": " << opt.seed
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"build_type\": " << quoted(opt.buildType)
         << ", \"commit\": " << quoted(opt.commit)
         << ", \"measured_s\": " << num(measuredS) << ", \"setup_s\": ["
         << num(setupS[0]) << ", " << num(setupS[1]) << ", "
         << num(setupS[2]) << "], \"host_speed\": " << num(speed)
         << ", \"calibration_s\": [";
    for (std::size_t i = 0; i < calibrations.size(); ++i)
        info << (i ? ", " : "") << num(calibrations[i]);
    info << "], \"reps\": {";
    for (std::size_t i = 0; i < phases.size(); ++i)
        info << (i ? ", " : "") << quoted(phases[i]->name()) << ": "
             << phases[i]->times.reps;
    info << "}, \"digest\": {";
    for (const auto &p : phases) {
        Digest d;
        d.add(p->digest());
        info << quoted(p->name()) << ": " << quoted(d.hex()) << ", ";
    }
    info << "\"all\": " << quoted(all.hex()) << "}";
    for (const auto &p : phases) {
        std::string extra = p->info();
        if (!extra.empty())
            info << ", " << extra;
    }
    info << ", \"checks\": {";
    for (auto it = tally.kinds.begin(); it != tally.kinds.end(); ++it)
        info << (it == tally.kinds.begin() ? "" : ", ") << quoted(it->first)
             << ": [" << it->second.attempted << ", " << it->second.failed
             << "]";
    info << "}, \"problems\": [";
    for (std::size_t i = 0; i < tally.problems.size(); ++i)
        info << (i ? ", " : "") << quoted(tally.problems[i]);
    info << "]}}";
    std::cout << info.str() << "\n"
              << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted()
              << ", \"failed\": " << tally.failed()
              << ", \"metrics\": " << metricsJson(opt.trace ? layers : e2e)
              << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
