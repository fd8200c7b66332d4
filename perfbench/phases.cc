#include "phases.hh"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "collector/mrc_collector.hh"
#include "common/json_value.hh"
#include "common/thread_pool.hh"
#include "core/representative.hh"
#include "harness/experiment.hh"
#include "harness/session.hh"
#include "harness/tune.hh"
#include "service/engine_session.hh"
#include "service/request.hh"
#include "timing/gpu_timing.hh"
#include "workloads/workload.hh"

#include "pipeline.hh"
#include "serve_client.hh"

namespace perfbench
{

using namespace gpumech;

// ------------------------------------------------------------------
// Plans
// ------------------------------------------------------------------

namespace
{

const std::vector<std::string> kExplore = {
    "streamcluster_compute_cost", "kmeans_invert_mapping",
    "cfd_step_factor", "sgemm_tiled"};

// Footprints from a few MB to the largest evaluation kernels, so the
// daemon's resident profilers reach hundreds of MB.
const std::vector<std::string> kServe = {
    "srad_kernel1",           "kmeans_invert_mapping",
    "cfd_compute_flux",       "bfs_kernel1",
    "hotspot_calculate_temp", "streamcluster_compute_cost",
    "sgemm_tiled",            "spmv_jds",
    "lbm_stream_collide",     "mri_q_computeQ",
    "transpose_naive",        "bitonic_sort"};

// Compute-bound, coalesced streaming, divergent memory, write-heavy,
// control-divergent and SFU-heavy.
const std::vector<std::string> kValidate = {
    "sgemm_tiled", "vectorAdd",   "transpose_naive",
    "sad_calc_8",  "bfs_kernel2", "mri_q_computeQ"};

} // namespace

Plan
makePlan(const std::string &workload, bool tiny)
{
    Plan p;
    if (workload == "paper_suite") {
        for (const Workload &w : evaluationWorkloads())
            p.cold.push_back(w.name);
        p.explore = kExplore;
        p.l1Kb = {16, 32, 64};
        p.l2Kb = {384, 1536};
        p.tuneDims = {"mshrs", "bw", "l1-kb", "l2-kb"};
        p.serve = kServe;
        p.validate = kValidate;
    } else if (workload == "small_kernels") {
        const std::vector<std::string> small = {"vectorAdd", "sgemm_tiled"};
        p.cold = p.explore = p.serve = p.validate = small;
        p.l1Kb = {16, 64};
        p.l2Kb = {384, 1536};
        p.tuneDims = {"mshrs", "l1-kb", "l2-kb"};
    } else {
        throw std::runtime_error("unknown workload '" + workload + "'");
    }
    if (tiny) {
        // Smoke size: the same code paths on the smallest inputs.
        p.cold = p.explore = p.serve = p.validate = {"vectorAdd"};
        p.l1Kb = {16};
        p.l2Kb = {384};
        p.tuneDims = {"mshrs"};
        p.ladder.clear();
        p.refSeconds = 0.05;
        p.refSegments = 1;
        p.climb = {16000};
        p.rungSeconds = 0.05;
        p.minReps = 2;
    }
    return p;
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
Tally::attempt(const std::string &kind, std::uint64_t count)
{
    kinds[kind].attempted += count;
}

void
Tally::fail(const std::string &kind, const std::string &why,
            std::uint64_t count)
{
    kinds[kind].failed += count;
    if (problems.size() < 8)
        problems.push_back(why);
}

void
Tally::check(const std::string &kind, bool ok, const std::string &why)
{
    attempt(kind);
    if (!ok)
        fail(kind, why);
}

std::uint64_t
Tally::attempted() const
{
    std::uint64_t n = 0;
    for (const auto &[kind, c] : kinds)
        n += c.attempted;
    return n;
}

std::uint64_t
Tally::failed() const
{
    std::uint64_t n = 0;
    for (const auto &[kind, c] : kinds)
        n += c.failed;
    return n;
}

double
Tally::successRatio() const
{
    double ratio = 1.0;
    for (const auto &[kind, c] : kinds) {
        // A failure outside any attempt counts as one.
        double n = static_cast<double>(std::max(c.attempted, c.failed));
        if (n > 0)
            ratio = std::min(ratio, 1.0 - static_cast<double>(c.failed) / n);
    }
    return ratio;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

namespace
{

const HardwareConfig kBase = HardwareConfig::baseline();

std::vector<std::shared_ptr<const KernelTrace>>
generateAll(const std::vector<std::string> &names)
{
    std::vector<std::shared_ptr<const KernelTrace>> out;
    for (const std::string &name : names)
        out.push_back(std::make_shared<const KernelTrace>(
            workloadByName(name).generate(kBase)));
    return out;
}

// ------------------------------------------------------------------
// cold: predictSuite on a fresh session with 2 jobs
// ------------------------------------------------------------------

/** A run-record member listing one metric's per-repetition samples. */
std::string
samplesJson(const char *metric, const std::vector<double> &values)
{
    std::string out = quoted(std::string(metric) + "_reps") + ": [";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + num(values[i]);
    return out + "]";
}

/**
 * The sum over keys (kernels, sweeps) of each key's median time over
 * the run. A slow stretch of a shared host then counts only for the
 * kernels it overlapped, where a median of whole repetitions takes in
 * every kernel of a slowed one.
 */
template <typename Key>
double
sumOfMedians(const std::map<Key, std::vector<double>> &samples)
{
    double sum = 0;
    for (const auto &[key, values] : samples)
        sum += median(values);
    return sum;
}

/** Requests the collector modelled at L1, L2 and DRAM. */
std::array<std::uint64_t, 3>
collectorRequests(const CollectorResult &inputs)
{
    std::array<std::uint64_t, 3> mem{0, 0, 0};
    for (const PcProfile &pc : inputs.pcs) {
        mem[0] += pc.reqCount;
        mem[1] += pc.reqL1Miss;
        mem[2] += pc.reqL2Miss;
    }
    return mem;
}

/** Self time per unit of work of one span kind (ns per instruction). */
double
selfNsPerWork(std::map<std::string, SpanStats> &spans, const char *key)
{
    const SpanStats &s = spans[key];
    return s.work > 0 ? s.selfNs / s.work : 0.0;
}

class ColdPhase : public Phase
{
  public:
    ColdPhase(const Options &opt, const Plan &plan, Tally &tally)
        : opt(opt), tally(tally)
    {
        std::vector<std::string> order = plan.cold;
        shuffle(order, opt.seed ^ 0xc01d);
        for (const std::string &name : order) {
            // The registry's workload, its generation under a span.
            Workload w = workloadByName(name);
            w.generate = [generate = w.generate,
                          name](const HardwareConfig &config) {
                Span s("workloads", "generate", name);
                KernelTrace kernel = generate(config);
                s.setWork(static_cast<double>(kernel.totalInsts()));
                return kernel;
            };
            ws.push_back(std::move(w));
        }
        insts.resize(ws.size());
    }

    const char *name() const override { return "cold"; }
    int threads() const override { return 2; }

    void
    prepare() override
    {
        // Untimed first pass: each prediction against runGpuMech on the
        // same trace, the sizes and modelled counts, and the probes of
        // representative selection and evaluation on its profilers.
        EvalSession session;
        first = predict(session, false, 0);
        for (std::size_t i = 0; i < ws.size(); ++i) {
            const std::string &kernel = ws[i].name;
            tally.check("cold.run", first[i].ok(),
                        "cold: " + kernel + ": " + first[i].status.message());
            if (!first[i].ok())
                continue;
            std::shared_ptr<const KernelTrace> trace =
                session.cache.trace(ws[i], kBase);
            insts[i] = static_cast<double>(trace->totalInsts());
            allInsts += insts[i];
            allBytes += static_cast<double>(trace->memoryFootprint());
            auto mem = collectorRequests(*session.cache.inputs(ws[i], kBase));
            for (int m = 0; m < 3; ++m)
                requests[m] += mem[m];
            tally.check("cold.reference",
                        sameResult(first[i].result, runGpuMech(*trace, kBase)),
                        "cold: " + kernel + " differs from runGpuMech");

            ProfiledKernel pk = session.cache.profiler(ws[i], kBase);
            tracer().enabled = opt.trace;
            std::uint32_t rep = [&] {
                Span s("core", "select", kernel);
                return selectRepresentative(pk.profiler->profiles(), kBase,
                                            RepSelection::Clustering, 2);
            }();
            GpuMechResult r = [&] {
                Span s("core", "contention", kernel);
                return pk.profiler->evaluate(SchedulingPolicy::RoundRobin);
            }();
            tracer().enabled = false;
            tally.check("cold.probe",
                        rep == pk.profiler->repIndex() &&
                            sameResult(r, first[i].result),
                        "cold: " + kernel + " probe differs");
        }
    }

    void
    step(int rep, bool traced) override
    {
        EvalSession session;
        std::int64_t t0 = nowNs();
        std::vector<KernelPrediction> preds = predict(session, traced, rep);
        if (!traced)
            predictS.push_back(secondsSince(t0));
        for (std::size_t i = 0; i < ws.size(); ++i) {
            tally.check("cold.repeat",
                        preds[i].ok() && first[i].ok() &&
                            sameResult(preds[i].result, first[i].result),
                        "cold: " + ws[i].name + " not repeatable");
        }
    }

    void
    report(std::vector<Metric> &e2e, std::vector<Metric> &layers,
           std::map<std::string, SpanStats> &spans) override
    {
        e2e.push_back({"cold_predict_s", "s", median(predictS)});
        double self = 0;
        for (const auto &[layer, ns] : times.layerNs)
            self += layer == "bench" ? 0 : ns;
        layers.insert(
            layers.end(),
            {{"workloads.generate_ns_per_inst", "ns/inst",
              selfNsPerWork(spans, "workloads.generate")},
             {"trace.bytes_per_inst", "B/inst",
              allInsts > 0 ? allBytes / allInsts : 0},
             {"collector.collect_ns_per_inst", "ns/inst",
              selfNsPerWork(spans, "collector.collect")},
             {"core.profile_ns_per_inst", "ns/inst",
              selfNsPerWork(spans, "core.profile")},
             {"core.select_us", "us", median(spans["core.select"].durNs) / 1e3},
             {"core.contention_us", "us",
              median(spans["core.contention"].durNs) / 1e3},
             {"harness.parallel_efficiency", "ratio",
              times.capacityNs > 0 ? self / times.capacityNs : 0},
             {"mem.collector_l1_requests", "count",
              static_cast<double>(requests[0])},
             {"mem.collector_l2_requests", "count",
              static_cast<double>(requests[1])},
             {"mem.collector_dram_requests", "count",
              static_cast<double>(requests[2])}});
    }

    std::uint64_t
    digest() const override
    {
        // Canonical (name) order, whatever order the seed chose.
        std::map<std::string, const KernelPrediction *> byName;
        for (const KernelPrediction &p : first)
            byName[p.kernel] = &p;
        Digest d;
        for (const auto &[kernel, p] : byName)
            addResult(d, p->result);
        return d.value();
    }

    std::string
    info() const override
    {
        return samplesJson("cold_predict_s", predictS);
    }

  private:
    /**
     * predictSuite on @p session with 2 jobs, as a CLI run pays it.
     * Traced, the lookups predictSuite makes through the session cache
     * come first, one layer at a time so each has a span; predictSuite
     * then finds every profiler built and only evaluates. Both ways run
     * the same functions on the same inputs once each.
     */
    std::vector<KernelPrediction>
    predict(EvalSession &session, bool traced, int rep)
    {
        session.jobs = 2;
        std::vector<std::size_t> perm(ws.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            perm[i] = i;
        perm = repOrder(perm, opt.seed ^ 0xc01d, rep);
        std::vector<Workload> batch;
        for (std::size_t i : perm)
            batch.push_back(ws[i]);
        if (traced) {
            std::uint64_t parent = currentSpan();
            parallelFor(
                batch.size(),
                [&](std::size_t j) {
                    std::size_t i = perm[j];
                    const Workload &w = ws[i];
                    Span task("bench", "cold.kernel", w.name, 0, parent);
                    {
                        Span s("collector", "collect", w.name, insts[i]);
                        session.cache.inputs(w, kBase);
                    }
                    Span s("core", "profile", w.name, insts[i]);
                    session.cache.profiler(w, kBase);
                },
                1, session.jobs);
        }
        std::vector<KernelPrediction> preds;
        {
            Span s("harness", "predict_suite");
            preds = predictSuite(session, batch, kBase);
        }
        // Back in ws order.
        std::vector<KernelPrediction> out(preds.size());
        for (std::size_t j = 0; j < preds.size(); ++j)
            out[perm[j]] = std::move(preds[j]);
        return out;
    }

    const Options &opt;
    Tally &tally;
    std::vector<Workload> ws; //!< in the seed's order (checks and probes)
    std::vector<KernelPrediction> first;
    std::vector<double> insts, predictS;
    double allInsts = 0, allBytes = 0;
    std::array<std::uint64_t, 3> requests{0, 0, 0};
};

// ------------------------------------------------------------------
// explore: rerun-mode geometry sweeps, then one MRC tune per kernel
// ------------------------------------------------------------------

HardwareConfig
withGeometry(std::uint32_t l1_kb, std::uint32_t l2_kb)
{
    HardwareConfig c = kBase;
    c.l1SizeBytes = l1_kb * 1024;
    c.l2SizeBytes = l2_kb * 1024;
    return c;
}

class ExplorePhase : public Phase
{
  public:
    ExplorePhase(const Options &opt, const Plan &plan, Tally &tally)
        : opt(opt), plan(plan), tally(tally)
    {
        for (std::size_t k = 0; k < plan.explore.size(); ++k) {
            kernels.push_back(k);
            for (std::uint32_t l2 : plan.l2Kb)
                sweeps.emplace_back(k, l2);
        }
    }

    const char *name() const override { return "explore"; }
    // The largest share: two end-to-end metrics from long repetitions
    // whose time swings most from one to the next.
    double share() const override { return 3; }

    void
    setup() override
    {
        traces = generateAll(plan.explore);
        // Sessions reach traces through their cache; these workloads
        // hand it a copy of the set-up trace instead of generating it
        // again.
        wrapped.clear();
        for (std::size_t k = 0; k < traces.size(); ++k) {
            Workload w = workloadByName(plan.explore[k]);
            std::shared_ptr<const KernelTrace> t = traces[k];
            w.generate = [t](const HardwareConfig &) { return *t; };
            wrapped.push_back(std::move(w));
        }
    }

    void
    step(int rep, bool traced) override
    {
        sweep(rep, traced);
        tune(rep, traced);
    }

    void
    finish() override
    {
        // Each sweep cell equals an evaluation at that geometry on a
        // profiler built outside any cache.
        for (auto [k, l2] : sweeps) {
            GpuMechProfiler direct(*traces[k], withGeometry(baseL1Kb(), l2));
            for (std::uint32_t l1 : plan.l1Kb) {
                tally.check("explore.sweep_check",
                            sameResult(firstCells[{k, l2, l1}],
                                       direct.evaluateAt(
                                           withGeometry(l1, l2),
                                           SchedulingPolicy::RoundRobin)),
                            "explore: " + plan.explore[k] +
                                " sweep cell differs from a direct "
                                "evaluation");
            }
        }
        // Each tune's best point equals a direct evaluation there, on
        // a fresh reuse-distance profile; the profile also serves the
        // probe of deriveCollectorResult at every sweep geometry.
        for (const auto &[k, best] : firstBest) {
            auto prof = std::make_shared<const MrcProfile>(
                collectMrcProfile(*traces[k], kBase, 1.0));
            GpuMechProfiler direct(*traces[k], kBase,
                                   RepSelection::Clustering, 2, 1, nullptr,
                                   prof);
            GpuMechResult d = direct.evaluateAt(best.config, best.policy);
            tally.check("explore.tune_best",
                        std::memcmp(&d.cpi, &best.cpi, sizeof d.cpi) == 0,
                        "explore: " + plan.explore[k] +
                            " tune best differs from a direct evaluation");
            tracer().enabled = opt.trace;
            for (std::uint32_t l2 : plan.l2Kb) {
                for (std::uint32_t l1 : plan.l1Kb) {
                    Span s("collector", "derive", plan.explore[k]);
                    CollectorResult r = deriveCollectorResult(
                        *prof, *traces[k], withGeometry(l1, l2));
                    (void)r;
                }
            }
            tracer().enabled = false;
        }
    }

    void
    report(std::vector<Metric> &e2e, std::vector<Metric> &layers,
           std::map<std::string, SpanStats> &spans) override
    {
        // Per-sweep and per-kernel medians; see sumOfMedians.
        double cells = static_cast<double>(sweeps.size() * plan.l1Kb.size());
        e2e.push_back(
            {"sweep_cells_per_s", "1/s", cells / sumOfMedians(sweepS)});
        e2e.push_back({"tune_s", "s", sumOfMedians(tuneK)});
        const SpanStats &tuneSpans = spans["harness.tune"];
        layers.insert(
            layers.end(),
            {{"core.sweep_cell_us", "us",
              median(spans["core.sweep_cell"].durNs) / 1e3},
             {"collector.mrc_ns_per_inst", "ns/inst",
              selfNsPerWork(spans, "collector.mrc")},
             {"collector.derive_us", "us",
              median(spans["collector.derive"].durNs) / 1e3},
             {"harness.tune_evaluations", "count",
              static_cast<double>(evaluations)},
             {"harness.tune_self_ms", "ms",
              tuneSpans.selfNs /
                  std::max<double>(
                      1, static_cast<double>(tuneSpans.durNs.size())) /
                  1e6}});
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (const auto &[cell, r] : firstCells)
            addResult(d, r);
        for (const auto &[k, best] : firstBest)
            d.add(best.cpi);
        return d.value();
    }

    std::string
    info() const override
    {
        return samplesJson("sweep_cells_per_s", cellsPerS) + ", " +
               samplesJson("tune_s", tuneS);
    }

  private:
    /** A sweep's base L1 size: the baseline's, as the CLI's default. */
    static std::uint32_t baseL1Kb() { return kBase.l1SizeBytes / 1024; }

    /** A fresh session whose trace cache holds the set-up traces. */
    void
    fill(EvalSession &session)
    {
        session.jobs = 2;
        for (const Workload &w : wrapped)
            session.cache.trace(w, kBase);
    }

    /**
     * Rerun-mode L1 sweeps, one per kernel and L2 size, on the path
     * the sweep verb takes: the profiler at the base geometry from the
     * session cache, then evaluateAt at each L1 size, which re-runs the
     * collector there and re-profiles only the representative warp.
     */
    void
    sweep(int rep, bool traced)
    {
        EvalSession session;
        fill(session);
        std::vector<GpuMechResult> results;
        bool timed = !traced && rep > 0;
        auto cells = repOrder(sweeps, opt.seed ^ 0xe4b1, rep);
        std::int64_t t0 = nowNs();
        for (auto [k, l2] : cells) {
            std::int64_t c0 = nowNs();
            const Workload &w = wrapped[k];
            HardwareConfig base = withGeometry(baseL1Kb(), l2);
            double insts = static_cast<double>(traces[k]->totalInsts());
            {
                Span s("collector", "collect", w.name, insts);
                session.cache.inputs(w, base);
            }
            ProfiledKernel pk = [&] {
                Span s("core", "profile", w.name, insts);
                return session.cache.profiler(w, base);
            }();
            for (std::uint32_t l1 : plan.l1Kb) {
                Span s("core", "sweep_cell", w.name);
                results.push_back(pk.profiler->evaluateAt(
                    withGeometry(l1, l2), SchedulingPolicy::RoundRobin));
            }
            if (timed)
                sweepS[{k, l2}].push_back(secondsSince(c0));
        }
        double sweepS = secondsSince(t0);
        if (timed)
            cellsPerS.push_back(static_cast<double>(results.size()) / sweepS);
        std::size_t i = 0;
        for (auto [k, l2] : cells) {
            for (std::uint32_t l1 : plan.l1Kb) {
                auto cell = std::make_tuple(k, l2, l1);
                if (rep == 0)
                    firstCells[cell] = results[i];
                else
                    tally.check("explore.sweep_repeat",
                                sameResult(results[i], firstCells[cell]),
                                "explore: sweep cell not repeatable");
                ++i;
            }
        }
    }

    /**
     * One MRC-mode tune per kernel, as the tune verb runs it, on a
     * fresh session. The reuse-distance profile is fetched first so
     * that its cost shows as its own span.
     */
    void
    tune(int rep, bool traced)
    {
        EvalSession session;
        fill(session);
        double total = 0;
        for (std::size_t k : repOrder(kernels, opt.seed ^ 0x7e4e, rep)) {
            const Workload &w = wrapped[k];
            TuneOptions to = tuneOptions(k);
            std::int64_t t0 = nowNs();
            {
                Span s("collector", "mrc", w.name,
                       static_cast<double>(traces[k]->totalInsts()));
                session.cache.mrc(w, kBase, to.mrcRate);
            }
            Result<TuneResult> res = [&] {
                Span s("harness", "tune", w.name);
                return runTune(session, w, kBase, to);
            }();
            double seconds = secondsSince(t0);
            total += seconds;
            if (!traced && rep > 0)
                tuneK[k].push_back(seconds);
            tally.check("explore.tune", res.ok(),
                        "explore: tune failed: " +
                            (res.ok() ? std::string() : res.status().message()));
            if (!res.ok())
                continue;
            if (rep == 0) {
                firstBest[k] = res.value().best;
                evaluations += res.value().evaluations;
            } else {
                tally.check("explore.tune_repeat",
                            std::memcmp(&res.value().best.cpi,
                                        &firstBest[k].cpi,
                                        sizeof firstBest[k].cpi) == 0,
                            "explore: tune not repeatable");
            }
        }
        if (!traced && rep > 0)
            tuneS.push_back(total);
    }

    /**
     * The search is the same in every repetition and every run:
     * default ladders and restarts, and a tune seed fixed per kernel,
     * so the workload seed changes only the order of work and every
     * repetition times the same number of evaluations. One job: a
     * second one does not shorten these searches, and thread handoffs
     * on a shared host only add noise.
     */
    TuneOptions
    tuneOptions(std::size_t k) const
    {
        TuneOptions to;
        for (const std::string &d : plan.tuneDims)
            to.dims.push_back(TuneDimension{d, defaultTuneValues(d)});
        to.seed = mix(k + 1);
        to.jobs = 1;
        return to;
    }

    const Options &opt;
    const Plan &plan;
    Tally &tally;
    std::vector<std::pair<std::size_t, std::uint32_t>> sweeps; //!< (k, L2)
    std::vector<std::size_t> kernels;
    std::vector<std::shared_ptr<const KernelTrace>> traces;
    std::vector<Workload> wrapped;
    /** Keyed (kernel, L2 KB, L1 KB). */
    std::map<std::tuple<std::size_t, std::uint32_t, std::uint32_t>,
             GpuMechResult>
        firstCells;
    std::map<std::size_t, TunePoint> firstBest;
    std::uint64_t evaluations = 0;
    std::vector<double> cellsPerS, tuneS; //!< per repetition (run record)
    std::map<std::pair<std::size_t, std::uint32_t>, std::vector<double>>
        sweepS; //!< seconds per (kernel, L2) sweep
    std::map<std::size_t, std::vector<double>> tuneK; //!< seconds per tune
};

// ------------------------------------------------------------------
// serve: open-loop ladder against gpumech_serve
// ------------------------------------------------------------------

std::string
modelLine(const std::string &kernel, unsigned mshrs, unsigned bw)
{
    return "{\"cmd\":\"model\",\"kernel\":\"" + kernel +
           "\",\"config\":{\"mshrs\":" + std::to_string(mshrs) +
           ",\"bw\":" + std::to_string(bw) + "}}";
}

std::string
sweepLine(const std::string &kernel, const std::string &param,
          const std::string &values)
{
    return "{\"cmd\":\"sweep\",\"kernel\":\"" + kernel +
           "\",\"param\":\"" + param + "\",\"values\":[" + values + "]}";
}

struct CacheCounts
{
    double hits[3] = {0, 0, 0}, misses[3] = {0, 0, 0};
};

/** Session cache counters of the daemon, from its stats verb. */
CacheCounts
daemonCacheCounts(Connection &c)
{
    Result<JsonValue> doc = parseJson(c.roundTrip("{\"cmd\":\"stats\"}"));
    const JsonValue *out = doc.ok() ? doc.value().find("output") : nullptr;
    if (!out || !out->isString())
        throw std::runtime_error("bad stats response");
    Result<JsonValue> stats = parseJson(out->string());
    const JsonValue *cache =
        stats.ok() ? stats.value().find("cache") : nullptr;
    if (!cache)
        throw std::runtime_error("bad stats payload");
    CacheCounts cc;
    const char *names[3] = {"trace", "collector", "profiler"};
    for (int i = 0; i < 3; ++i) {
        const JsonValue *h = cache->find(std::string(names[i]) + "_hits");
        const JsonValue *m = cache->find(std::string(names[i]) + "_misses");
        if (!h || !m || !h->isNumber() || !m->isNumber())
            throw std::runtime_error("bad stats cache counters");
        cc.hits[i] = h->number();
        cc.misses[i] = m->number();
    }
    return cc;
}

class ServePhase : public Phase
{
  public:
    ServePhase(const Options &opt, const Plan &plan, Tally &tally)
        : opt(opt), plan(plan), tally(tally)
    {
        std::vector<std::size_t> models, sweeps;
        for (const std::string &k : plan.serve) {
            for (unsigned m : {16u, 32u, 64u, 128u}) {
                for (unsigned bw : {96u, 192u, 384u}) {
                    models.push_back(lines.size());
                    lines.push_back(modelLine(k, m, bw));
                }
            }
            sweeps.push_back(lines.size());
            lines.push_back(sweepLine(k, "mshrs", "16,32,64,128"));
            sweeps.push_back(lines.size());
            lines.push_back(sweepLine(k, "bw", "96,192,384"));
        }
        // About 90% model and 10% sweep requests, reordered by the seed.
        for (std::size_t i = 0; i < 2000; ++i)
            order.push_back(i % 10 == 9 ? sweeps[(i / 10) % sweeps.size()]
                                        : models[i % models.size()]);
        shuffle(order, opt.seed ^ 0x5e4e);
    }

    const char *name() const override { return "serve"; }
    // Its metrics are per-layer only, and one repetition holds
    // thousands of timed requests.
    double share() const override { return 0.5; }
    int
    minReps(const Plan &plan) const override
    {
        return std::min(plan.minReps, 2);
    }

    void
    setup() override
    {
        a.reset();
        b.reset();
        daemon.reset();
        std::string sock = opt.runDir + "/gm-" +
                           std::to_string(::getpid()) + ".sock";
        daemon = std::make_unique<Daemon>(opt.serveBin, sock);
        a = std::make_unique<Connection>(sock);
        b = std::make_unique<Connection>(sock);
        // Pre-warm: every distinct request once, closed loop.
        for (const std::string &line : lines) {
            if (!summarize(a->roundTrip(line)).ok)
                throw std::runtime_error("pre-warm request failed: " + line);
        }
    }

    /**
     * Warm the in-process engine the same way, off the clock, then
     * probe a warm evaluateAt once per distinct model request.
     */
    void
    prepare() override
    {
        for (const std::string &line : lines) {
            Result<Request> req = requestFromJson(line);
            if (!req.ok() || !engine.handle(req.value()).ok())
                throw std::runtime_error("in-process warm-up failed: " + line);
        }
        tracer().enabled = opt.trace;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            Result<Request> req = requestFromJson(lines[i]);
            if (req.value().verb != Verb::Model)
                continue;
            ProfiledKernel pk = engine.session().cache.profiler(
                workloadByName(req.value().kernel), req.value().config);
            Span s("core", "evaluate_at", "line " + std::to_string(i));
            GpuMechResult r = pk.profiler->evaluateAt(req.value().config,
                                                      req.value().policy);
            (void)r;
        }
        tracer().enabled = false;
    }

    void
    step(int rep, bool traced) override
    {
        for (double rate : plan.ladder)
            rung(rate, plan.rungSeconds, true, rep);
        for (int s = 0; s < plan.refSegments; ++s) {
            RungResult r = rung(plan.refRate, plan.refSeconds, true, rep);
            p50.push_back(percentile(r.latencyUs, 0.5));
            p95.push_back(percentile(r.latencyUs, 0.95));
            p99.push_back(percentile(r.latencyUs, 0.99));
            samples += r.latencyUs.size();
            wait.insert(wait.end(), r.waitUs.begin(), r.waitUs.end());
            late.insert(late.end(), r.lateUs.begin(), r.lateUs.end());
        }
        // The last rung saturates the daemon; its goodput is the
        // highest rate served.
        for (double rate : plan.climb) {
            RungResult r = rung(rate, plan.rungSeconds, false, rep);
            if (rate == plan.climb.back())
                goodput.push_back(static_cast<double>(r.ok) / r.elapsedS);
        }
        inProcess(traced);
    }

    void
    finish() override
    {
        cache = daemonCacheCounts(*a);
        daemonRssMb = processPeakRssMb(daemon->pid());
        a.reset();
        b.reset();
        tally.check("serve.drain", daemon->stop(),
                    "serve: daemon did not drain cleanly");

        // Each distinct request's daemon response carries the report
        // EngineSession::handle gives for it in this process.
        for (const auto &[li, line] : firstResponse) {
            Result<Request> req = requestFromJson(lines[li]);
            Response resp = engine.handle(req.value());
            Result<JsonValue> doc = parseJson(line);
            const JsonValue *output =
                doc.ok() ? doc.value().find("output") : nullptr;
            tally.check("serve.byte_check",
                        resp.ok() && output && output->isString() &&
                            output->string() == resp.output,
                        "serve: daemon response differs from handle()");
            outputs.add(resp.output);
        }
    }

    void
    report(std::vector<Metric> &, std::vector<Metric> &layers,
           std::map<std::string, SpanStats> &spans) override
    {
        // Over the daemon's life: the pre-warm fills the cache and the
        // ladder's warm requests hit it.
        const char *names[3] = {"trace", "collector", "profiler"};
        for (int i = 0; i < 3; ++i) {
            double hits = cache.hits[i];
            double total = hits + cache.misses[i];
            layers.push_back({std::string("harness.") + names[i] +
                                  "_hit_ratio",
                              "ratio", total > 0 ? hits / total : 0});
            layers.push_back({std::string("harness.") + names[i] +
                                  "_lookups",
                              "count", total});
        }
        auto medUs = [&](const char *key) {
            return median(spans[key].durNs) / 1e3;
        };
        layers.insert(
            layers.end(),
            {{"core.evaluate_at_us", "us", medUs("core.evaluate_at")},
             {"service.warm_request_us", "us", median(warmUs)},
             {"service.parse_us", "us", medUs("service.parse")},
             {"service.handle_us", "us", medUs("service.handle")},
             {"service.encode_us", "us", medUs("service.encode")},
             {"service.latency_p50_us", "us", median(p50)},
             {"service.latency_p95_us", "us", median(p95)},
             {"service.latency_p99_us", "us", median(p99)},
             {"service.goodput_rps", "1/s", median(goodput)},
             {"service.wait_us", "us", median(wait)},
             {"service.generator_late_us", "us", percentile(late, 0.99)}});
    }

    std::uint64_t digest() const override { return outputs.value(); }

    std::string
    info() const override
    {
        return "\"serve_ref_rate\": " + num(plan.refRate) +
               ", \"serve_ref_segments\": " + std::to_string(p50.size()) +
               ", \"serve_ref_samples\": " + std::to_string(samples) +
               ", \"serve_retries\": " + std::to_string(retries) +
               ", \"serve_ladder\": " + quoted(ladderNote.str()) +
               ", \"daemon_peak_rss_mb\": " + num(daemonRssMb);
    }

    double childPeakRssMb() const override { return daemonRssMb; }

  private:
    /**
     * One open-loop rung. Up to the reference rate a shed request is
     * retried (and only an error fails); the climb above it probes
     * overload, where a shed response is the daemon's expected answer.
     */
    RungResult
    rung(double rate, double secs, bool retry, int rep)
    {
        auto count = static_cast<std::size_t>(rate * secs);
        std::vector<std::size_t> sched(order);
        std::rotate(sched.begin(),
                    sched.begin() + static_cast<long>(offset % sched.size()),
                    sched.end());
        offset += count;
        RungResult r;
        {
            Span s("bench", "serve.open_loop",
                   std::to_string(static_cast<long>(rate)));
            r = runOpenLoop({a.get(), b.get()}, lines, sched, rate, count,
                            retry, firstResponse);
        }
        tally.attempt("serve.send", r.sent);
        if (r.errors)
            tally.fail("serve.send",
                       "serve: " + std::to_string(r.errors) +
                           " failed at " +
                           std::to_string(static_cast<long>(rate)) + " req/s",
                       r.errors);
        retries += r.retries;
        if (rep == 1) {
            ladderNote << static_cast<long>(rate) << ": p99_us "
                       << static_cast<long>(percentile(r.latencyUs, 0.99))
                       << " retried " << r.retries << " shed " << r.shed
                       << " ok_per_s "
                       << static_cast<long>(static_cast<double>(r.ok) /
                                            r.elapsedS)
                       << "; ";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return r;
    }

    /**
     * The same schedule through the warm engine in this process:
     * requestFromJson, EngineSession::handle and responseToJsonLine per
     * request.
     */
    void
    inProcess(bool traced)
    {
        std::vector<double> us;
        us.reserve(order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            std::string id = "r" + std::to_string(i);
            std::int64_t t0 = nowNs();
            Result<Request> req = [&] {
                Span s("service", "parse", id);
                return requestFromJson(lines[order[i]]);
            }();
            Response resp = [&] {
                Span s("service", "handle", id);
                return engine.handle(req.value());
            }();
            std::string encoded = [&] {
                Span s("service", "encode", id);
                return responseToJsonLine(resp, "", i, true);
            }();
            us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            tally.check("serve.in_process", resp.ok(),
                        "serve: in-process request failed");
        }
        // The mean of the middle 80%: per-kernel costs cluster, so a
        // median over the mix jumps between clusters, and a plain mean
        // takes in the odd request the host stalls for milliseconds.
        std::sort(us.begin(), us.end());
        std::size_t cut = us.size() / 10;
        double total = 0;
        for (std::size_t i = cut; i < us.size() - cut; ++i)
            total += us[i];
        if (!traced && us.size() > 2 * cut)
            warmUs.push_back(total / static_cast<double>(us.size() - 2 * cut));
    }

    const Options &opt;
    const Plan &plan;
    Tally &tally;
    std::vector<std::string> lines; //!< distinct requests
    std::vector<std::size_t> order; //!< the schedule over lines
    std::size_t offset = 0;
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Connection> a, b;
    EngineSession engine; //!< the in-process twin of the daemon
    CacheCounts cache;
    std::map<std::size_t, std::string> firstResponse;
    std::vector<double> p50, p95, p99, goodput, wait, late, warmUs;
    std::size_t samples = 0;
    std::ostringstream ladderNote;
    std::size_t retries = 0;
    double daemonRssMb = 0;
    Digest outputs;
};

// ------------------------------------------------------------------
// validate: the model against the GpuTiming oracle, RR and GTO
// ------------------------------------------------------------------

class ValidatePhase : public Phase
{
  public:
    ValidatePhase(const Options &opt, const Plan &plan, Tally &tally)
        : plan(plan), tally(tally), seed(opt.seed ^ 0x0a11),
          model(plan.validate.size()),
          oracle(plan.validate.size())
    {
        for (std::size_t k = 0; k < plan.validate.size(); ++k)
            order.push_back(k);
    }

    const char *name() const override { return "validate"; }
    // Two host-time metrics from repetitions of several seconds.
    double share() const override { return 1.5; }

    void setup() override { traces = generateAll(plan.validate); }

    void
    step(int rep, bool traced) override
    {
        double modelNs = 0, oracleNs = 0, insts = 0;
        bool timed = !traced && rep > 0;
        for (std::size_t k : repOrder(order, seed, rep)) {
            double kernelModelNs = 0, kernelOracleNs = 0;
            const KernelTrace &trace = *traces[k];
            const std::string &name = plan.validate[k];
            std::array<GpuMechResult, 2> m;
            std::int64_t t0 = nowNs();
            {
                auto profiler = profileKernel(trace, kBase, name);
                for (int i = 0; i < 2; ++i) {
                    Span s("core", "contention", name);
                    m[i] = profiler->evaluate(kPolicies[i]);
                }
            }
            kernelModelNs = static_cast<double>(nowNs() - t0);
            std::array<TimingStats, 2> o;
            for (int i = 0; i < 2; ++i) {
                std::int64_t u0 = nowNs();
                {
                    Span s("timing", "run", name,
                           static_cast<double>(trace.totalInsts()));
                    o[i] = GpuTiming(trace, kBase, kPolicies[i]).run();
                }
                kernelOracleNs += static_cast<double>(nowNs() - u0);
                insts += static_cast<double>(o[i].totalInsts);
            }
            modelNs += kernelModelNs;
            oracleNs += kernelOracleNs;
            if (timed) {
                modelK[k].push_back(kernelModelNs / 1e9);
                oracleK[k].push_back(kernelOracleNs / 1e9);
            }
            if (rep == 0) {
                model[k] = m;
                oracle[k] = o;
                continue;
            }
            for (int i = 0; i < 2; ++i) {
                tally.check("validate.repeat",
                            sameResult(m[i], model[k][i]) &&
                                o[i].totalCycles == oracle[k][i].totalCycles,
                            "validate: " + name + " not repeatable");
            }
        }
        if (timed) {
            allInsts = insts;
            minstPerS.push_back(insts / (oracleNs / 1e9) / 1e6);
            speedup.push_back(oracleNs / modelNs);
        }
    }

    void
    finish() override
    {
        for (std::size_t k = 0; k < plan.validate.size(); ++k) {
            for (int i = 0; i < 2; ++i) {
                GpuMechOptions go;
                go.policy = kPolicies[i];
                tally.check("validate.reference",
                            sameResult(model[k][i],
                                       runGpuMech(*traces[k], kBase, go)),
                            "validate: " + plan.validate[k] +
                                " differs from runGpuMech");
            }
        }
    }

    void
    report(std::vector<Metric> &e2e, std::vector<Metric> &layers,
           std::map<std::string, SpanStats> &spans) override
    {
        // Accuracy and exact counts in the canonical kernel order.
        double err = 0;
        std::uint64_t l1 = 0, l2 = 0, dram = 0;
        for (std::size_t k = 0; k < plan.validate.size(); ++k) {
            for (int i = 0; i < 2; ++i) {
                double o = oracle[k][i].cpi();
                err += std::fabs(model[k][i].cpi - o) / o * 100.0;
                l1 += oracle[k][i].l1Accesses;
                l2 += oracle[k][i].l2Accesses;
                dram += oracle[k][i].dramReads;
            }
        }
        // Per-kernel medians; see sumOfMedians.
        double oracleS = sumOfMedians(oracleK);
        e2e.push_back({"oracle_minst_per_s", "Minst/s",
                       oracleS > 0 ? allInsts / oracleS / 1e6 : 0});
        e2e.push_back({"model_speedup_x", "x",
                       oracleS / std::max(sumOfMedians(modelK), 1e-12)});
        e2e.push_back(
            {"model_cpi_error_pct", "%",
             err / (2.0 * static_cast<double>(plan.validate.size()))});
        layers.insert(
            layers.end(),
            {{"timing.sim_ns_per_inst", "ns/inst",
              selfNsPerWork(spans, "timing.run")},
             {"mem.l1_accesses", "count", static_cast<double>(l1)},
             {"mem.l2_accesses", "count", static_cast<double>(l2)},
             {"mem.dram_reads", "count", static_cast<double>(dram)}});
    }

    std::uint64_t
    digest() const override
    {
        Digest d;
        for (std::size_t k = 0; k < plan.validate.size(); ++k) {
            for (int i = 0; i < 2; ++i) {
                addResult(d, model[k][i]);
                d.add(oracle[k][i].totalCycles);
            }
        }
        return d.value();
    }

    std::string
    info() const override
    {
        return samplesJson("oracle_minst_per_s", minstPerS) + ", " +
               samplesJson("model_speedup_x", speedup);
    }

  private:
    static constexpr SchedulingPolicy kPolicies[2] = {
        SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThenOldest};

    const Plan &plan;
    Tally &tally;
    std::uint64_t seed;
    std::vector<std::size_t> order;
    std::vector<std::shared_ptr<const KernelTrace>> traces;
    std::vector<std::array<GpuMechResult, 2>> model;
    std::vector<std::array<TimingStats, 2>> oracle;
    std::vector<double> minstPerS, speedup; //!< per repetition (run record)
    std::map<std::size_t, std::vector<double>> modelK, oracleK; //!< seconds
    double allInsts = 0; //!< oracle warp-instructions per repetition
};

} // namespace

std::vector<std::unique_ptr<Phase>>
makePhases(const Options &opt, const Plan &plan, Tally &tally)
{
    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(std::make_unique<ColdPhase>(opt, plan, tally));
    phases.push_back(std::make_unique<ExplorePhase>(opt, plan, tally));
    phases.push_back(std::make_unique<ServePhase>(opt, plan, tally));
    phases.push_back(std::make_unique<ValidatePhase>(opt, plan, tally));
    return phases;
}

} // namespace perfbench
