/**
 * @file
 * Serving-layer bench: cold-start cost vs warm steady state.
 *
 * The engine/front-end split exists so a long-lived service amortizes
 * input building (trace generation, collection, per-warp profiling)
 * across requests. This bench measures that contract end to end:
 *
 *  1. cold start — first `model` request on a fresh EngineSession,
 *     which must build every input stage;
 *  2. warm repeats — the same request against the warm session. Every
 *     repeat is asserted model-only (zero trace/collector/profiler
 *     cache misses in the per-response counters) and bit-identical to
 *     the cold output before its latency counts. Reported as
 *     p50/p99/mean over many repeats;
 *  3. sustained daemon throughput — a JSON-lines batch cycling over
 *     the micro suite at two configs, driven through serveFds over a
 *     pipe pair (gpumech_serve's stdin mode: the connection
 *     supervisor's intake, admission, dispatch and ordered writer,
 *     including request parsing and response serialization) on a
 *     pre-warmed engine.
 *
 * Results go to stdout as a table and to BENCH_serve.json (override
 * with --out) so the perf trajectory is tracked across PRs.
 *
 * Options: --warm N (warm repeats, default 200)
 *          --batch N (sustained-throughput requests, default 200)
 *          --out FILE (JSON output path, default BENCH_serve.json)
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "service/engine_session.hh"
#include "service/request.hh"
#include "service/supervisor.hh"

using namespace gpumech;

namespace
{

using clock_type = std::chrono::steady_clock;

double
toMs(clock_type::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    std::size_t at = static_cast<std::size_t>(
        (sorted.size() - 1) * p / 100.0);
    return sorted[at];
}

Request
modelRequest(const std::string &kernel)
{
    Request req;
    req.verb = Verb::Model;
    req.kernel = kernel;
    return req;
}

/** Fails the bench unless the response was served model-only. */
void
assertModelOnly(const Response &resp, const char *what)
{
    if (!resp.ok())
        fatal(msg(what, " failed: ", resp.status.toString()));
    if (resp.stats.traceMisses != 0 ||
        resp.stats.collectorMisses != 0 ||
        resp.stats.profilerMisses != 0) {
        fatal(msg(what, " rebuilt inputs: warm repeats must be "
                        "model-only (trace ",
                  resp.stats.traceMisses, ", collector ",
                  resp.stats.collectorMisses, ", profiler ",
                  resp.stats.profilerMisses, " misses)"));
    }
}

/**
 * Serve @p batch through serveFds over a pipe pair. A feeder thread
 * writes the batch and a drainer thread reads the responses, because
 * either side can exceed the pipe buffer.
 */
SupervisorSummary
serveBatch(EngineSession &engine, const std::string &batch,
           const SupervisorOptions &options)
{
    int in_pipe[2], out_pipe[2];
    if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0)
        fatal("pipe() failed");
    std::thread feeder([&] {
        std::size_t done = 0;
        while (done < batch.size()) {
            ssize_t n = ::write(in_pipe[1], batch.data() + done,
                                batch.size() - done);
            if (n <= 0)
                break;
            done += static_cast<std::size_t>(n);
        }
        ::close(in_pipe[1]);
    });
    std::thread drainer([&] {
        char chunk[1 << 16];
        while (::read(out_pipe[0], chunk, sizeof chunk) > 0) {
        }
    });
    resetServeDrain();
    SupervisorSummary summary =
        serveFds(engine, in_pipe[0], out_pipe[1], options);
    ::close(out_pipe[1]);
    feeder.join();
    drainer.join();
    ::close(in_pipe[0]);
    ::close(out_pipe[0]);
    return summary;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    unsigned warm_reps = args.getUint("warm", 200);
    unsigned batch_n = args.getUint("batch", 200);
    std::string out_path = args.get("out", "BENCH_serve.json");

    std::cout << "=== Serving layer: cold start vs warm steady "
                 "state ===\n";
    std::cout << "hardware threads: "
              << std::thread::hardware_concurrency() << "\n\n";

    JsonWriter json;
    json.field("bench", "ext_serve");
    json.field("hardware_threads",
               static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency()));

    // ---- 1. cold start ---------------------------------------------
    const std::string kernel = "srad_kernel1";
    EngineSession engine;
    Request req = modelRequest(kernel);

    auto t0 = clock_type::now();
    Response cold = engine.handle(req);
    double cold_ms = toMs(clock_type::now() - t0);
    if (!cold.ok())
        fatal(msg("cold request failed: ", cold.status.toString()));
    if (cold.stats.profilerMisses == 0)
        fatal("cold request unexpectedly hit a warm cache");

    json.beginObject("cold");
    json.field("kernel", kernel);
    json.field("cold_ms", cold_ms);
    json.endObject();

    // ---- 2. warm repeats -------------------------------------------
    std::vector<double> lat;
    lat.reserve(warm_reps);
    for (unsigned r = 0; r < warm_reps; ++r) {
        auto w0 = clock_type::now();
        Response warm = engine.handle(req);
        lat.push_back(toMs(clock_type::now() - w0));
        assertModelOnly(warm, "warm repeat");
        if (warm.output != cold.output)
            fatal("warm repeat diverged from cold output");
    }
    double p50 = percentile(lat, 50.0);
    double p99 = percentile(lat, 99.0);
    double mean = 0.0;
    for (double ms : lat)
        mean += ms;
    mean /= static_cast<double>(lat.size());

    Table warm_table({"phase", "ms", "speedup"});
    warm_table.addRow({"cold", fmtDouble(cold_ms, 3), "1.00"});
    warm_table.addRow({"warm p50", fmtDouble(p50, 3),
                       fmtDouble(cold_ms / p50, 0)});
    warm_table.addRow({"warm p99", fmtDouble(p99, 3),
                       fmtDouble(cold_ms / p99, 0)});
    std::cout << "-- model " << kernel << ": cold vs " << warm_reps
              << " warm repeats (model-only verified) --\n";
    warm_table.print(std::cout);

    json.beginObject("warm");
    json.field("reps", static_cast<std::uint64_t>(warm_reps));
    json.field("model_only", true);
    json.field("p50_ms", p50);
    json.field("p99_ms", p99);
    json.field("mean_ms", mean);
    json.field("speedup_p50_vs_cold", cold_ms / p50);
    json.endObject();

    // ---- 3. sustained daemon throughput ----------------------------
    // The full intake/dispatch path: JSON parsing, bounded queue,
    // response serialization. Mixed kernels and configs, pre-warmed
    // so the measured pass is the service's steady state.
    const char *mixed[] = {"micro_stream", "micro_compute_chain",
                           "micro_pointer_chase", "micro_sfu_heavy"};
    std::ostringstream batch;
    for (unsigned i = 0; i < batch_n; ++i) {
        batch << R"({"cmd":"model","kernel":")"
              << mixed[i % (sizeof(mixed) / sizeof(mixed[0]))]
              << R"(","config":{"warps":)" << (i % 2 ? 8 : 4)
              << R"(,"cores":2}})" << "\n";
    }

    EngineSession daemon;
    SupervisorOptions serve_options;
    serve_options.includeOutput = false;
    // Admission control is not under test here: the queue must admit
    // the whole flood or the shed requests would deflate the rate.
    serve_options.maxQueue = batch_n;
    auto run_batch = [&] {
        return serveBatch(daemon, batch.str(), serve_options);
    };
    SupervisorSummary warmup = run_batch();
    if (warmup.evaluated != batch_n || warmup.failed != 0)
        fatal(msg("warm-up batch: ", warmup.evaluated, " evaluated (",
                  warmup.failed, " failed, ", warmup.shed,
                  " shed) of ", warmup.received));

    auto b0 = clock_type::now();
    SupervisorSummary steady = run_batch();
    double batch_ms = toMs(clock_type::now() - b0);
    if (steady.evaluated != batch_n || steady.failed != 0)
        fatal(msg("steady batch: ", steady.failed, " of ",
                  steady.received, " requests failed"));
    double req_per_s = 1000.0 * batch_n / batch_ms;

    std::cout << "\n-- sustained JSON-lines throughput (" << batch_n
              << " warm requests, 4 kernels x 2 configs) --\n";
    Table rate_table({"requests", "wall ms", "req/s"});
    rate_table.addRow({std::to_string(batch_n),
                       fmtDouble(batch_ms, 1),
                       fmtDouble(req_per_s, 0)});
    rate_table.print(std::cout);

    json.beginObject("sustained");
    json.field("requests", static_cast<std::uint64_t>(batch_n));
    json.field("wall_ms", batch_ms);
    json.field("req_per_s", req_per_s);
    json.endObject();

    std::ofstream out(out_path);
    out << json.finish() << "\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
