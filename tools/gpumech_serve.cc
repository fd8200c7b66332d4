/**
 * @file
 * `gpumech_serve`: an evaluation daemon over the same engine the CLI
 * uses.
 *
 * Reads one JSON request per line (see README "Serving" and
 * service/request.hh for the schema), evaluates them on a shared
 * EngineSession — so the input cache stays warm across requests — and
 * writes one JSON response per line. Both modes run the connection
 * supervisor (service/supervisor.hh): by default it serves stdin to
 * stdout as one connection; --socket serves a Unix-domain stream
 * socket instead, accepting many clients concurrently. Either way:
 * admission control with retry_after_ms back-off hints on shed
 * responses, oversized-line and idle eviction, and responses in
 * request (seq) order per connection.
 *
 * Usage:
 *   gpumech_serve [--socket PATH] [--max-queue N] [--dispatch N]
 *                 [--jobs N] [--kernel-timeout-ms N] [--no-output]
 *                 [--metrics] [--max-inflight N]
 *                 [--write-timeout-ms N] [--idle-timeout-ms N]
 *                 [--max-line-bytes N]
 *
 *   --socket PATH          serve a Unix socket instead of stdin
 *   --max-queue N          admission bound: pending requests before
 *                          load-shedding (default 64)
 *   --dispatch N           dispatcher threads evaluating admitted
 *                          requests (default 2; 1 = serial)
 *   --jobs N               default worker threads per request, N >= 1
 *   --kernel-timeout-ms N  default per-kernel deadline (0 = off);
 *                          a request's "timeout_ms" overrides it
 *   --no-output            omit the rendered report ("output" field)
 *                          from responses
 *   --metrics              enable the metrics registry so requests
 *                          with "metrics":true get a per-request
 *                          registry delta
 *   --idle-timeout-ms N    end a connection idle this long
 *                          (default 0 = never)
 *   --max-line-bytes N     per-line byte cap; an oversized line ends
 *                          that connection (default 1 MiB)
 *
 * Socket clients only:
 *   --max-inflight N       per-client quota of admitted-but-
 *                          unanswered requests (default 8); stdin,
 *                          the sole client, is bounded by --max-queue
 *   --write-timeout-ms N   disconnect a client that cannot absorb a
 *                          response this long (default 5000; 0 = off);
 *                          stdout writes block
 *
 * Draining: EOF on stdin (or SIGTERM / SIGINT) stops intake; every
 * already-admitted request is still answered before exit. Exit code 0
 * after a clean drain, 1 on setup/argument errors (an unknown flag or
 * a stray positional argument included).
 */

#include <csignal>
#include <cstdio>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "service/supervisor.hh"

using namespace gpumech;

namespace
{

extern "C" void
onDrainSignal(int)
{
    requestServeDrain();
}

/**
 * Install SIGTERM/SIGINT handlers WITHOUT SA_RESTART: a blocking
 * read/poll must fail with EINTR so the supervisor notices the drain
 * request instead of staying parked in the kernel. SIGPIPE is ignored
 * process-wide: every write already handles a closed peer by checking
 * the write result (net_io.hh), and a client vanishing mid-response
 * must never kill the daemon.
 */
void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onDrainSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);

    const Status known = args.onlyKnown(
        {"socket", "max-queue", "dispatch", "jobs", "kernel-timeout-ms",
         "no-output", "metrics", "max-inflight", "write-timeout-ms",
         "idle-timeout-ms", "max-line-bytes"});
    auto max_queue = args.getPositiveUint("max-queue", 64);
    auto jobs = args.getPositiveUint("jobs", 0);
    auto dispatch = args.getPositiveUint("dispatch", 2);
    auto max_inflight = args.getPositiveUint("max-inflight", 8);
    auto max_line_bytes =
        args.getPositiveUint("max-line-bytes", 1 << 20);
    for (const auto *status :
         {&known, &max_queue.status(), &jobs.status(), &dispatch.status(),
          &max_inflight.status(), &max_line_bytes.status()}) {
        if (!status->ok()) {
            std::fprintf(stderr, "error: %s\n",
                         status->toString().c_str());
            return 1;
        }
    }

    EngineOptions engine_options;
    engine_options.jobs = jobs.value();
    engine_options.kernelTimeoutMs =
        args.getUint("kernel-timeout-ms", 0);

    SupervisorOptions super;
    super.maxQueue = max_queue.value();
    super.dispatchers = dispatch.value();
    super.maxInflight = max_inflight.value();
    super.maxLineBytes = max_line_bytes.value();
    super.writeTimeoutMs = args.getUint("write-timeout-ms", 5000);
    super.idleTimeoutMs = args.getUint("idle-timeout-ms", 0);
    super.includeOutput = !args.has("no-output");

    if (jobs.value() != 0)
        setDefaultJobs(jobs.value());
    if (args.has("metrics"))
        Metrics::enable(true);

    installSignalHandlers();

    EngineSession engine(engine_options);

    SupervisorSummary s;
    std::string socket_path = args.get("socket");
    if (!socket_path.empty()) {
        inform(msg("serving on unix socket ", socket_path));
        Result<SupervisorSummary> served =
            serveSupervised(engine, socket_path, super);
        if (!served.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         served.status().toString().c_str());
            return 1;
        }
        s = served.value();
    } else {
        s = serveFds(engine, 0, 1, super);
    }
    inform(msg("drained: ", s.connections, " connections, ",
               s.received, " received, ", s.evaluated, " evaluated (",
               s.failed, " failed), ", s.shed, " shed, ", s.malformed,
               " malformed, ", s.dropped, " dropped, ",
               s.slowDisconnects, " slow / ", s.idleDisconnects,
               " idle / ", s.oversized, " oversized evictions"));
    return 0;
}
