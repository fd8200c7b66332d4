#include "service/serve_loop.hh"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "service/net_io.hh"

namespace gpumech
{

namespace
{

std::atomic<bool> drainRequested{false};

/** One line-oriented connection (stdin/stdout or an fd pair). */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** Next input line (no terminator); false on EOF/error/drain. */
    virtual bool readLine(std::string &line) = 0;

    /** Write one line + '\n'; false once the peer is gone. */
    virtual bool writeLine(const std::string &line) = 0;
};

class StreamTransport : public Transport
{
  public:
    StreamTransport(std::istream &in, std::ostream &out)
        : in(in), out(out)
    {}

    bool
    readLine(std::string &line) override
    {
        if (drainRequested.load(std::memory_order_relaxed))
            return false;
        return static_cast<bool>(std::getline(in, line));
    }

    bool
    writeLine(const std::string &line) override
    {
        out << line << "\n";
        out.flush();
        return static_cast<bool>(out);
    }

  private:
    std::istream &in;
    std::ostream &out;
};

/**
 * Hardened line I/O over a POSIX fd pair (the daemon's stdin/stdout
 * mode): reads go through FdLineReader (drain noticed within one poll
 * tick, EINTR-safe), writes through writeAllFd (partial writes and
 * EINTR looped, no SIGPIPE surprises on redirected-to-socket stdout).
 */
class FdTransport : public Transport
{
  public:
    FdTransport(int in_fd, int out_fd)
        : reader(in_fd, /*max_line_bytes=*/0, /*idle_timeout_ms=*/0),
          outFd(out_fd)
    {}

    bool
    readLine(std::string &line) override
    {
        ReadResult r = reader.readLine(line, drainRequested);
        return r == ReadResult::Line;
    }

    bool
    writeLine(const std::string &line) override
    {
        std::string data = line + "\n";
        return writeAllFd(outFd, data.data(), data.size(),
                          /*timeout_ms=*/0,
                          /*is_socket=*/false) == WriteResult::Ok;
    }

  private:
    FdLineReader reader;
    int outFd;
};

struct QueuedRequest
{
    std::uint64_t seq = 0;
    Request request;

    /**
     * Response already computed at intake (a malformed line). Ready
     * entries ride the queue so their responses are written in seq
     * order with everything else, but never reach the engine; for
     * them `request` only carries the salvaged correlation id.
     */
    bool ready = false;
    Response response;
};

ServeSummary
serveTransport(EngineSession &engine, Transport &transport,
               const ServeOptions &options)
{
    const std::size_t max_queue = options.maxQueue > 0
                                      ? options.maxQueue
                                      : std::size_t{1};
    const unsigned max_batch =
        options.maxBatch > 0 ? options.maxBatch : 1u;

    ServeSummary summary;
    std::mutex mu;                // queue + summary
    std::condition_variable cv;
    std::deque<QueuedRequest> queue;
    bool intake_done = false;
    std::mutex write_mu;
    std::atomic<bool> write_failed{false};

    auto emit = [&](const Response &resp, const std::string &id,
                    std::uint64_t seq, bool force_output = false) {
        std::lock_guard<std::mutex> lock(write_mu);
        if (!transport.writeLine(responseToJsonLine(
                resp, id, seq,
                options.includeOutput || force_output)))
            write_failed.store(true);
    };

    // Intake: parse lines, shed on a full queue. Bad lines get their
    // error response here but are enqueued as ready entries so the
    // dispatcher writes them in seq order with the evaluated ones
    // (emitting directly from this thread raced the dispatcher's
    // writes and broke the strict ordering contract); only a full
    // queue falls back to an immediate out-of-band answer, exactly
    // like shedding. Runs concurrently with dispatch below.
    std::thread reader([&] {
        std::string line;
        std::uint64_t seq = 0;
        while (!write_failed.load() && transport.readLine(line)) {
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue; // blank keep-alive line
            ++seq;
            Result<Request> parsed = requestFromJson(line);
            if (!parsed.ok()) {
                Response resp;
                resp.status = parsed.status();
                resp.exitCode = 1;
                std::string salvaged = salvageRequestId(line);
                bool direct = false;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ++summary.received;
                    ++summary.malformed;
                    if (queue.size() >= max_queue) {
                        direct = true;
                    } else {
                        QueuedRequest entry;
                        entry.seq = seq;
                        entry.ready = true;
                        entry.response = std::move(resp);
                        entry.request.id = salvaged;
                        queue.push_back(std::move(entry));
                    }
                }
                if (direct)
                    emit(resp, salvaged, seq);
                else
                    cv.notify_one();
                continue;
            }
            Request req = std::move(parsed).value();
            bool shed = false;
            {
                std::lock_guard<std::mutex> lock(mu);
                ++summary.received;
                if (queue.size() >= max_queue) {
                    shed = true;
                    ++summary.shed;
                } else {
                    queue.push_back({seq, std::move(req), false, {}});
                }
            }
            if (shed) {
                Response resp;
                resp.status = Status(
                    StatusCode::ResourceExhausted,
                    msg("queue full (", max_queue,
                        " pending); request shed"));
                resp.exitCode = 1;
                resp.shed = true;
                emit(resp, req.id, seq);
            } else {
                cv.notify_one();
            }
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            intake_done = true;
        }
        cv.notify_one();
    });

    // Dispatch: pop a batch, evaluate it on the shared pool, write
    // the responses in seq order.
    for (;;) {
        std::vector<QueuedRequest> batch;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock,
                    [&] { return !queue.empty() || intake_done; });
            if (queue.empty() && intake_done)
                break;
            // Metric-snapshot requests run alone: registry snapshots
            // are only consistent with no instrumented work in flight.
            while (!queue.empty() && batch.size() < max_batch) {
                if (queue.front().request.wantMetrics &&
                    !batch.empty())
                    break;
                batch.push_back(std::move(queue.front()));
                queue.pop_front();
                if (batch.back().request.wantMetrics)
                    break;
            }
        }

        std::vector<Response> responses;
        if (batch.size() == 1) {
            if (batch[0].ready) {
                responses.push_back(std::move(batch[0].response));
            } else {
                const Request &req = batch[0].request;
                const bool with_metrics =
                    req.wantMetrics && Metrics::enabled();
                std::vector<MetricSnapshot> before;
                if (with_metrics)
                    before = Metrics::snapshot();
                Response resp = engine.handle(req);
                if (with_metrics) {
                    resp.metricsJson = metricsToJson(
                        snapshotDelta(before, Metrics::snapshot()));
                }
                responses.push_back(std::move(resp));
            }
        } else {
            responses = parallelMap<Response>(
                batch.size(),
                [&](std::size_t i) {
                    return batch[i].ready
                               ? std::move(batch[i].response)
                               : engine.handle(batch[i].request);
                },
                1, static_cast<unsigned>(batch.size()));
        }

        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (!batch[i].ready) {
                // Ready entries were counted as malformed at intake;
                // only engine-evaluated requests tally here.
                std::lock_guard<std::mutex> lock(mu);
                ++summary.evaluated;
                if (!responses[i].ok())
                    ++summary.failed;
            }
            // Health/stats answers ARE their output; --no-output
            // must not strip them down to an empty success line.
            emit(responses[i], batch[i].request.id, batch[i].seq,
                 batch[i].request.verb == Verb::Health ||
                     batch[i].request.verb == Verb::Stats);
        }
    }

    reader.join();
    return summary;
}

} // namespace

ServeSummary
serveLines(EngineSession &engine, std::istream &in, std::ostream &out,
           const ServeOptions &options)
{
    StreamTransport transport(in, out);
    return serveTransport(engine, transport, options);
}

ServeSummary
serveFd(EngineSession &engine, int in_fd, int out_fd,
        const ServeOptions &options)
{
    FdTransport transport(in_fd, out_fd);
    return serveTransport(engine, transport, options);
}

void
requestServeDrain()
{
    drainRequested.store(true, std::memory_order_relaxed);
}

bool
serveDraining()
{
    return drainRequested.load(std::memory_order_relaxed);
}

void
resetServeDrain()
{
    drainRequested.store(false, std::memory_order_relaxed);
}

} // namespace gpumech
