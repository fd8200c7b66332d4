/**
 * @file
 * Client side of the serve_open workload: the gpumech_serve daemon as
 * a child process on a Unix socket, closed-loop round trips for
 * pre-warming and stats, and a single-threaded open-loop generator.
 */

#ifndef PERFBENCH_SERVE_CLIENT_HH
#define PERFBENCH_SERVE_CLIENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** A gpumech_serve child listening on a Unix socket. */
class Daemon
{
  public:
    /** Start @p binary with --socket @p socket_path; throws on failure. */
    Daemon(const std::string &binary, const std::string &socket_path);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return child; }
    const std::string &socketPath() const { return path; }

    /** SIGTERM, wait for the drain; SIGKILL after a grace. True on exit 0. */
    bool stop();

  private:
    int child = -1;
    std::string path;
};

/** Connected blocking Unix-socket client; throws on failure. */
class Connection
{
  public:
    explicit Connection(const std::string &socket_path);
    ~Connection();
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return sock; }

    /** Send one request line and return its response line. */
    std::string roundTrip(const std::string &line);

  private:
    int sock = -1;
    std::string pending; //!< bytes read past the last response
};

/** Fields the generator reads from a response line without a full parse. */
struct ResponseSummary
{
    bool ok = false;
    bool shed = false;
    double wallMs = 0.0;
    double retryAfterMs = 0.0;
};
ResponseSummary summarize(const std::string &line);

/** Outcome of one open-loop rung. */
struct RungResult
{
    std::vector<double> latencyUs; //!< receive time minus due time
    std::vector<double> waitUs;    //!< latency minus the daemon's wall_ms
    std::vector<double> lateUs;    //!< send time minus due time
    std::size_t sent = 0, ok = 0, shed = 0, errors = 0;
    std::size_t retries = 0; //!< shed responses sent again
    double elapsedS = 0; //!< from the first due time to the last response
};

/**
 * Send @p count requests at @p rate per second, spaced evenly from
 * the start, round-robin over @p conns, each timed from when it was
 * due. @p lines[order[i]] is request i. With @p retry a shed request
 * is sent again after the daemon's retry_after_ms hint, like a
 * well-behaved client, and its latency still counts from the original
 * due time; without it a shed response is final. The first response
 * seen for each line index is kept in @p first (for output checks).
 */
RungResult runOpenLoop(const std::vector<Connection *> &conns,
                       const std::vector<std::string> &lines,
                       const std::vector<std::size_t> &order,
                       double rate, std::size_t count, bool retry,
                       std::map<std::size_t, std::string> &first);

} // namespace perfbench

#endif // PERFBENCH_SERVE_CLIENT_HH
