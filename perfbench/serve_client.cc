#include "serve_client.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <queue>
#include <stdexcept>
#include <thread>

#include "util.hh"

namespace perfbench
{

namespace
{

int
tryConnect(const std::string &path)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Wait up to @p ms for @p pid to exit; true when it did. */
bool
waitExit(int pid, int ms, int &status)
{
    for (int waited = 0; waited <= ms; waited += 5) {
        int r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return true;
        if (r < 0)
            return true; // already reaped
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

} // namespace

Daemon::Daemon(const std::string &binary, const std::string &socket_path)
    : path(socket_path)
{
    ::unlink(path.c_str());
    child = ::fork();
    if (child < 0)
        throw std::runtime_error("fork failed");
    if (child == 0) {
        // The daemon must not outlive the benchmark, even on a crash.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        int devnull = ::open("/dev/null", O_RDWR);
        if (devnull >= 0) {
            ::dup2(devnull, STDIN_FILENO);
            ::dup2(devnull, STDOUT_FILENO);
        }
        ::execl(binary.c_str(), binary.c_str(), "--socket", path.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    for (int waited = 0; waited < 20000; waited += 5) {
        int fd = tryConnect(path);
        if (fd >= 0) {
            ::close(fd);
            return;
        }
        int status = 0;
        if (::waitpid(child, &status, WNOHANG) == child) {
            child = -1;
            throw std::runtime_error("gpumech_serve exited at start-up");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop();
    throw std::runtime_error("gpumech_serve did not open its socket");
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::stop()
{
    if (child <= 0)
        return true;
    int status = 0;
    ::kill(child, SIGTERM);
    bool exited = waitExit(child, 10000, status);
    if (!exited) {
        ::kill(child, SIGKILL);
        ::waitpid(child, &status, 0);
    }
    child = -1;
    ::unlink(path.c_str());
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Connection::Connection(const std::string &socket_path)
    : sock(tryConnect(socket_path))
{
    if (sock < 0)
        throw std::runtime_error("cannot connect to " + socket_path);
}

Connection::~Connection()
{
    if (sock >= 0)
        ::close(sock);
}

std::string
Connection::roundTrip(const std::string &line)
{
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
        ssize_t n = ::send(sock, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("send to daemon failed");
        off += static_cast<std::size_t>(n);
    }
    for (;;) {
        std::size_t nl = pending.find('\n');
        if (nl != std::string::npos) {
            std::string resp = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            return resp;
        }
        char buf[65536];
        ssize_t n = ::recv(sock, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("daemon closed the connection");
        pending.append(buf, static_cast<std::size_t>(n));
    }
}

ResponseSummary
summarize(const std::string &line)
{
    ResponseSummary s;
    s.ok = line.find("\"ok\":true") != std::string::npos;
    s.shed = line.find("\"shed\":true") != std::string::npos;
    std::size_t at = line.find("\"wall_ms\":");
    if (at != std::string::npos)
        s.wallMs = std::strtod(line.c_str() + at + 10, nullptr);
    at = line.find("\"retry_after_ms\":");
    if (at != std::string::npos)
        s.retryAfterMs = std::strtod(line.c_str() + at + 17, nullptr);
    return s;
}

RungResult
runOpenLoop(const std::vector<Connection *> &conns,
            const std::vector<std::string> &lines,
            const std::vector<std::size_t> &order, double rate,
            std::size_t count, bool retry,
            std::map<std::size_t, std::string> &first)
{
    struct Pending
    {
        std::int64_t dueNs;
        std::size_t line;
    };
    struct Retry
    {
        std::int64_t atNs;
        Pending p;
        std::size_t conn;
        bool operator>(const Retry &o) const { return atNs > o.atNs; }
    };
    std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>>
        retries;
    struct Conn
    {
        int fd;
        std::string out, in;
        std::deque<Pending> waiting;
    };
    std::vector<Conn> cs;
    for (Connection *c : conns) {
        int flags = ::fcntl(c->fd(), F_GETFL, 0);
        ::fcntl(c->fd(), F_SETFL, flags | O_NONBLOCK);
        cs.push_back(Conn{c->fd(), {}, {}, {}});
    }

    RungResult r;
    r.latencyUs.reserve(count);
    r.waitUs.reserve(count);
    r.lateUs.reserve(count);
    const double gapNs = 1e9 / rate;
    const std::int64_t start = nowNs() + 1000000; // 1 ms to get going
    // Give up on stragglers well after the schedule ends.
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(gapNs * count) + 10'000'000'000;
    std::size_t next = 0, received = 0;
    std::int64_t lastRecv = start + 1;

    while (received < count) {
        std::int64_t now = nowNs();
        if (now > deadline) {
            r.errors += count - received;
            break;
        }
        while (next < count) {
            std::int64_t due =
                start + static_cast<std::int64_t>(gapNs * next);
            if (due > now)
                break;
            Conn &c = cs[next % cs.size()];
            std::size_t li = order[next % order.size()];
            c.out += lines[li];
            c.out += '\n';
            c.waiting.push_back(Pending{due, li});
            r.lateUs.push_back(static_cast<double>(now - due) / 1e3);
            ++next;
            ++r.sent;
        }
        while (!retries.empty() && retries.top().atNs <= now) {
            Retry again = retries.top();
            retries.pop();
            cs[again.conn].out += lines[again.p.line];
            cs[again.conn].out += '\n';
            cs[again.conn].waiting.push_back(again.p);
        }
        std::vector<pollfd> pfds;
        for (Conn &c : cs) {
            if (!c.out.empty()) {
                ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                                   MSG_NOSIGNAL);
                if (n > 0)
                    c.out.erase(0, static_cast<std::size_t>(n));
                else if (n < 0 && errno != EAGAIN && errno != EINTR)
                    throw std::runtime_error("send to daemon failed");
            }
            short ev = POLLIN;
            if (!c.out.empty())
                ev |= POLLOUT;
            pfds.push_back(pollfd{c.fd, ev, 0});
        }
        // Busy-poll: a sleeping generator wakes late (timer wake-ups
        // overshoot by milliseconds on a loaded virtual machine), which
        // would be charged to the daemon.
        int n = ::poll(pfds.data(), pfds.size(), 0);
        if (n < 0 && errno != EINTR)
            throw std::runtime_error("poll failed");
        if (n <= 0)
            continue;
        for (std::size_t i = 0; i < cs.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &c = cs[i];
            char buf[65536];
            for (;;) {
                ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
                if (got > 0) {
                    c.in.append(buf, static_cast<std::size_t>(got));
                    continue;
                }
                if (got == 0)
                    throw std::runtime_error("daemon closed a connection");
                if (errno == EAGAIN || errno == EINTR)
                    break;
                throw std::runtime_error("recv from daemon failed");
            }
            std::int64_t recvNs = nowNs();
            lastRecv = recvNs;
            std::size_t nl;
            while ((nl = c.in.find('\n')) != std::string::npos) {
                if (c.waiting.empty())
                    throw std::runtime_error("unsolicited response");
                Pending p = c.waiting.front();
                c.waiting.pop_front();
                std::string line = c.in.substr(0, nl);
                c.in.erase(0, nl + 1);
                ResponseSummary s = summarize(line);
                if (s.shed && retry) {
                    // Back off as the daemon asks, keeping the original
                    // due time, so the shed costs latency.
                    ++r.retries;
                    std::int64_t backoff = std::max<std::int64_t>(
                        200000, static_cast<std::int64_t>(s.retryAfterMs) *
                                    1000000);
                    retries.push(Retry{recvNs + backoff, p, i});
                    continue;
                }
                ++received;
                double lat = static_cast<double>(recvNs - p.dueNs) / 1e3;
                r.latencyUs.push_back(lat);
                r.waitUs.push_back(lat - s.wallMs * 1e3);
                if (s.shed)
                    ++r.shed;
                else if (!s.ok)
                    ++r.errors;
                else
                    ++r.ok;
                if (s.ok && !first.count(p.line))
                    first.emplace(p.line, std::move(line));
            }
        }
    }
    for (Conn &c : cs) {
        int flags = ::fcntl(c.fd, F_GETFL, 0);
        ::fcntl(c.fd, F_SETFL, flags & ~O_NONBLOCK);
    }
    r.elapsedS = static_cast<double>(lastRecv - start) / 1e9;
    return r;
}

} // namespace perfbench
