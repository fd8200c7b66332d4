#include "util.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench
{

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
calibrationSeconds()
{
    static std::uint64_t sink = 0;
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    auto next = [&s] {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    };
    // Memory: random read-modify-writes over a table past the private
    // caches, mapped on the first call, before the clock starts.
    constexpr std::size_t kWords = std::size_t{16} << 20; // 64 MiB
    static std::vector<std::uint32_t> table(kWords, 1);
    std::int64_t t0 = nowNs();
    for (int i = 0; i < 1'000'000; ++i)
        table[next() & (kWords - 1)] += static_cast<std::uint32_t>(i);
    // Allocation: a hash map built from nothing, probed, then freed.
    {
        std::unordered_map<std::uint64_t, std::uint64_t> map;
        for (int i = 0; i < 50'000; ++i)
            map[next() & 0xfffff] += static_cast<std::uint64_t>(i);
        for (int i = 0; i < 50'000; ++i) {
            auto it = map.find(next() & 0xfffff);
            sink += it == map.end() ? 0 : it->second;
        }
    }
    // Fresh pages: a 16 MiB buffer the kernel has to map.
    {
        std::vector<std::uint8_t> fresh(std::size_t{16} << 20);
        for (std::size_t i = 0; i < fresh.size(); i += 4096)
            fresh[i] = static_cast<std::uint8_t>(i >> 12);
        sink += fresh[fresh.size() / 2];
    }
    // Branches: sorting random keys in the private caches.
    {
        std::vector<std::uint32_t> keys(1 << 16);
        for (int r = 0; r < 2; ++r) {
            for (std::uint32_t &k : keys)
                k = static_cast<std::uint32_t>(next());
            std::sort(keys.begin(), keys.end());
            sink += keys[keys.size() / 2];
        }
    }
    double seconds = secondsSince(t0);
    sink += table[s & (kWords - 1)];
    return seconds;
}

double
selfPeakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
processPeakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace
{

thread_local std::uint64_t currentId = 0;
std::atomic<std::uint32_t> nextTid{1};

} // namespace

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::uint32_t
threadId()
{
    thread_local std::uint32_t tid = nextTid.fetch_add(1);
    return tid;
}

std::uint64_t
currentSpan()
{
    return currentId;
}

void
Tracer::record(SpanRecord &&rec)
{
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(std::move(rec));
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

std::map<std::string, SpanStats>
Tracer::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    // Children covered time per parent, counting only children that
    // ran on the parent's own thread (work handed to another thread
    // overlaps its parent instead of nesting in it).
    std::map<std::uint64_t, std::pair<std::uint32_t, double>> parents;
    for (const SpanRecord &s : spans)
        parents[s.id] = {s.tid, 0.0};
    for (const SpanRecord &s : spans) {
        auto it = parents.find(s.parent);
        if (it != parents.end() && it->second.first == s.tid)
            it->second.second += static_cast<double>(s.endNs - s.startNs);
    }
    std::map<std::string, SpanStats> out;
    for (const SpanRecord &s : spans) {
        SpanStats &st = out[std::string(s.layer) + "." + s.name];
        double dur = static_cast<double>(s.endNs - s.startNs);
        st.durNs.push_back(dur);
        st.totalNs += dur;
        st.selfNs += dur - parents[s.id].second;
        st.work += s.work;
    }
    return out;
}

std::map<std::string, double>
Tracer::layerSelfNs() const
{
    std::map<std::string, double> out;
    for (const auto &[key, st] : stats())
        out[key.substr(0, key.find('.'))] += st.selfNs;
    return out;
}

namespace
{

std::string
jsonEscaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ofstream out(path);
    if (!out)
        return false;
    std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    for (const SpanRecord &s : spans)
        origin = std::min(origin, s.startNs);
    out << "{\"traceEvents\":[";
    bool first = true;
    char buf[96];
    for (const SpanRecord &s : spans) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"cat\":\"" << s.layer << "\",\"name\":\"" << s.layer
            << '.' << s.name << "\"";
        std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.startNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out << buf << ",\"args\":{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"item\":\""
            << jsonEscaped(s.item) << "\"";
        if (s.work > 0)
            out << ",\"work\":" << static_cast<std::uint64_t>(s.work);
        out << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ns\"}\n";
    return static_cast<bool>(out);
}

Span::Span(const char *layer, const char *name, std::string item,
           double work, std::uint64_t parent)
    : on(tracer().enabled.load(std::memory_order_relaxed))
{
    if (!on)
        return;
    rec.layer = layer;
    rec.name = name;
    rec.item = std::move(item);
    rec.work = work;
    rec.id = tracer().newId();
    rec.parent = parent == ~0ull ? currentId : parent;
    rec.tid = threadId();
    savedCurrent = currentId;
    currentId = rec.id;
    rec.startNs = nowNs();
}

Span::~Span()
{
    if (!on)
        return;
    rec.endNs = nowNs();
    currentId = savedCurrent;
    tracer().record(std::move(rec));
}

} // namespace perfbench
