#include "mem/mrc.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace gpumech
{

namespace
{

/** splitmix64: the sampling hash (fixed, platform-independent). */
std::uint64_t
mixLine(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

ReuseDistanceTracker::Slot &
ReuseDistanceTracker::slotOf(Addr line)
{
    // Fibonacci hashing: the product's high bits mix strided lines.
    const std::size_t mask = table.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ULL) >>
                                 tableShift);
    while (table[i].stamp != emptyStamp && table[i].line != line)
        i = (i + 1) & mask;
    return table[i];
}

void
ReuseDistanceTracker::growTable()
{
    std::vector<Slot> old(table.size() * 2, Slot{0, emptyStamp});
    old.swap(table);
    --tableShift;
    for (const Slot &s : old) {
        if (s.stamp != emptyStamp)
            slotOf(s.line) = s;
    }
}

void
ReuseDistanceTracker::treeAdd(std::size_t word, std::int32_t delta)
{
    for (std::size_t i = word + 1; i <= tree.size(); i += i & (~i + 1))
        tree[i - 1] += static_cast<std::uint32_t>(delta);
}

std::uint32_t
ReuseDistanceTracker::treePrefix(std::size_t word) const
{
    std::uint32_t sum = 0;
    for (std::size_t i = word; i > 0; i &= i - 1)
        sum += tree[i - 1];
    return sum;
}

void
ReuseDistanceTracker::compact()
{
    // A live stamp's new number is its rank among the live stamps:
    // the popcount of the words before it plus the bits below it in
    // its own word. The tree is rebuilt below, so it holds the
    // per-word ranks meanwhile.
    tree.assign(bits.size(), 0);
    std::uint32_t rank = 0;
    for (std::size_t w = 0; w < bits.size(); ++w) {
        tree[w] = rank;
        rank += static_cast<std::uint32_t>(std::popcount(bits[w]));
    }
    for (Slot &s : table) {
        if (s.stamp == emptyStamp)
            continue;
        const std::size_t w = s.stamp / 64;
        const std::uint64_t below =
            (std::uint64_t{1} << (s.stamp % 64)) - 1;
        s.stamp = tree[w] + static_cast<std::uint32_t>(
                                std::popcount(bits[w] & below));
    }

    // Keep at least 3x live free stamps, so a compaction's
    // O(table + words) cost spreads over as many accesses.
    std::size_t words = bits.size();
    while (words * 64 < 4 * static_cast<std::uint64_t>(live))
        words *= 2;
    if (words * 64 > emptyStamp)
        panic(msg("reuse-distance tracker: ", live,
                  " distinct lines exceed the 32-bit stamp space"));
    bits.assign(words, 0);
    std::fill_n(bits.begin(), live / 64, ~std::uint64_t{0});
    if (live % 64 != 0)
        bits[live / 64] = (std::uint64_t{1} << (live % 64)) - 1;
    next = live;

    // The tree sums full words only; rebuild it in O(words).
    tree.assign(words, 0);
    std::fill_n(tree.begin(), next / 64, 64u);
    for (std::size_t i = 1; i <= words; ++i) {
        const std::size_t parent = i + (i & (~i + 1));
        if (parent <= words)
            tree[parent - 1] += tree[i - 1];
    }
}

std::uint32_t
ReuseDistanceTracker::access(Addr line)
{
    ++count;
    if (next == bits.size() * 64)
        compact();

    Slot *slot = &slotOf(line);
    std::uint32_t distance = mrcColdDistance;
    if (slot->stamp == emptyStamp) {
        // Grow past a 3/4 load: longer probes cost less than the
        // cache misses of a table twice the size.
        if (4 * (static_cast<std::size_t>(live) + 1) > 3 * table.size()) {
            growTable();
            slot = &slotOf(line);
        }
        slot->line = line;
        ++live;
    } else {
        // Distinct lines since the previous access: every set bit is
        // some line's current last access, so the set bits strictly
        // after prev count exactly the intervening lines.
        const std::uint32_t prev = slot->stamp;
        const std::size_t word = prev / 64;
        const std::uint64_t bit = std::uint64_t{1} << (prev % 64);
        distance = live - treePrefix(word) -
                   static_cast<std::uint32_t>(
                       std::popcount(bits[word] & (bit | (bit - 1))));
        bits[word] &= ~bit;
        // The word taking new stamps joins the tree once it is full.
        if (word < next / 64)
            treeAdd(word, -1);
    }

    slot->stamp = next;
    bits[next / 64] |= std::uint64_t{1} << (next % 64);
    if (++next % 64 == 0) {
        const std::size_t full = next / 64 - 1;
        treeAdd(full, std::popcount(bits[full]));
    }
    return distance;
}

ShardsSampler::ShardsSampler(double rate) : samplingRate(rate)
{
    if (!(rate > 0.0) || rate > 1.0)
        panic(msg("SHARDS sampling rate must be in (0, 1], got ", rate));
    obsWeight = 1.0 / rate;
    if (rate >= 1.0) {
        threshold = std::numeric_limits<std::uint64_t>::max();
    } else {
        threshold = static_cast<std::uint64_t>(
            rate * 18446744073709551616.0 /* 2^64 */);
    }
}

bool
ShardsSampler::sampled(Addr line) const
{
    if (samplingRate >= 1.0)
        return true;
    return mixLine(line) < threshold;
}

std::uint32_t
ShardsSampler::unscale(std::uint32_t sampled_distance) const
{
    if (sampled_distance == mrcColdDistance || samplingRate >= 1.0)
        return sampled_distance;
    double scaled = static_cast<double>(sampled_distance) * obsWeight;
    if (scaled >= static_cast<double>(mrcColdDistance))
        return mrcColdDistance - 1;
    return static_cast<std::uint32_t>(scaled + 0.5);
}

double
assocHitProbability(std::uint32_t distance, std::uint32_t sets,
                    std::uint32_t ways)
{
    if (distance == mrcColdDistance)
        return 0.0;
    if (sets <= 1)
        return distance < ways ? 1.0 : 0.0;
    // Balanced modulo mapping: own set holds floor(d/sets) of the d
    // intervening distinct lines, resident iff that is <= ways - 1.
    return distance < static_cast<std::uint64_t>(sets) * ways ? 1.0
                                                              : 0.0;
}

} // namespace gpumech
