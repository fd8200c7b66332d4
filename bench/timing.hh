/**
 * @file
 * Best-of-N wall-clock timer shared by the self-timed benches.
 *
 * The minimum over repeats is the least noisy estimate of a
 * deterministic workload's cost: every source of interference (other
 * processes, cache and frequency warm-up) only ever adds time.
 */

#pragma once

#include <chrono>

namespace gpumech
{

/** Best-of-@p reps wall-clock time of fn(), in milliseconds. */
template <typename Fn>
double
timeMs(unsigned reps, Fn &&fn)
{
    using clock_type = std::chrono::steady_clock;
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        auto t0 = clock_type::now();
        fn();
        double ms = std::chrono::duration<double, std::milli>(
                        clock_type::now() - t0)
                        .count();
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

} // namespace gpumech
