/**
 * @file
 * Percentiles and clocks shared by the end-to-end benchmark.
 *
 * Every percentile the benchmark prints is nearest-rank over the raw
 * samples, and a tail is only reported when the sample supports it:
 * at least ten samples must lie beyond the percentile.
 */

#ifndef VIBNN_BENCH_E2E_STATS_HH
#define VIBNN_BENCH_E2E_STATS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace vibnn::bench::e2e
{

using Clock = std::chrono::steady_clock;

/** steady_clock now, in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since `start_ns` (a nowNs() value). */
inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Nearest-rank percentile: the smallest sample with at least q * n
 *  samples at or below it. NaN for an empty sample. */
inline double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(
        std::clamp(std::ceil(q * n - 1e-9), 1.0, n));
    return values[rank - 1];
}

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** True when n samples leave at least ten beyond percentile q. */
inline bool
tailSupported(std::size_t n, double q)
{
    return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

} // namespace vibnn::bench::e2e

#endif // VIBNN_BENCH_E2E_STATS_HH
