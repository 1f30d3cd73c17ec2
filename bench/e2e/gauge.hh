/**
 * @file
 * Host speed gauge: the yardstick the benchmark's CPU-bound timings are
 * scaled by.
 *
 * On a shared host the same serial code runs at one speed or up to ~1.8x
 * slower, depending on what else runs on the physical core. The state
 * differs from CPU to CPU, changes every few seconds, and can last for a
 * whole run, so no estimator over raw times repeats between runs. What
 * does repeat is the ratio of the work to a fixed kernel timed on the
 * same CPU just before and after it.
 *
 * The benchmark therefore runs its work pinned to one CPU (every thread
 * it and the library start inherits the mask; only the load generator
 * runs on the other CPUs) and times work in slices with
 * gaugeMicros() between them. A CPU-bound time t measured between gauge
 * readings g0 and g1 is reported as t * kGaugeNominalUs / ((g0 + g1) /
 * 2): what it would have read with the host as fast as it is when the
 * gauge takes kGaugeNominalUs. The kernel is the benchmark's own, not
 * the library's, so no change to the library moves it; its op mix (an
 * int16 multiply-accumulate, eight float accumulation lanes and four
 * xorshift streams over 192 KiB of L2-resident data) is that of a pass.
 */

#ifndef VIBNN_BENCH_E2E_GAUGE_HH
#define VIBNN_BENCH_E2E_GAUGE_HH

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "stats.hh"

namespace vibnn::bench::e2e
{

/** Gauge reading with the host quiet, microseconds: about the fastest
 *  readings on a 4-vCPU Sapphire Rapids VM. */
constexpr double kGaugeNominalUs = 120.0;

/** The CPU the work is pinned to and the process's other CPUs. */
struct CpuPlacement
{
    /** -1 when pinning failed. */
    int cpu = -1;
    cpu_set_t others{};
    bool hasOthers = false;
};

/** Pin the calling thread, and every thread created after it, to the CPU
 *  it runs on. */
inline CpuPlacement
pinToCurrentCpu()
{
    CpuPlacement placement;
    cpu_set_t start;
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof start, &start) != 0)
        return placement;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        return placement;
    placement.cpu = cpu;
    placement.others = start;
    CPU_CLR(cpu, &placement.others);
    placement.hasOthers = CPU_COUNT(&placement.others) > 0;
    return placement;
}

/**
 * While in scope, the calling thread and every thread it starts run on
 * the other CPUs, so that a load generator neither waits behind the work
 * it times nor takes CPU time from it. Without other CPUs it does
 * nothing.
 */
class OnOtherCpus
{
  public:
    explicit OnOtherCpus(const CpuPlacement &placement)
        : placement_(placement)
    {
        if (placement_.hasOthers)
            sched_setaffinity(0, sizeof placement_.others,
                              &placement_.others);
    }

    ~OnOtherCpus()
    {
        if (!placement_.hasOthers)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(placement_.cpu, &set);
        sched_setaffinity(0, sizeof set, &set);
    }

    OnOtherCpus(const OnOtherCpus &) = delete;
    OnOtherCpus &operator=(const OnOtherCpus &) = delete;

  private:
    const CpuPlacement &placement_;
};

/**
 * While in scope, a SCHED_IDLE thread spins on the calling thread's CPU,
 * so that the CPU never idles between requests. A virtual CPU that idles
 * is descheduled by the host, and waking it again takes as long as the
 * host is busy, which no gauge sees. Any other thread that wakes on the
 * CPU preempts the spinner at once.
 */
class KeepCpuAwake
{
  public:
    KeepCpuAwake()
        : spinner_([this] {
              const sched_param param{};
              sched_setscheduler(0, SCHED_IDLE, &param);
              while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                  __builtin_ia32_pause();
#endif
              }
          })
    {
    }

    ~KeepCpuAwake() { stop_.store(true, std::memory_order_relaxed); }

    KeepCpuAwake(const KeepCpuAwake &) = delete;
    KeepCpuAwake &operator=(const KeepCpuAwake &) = delete;

  private:
    std::atomic<bool> stop_{false};
    /** Declared last: joined before stop_ goes away. */
    std::jthread spinner_;
};

namespace detail
{

constexpr std::size_t kGaugeLen = 16 * 1024;

/** Independent accumulator chains throughout, so the kernel is bound by
 *  the core's throughput, as the library's kernels are, not by the
 *  latency of one dependency chain. */
__attribute__((noinline)) inline std::int64_t
gaugeKernel(const std::int16_t *a, const std::int16_t *b, const float *x,
            const float *y)
{
    constexpr int kLanes = 8, kStreams = 4;
    std::int64_t acc = 0;
    float facc = 0.0f;
    std::uint64_t s[kStreams] = {1, 2, 3, 4};
    for (std::size_t rep = 0; rep < 4; ++rep) {
        // The index flip keeps the compiler from hoisting a repetition.
        const std::size_t flip = rep & 1;
        std::int32_t dot = 0;
        for (std::size_t i = 0; i < kGaugeLen; ++i)
            dot += static_cast<std::int32_t>(a[i ^ flip]) * b[i];
        float f[kLanes] = {};
        for (std::size_t i = 0; i < kGaugeLen; i += kLanes)
            for (int j = 0; j < kLanes; ++j)
                f[j] += x[(i + j) ^ flip] * y[i + j];
        for (int k = 0; k < 4096; ++k)
            for (auto &v : s) {
                v ^= v << 13;
                v ^= v >> 7;
                v ^= v << 17;
            }
        acc += dot + static_cast<std::int64_t>((s[0] ^ s[1] ^ s[2] ^ s[3]) & 1);
        for (const float v : f)
            facc += v;
    }
    return acc + static_cast<std::int64_t>(facc);
}

} // namespace detail

/** Fastest of nine runs of the gauge kernel, microseconds. Other
 *  threads of the process share the CPU; the fastest run is one none of
 *  them interrupted. */
inline double
gaugeMicros()
{
    static const std::vector<std::int16_t> a(detail::kGaugeLen, 3),
        b(detail::kGaugeLen, 5);
    static const std::vector<float> x(detail::kGaugeLen, 1.5f),
        y(detail::kGaugeLen, 0.5f);
    static std::atomic<std::int64_t> sink{0};
    double best = 0.0;
    for (int run = 0; run < 9; ++run) {
        const std::int64_t t0 = nowNs();
        sink.fetch_add(detail::gaugeKernel(a.data(), b.data(), x.data(),
                                           y.data()),
                       std::memory_order_relaxed);
        const double us = static_cast<double>(nowNs() - t0) * 1e-3;
        best = run == 0 ? us : std::min(best, us);
    }
    return best;
}

/** The factor that scales a time measured between gauge readings
 *  `before_us` and `after_us` to the nominal host speed. */
inline double
speedScale(double before_us, double after_us)
{
    return kGaugeNominalUs / (0.5 * (before_us + after_us));
}

/**
 * Gauge readings around consecutive slices of timed work: the first is
 * taken on construction, and next() takes the one that closes the
 * current slice.
 */
class GaugeTrack
{
  public:
    GaugeTrack() : readings_{gaugeMicros()} {}

    /** Close the current slice; returns the factor that scales its
     *  times to the nominal host speed. */
    double
    next()
    {
        readings_.push_back(gaugeMicros());
        return speedScale(readings_[readings_.size() - 2], readings_.back());
    }

    const std::vector<double> &readings() const { return readings_; }

  private:
    std::vector<double> readings_;
};

/**
 * Reads the gauge every kPeriod from a thread of its own on the calling
 * thread's CPU, for stretches of work that cannot be cut into slices:
 * the host changes speed within them, so a reading at each end does not
 * say how fast it ran. Each reading preempts the work for about a
 * millisecond.
 */
class GaugeSampler
{
  public:
    static constexpr std::chrono::milliseconds kPeriod{50};

    GaugeSampler()
        : sampler_([this](std::stop_token stop) {
              std::mutex sleep_mutex;
              std::condition_variable_any wake;
              for (;;) {
                  {
                      std::unique_lock<std::mutex> lock(sleep_mutex);
                      wake.wait_for(lock, stop, kPeriod,
                                    [] { return false; });
                  }
                  if (stop.stop_requested())
                      return;
                  record();
              }
          })
    {
        record();
    }

    /**
     * Seconds from `start_ns` to now as measured, and scaled to the
     * nominal host speed: each stretch between two readings by
     * speedScale() of the two, a stretch before the first reading by that
     * reading.
     */
    std::pair<double, double>
    since(std::int64_t start_ns)
    {
        record();
        const std::lock_guard<std::mutex> lock(mutex_);
        double scaled = 0.0;
        std::int64_t at = start_ns;
        double before = samples_.front().gaugeUs;
        for (const Sample &s : samples_) {
            if (s.atNs > at) {
                scaled += static_cast<double>(s.atNs - at) * 1e-9 *
                    speedScale(before, s.gaugeUs);
                at = s.atNs;
            }
            before = s.gaugeUs;
        }
        return {static_cast<double>(at - start_ns) * 1e-9, scaled};
    }

    std::vector<double>
    readings()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> out;
        for (const Sample &s : samples_)
            out.push_back(s.gaugeUs);
        return out;
    }

  private:
    struct Sample
    {
        /** When the reading ended. */
        std::int64_t atNs;
        double gaugeUs;
    };

    void
    record()
    {
        const double us = gaugeMicros();
        // Stamped under the lock, so the samples stay in time order.
        const std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back({nowNs(), us});
    }

    std::mutex mutex_;
    std::vector<Sample> samples_;
    /** Declared last: stopped and joined before the samples go away. */
    std::jthread sampler_;
};

} // namespace vibnn::bench::e2e

#endif // VIBNN_BENCH_E2E_GAUGE_HH
