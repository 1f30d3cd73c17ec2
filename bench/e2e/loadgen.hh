/**
 * @file
 * Load generator for the serving workloads.
 *
 * One sender thread writes requests round-robin over a fixed set of
 * loopback connections; one receiver thread polls every connection and
 * matches responses to requests by wire id. Two modes:
 *
 *  - open loop (run): a precomputed Poisson schedule. Each request is
 *    written at its scheduled instant whatever happened to earlier
 *    ones, and latency is counted from that *scheduled* instant, so a
 *    stall delays the requests behind it in the numbers too. How late
 *    the sender itself ran is recorded per request.
 *  - closed loop (saturate): every connection keeps `depth` requests
 *    outstanding, so the server always has the next request waiting
 *    and the completion rate is its capacity.
 *
 * The server answers one request per connection at a time, so requests
 * sent on a busy connection wait in its socket buffer; that wait is
 * part of the measured latency.
 */

#ifndef VIBNN_BENCH_E2E_LOADGEN_HH
#define VIBNN_BENCH_E2E_LOADGEN_HH

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "serve/net/protocol.hh"
#include "stats.hh"

namespace vibnn::bench::e2e
{

/** One scheduled classify request. */
struct RequestSpec
{
    /** Send instant, seconds after the phase start. */
    double atSeconds = 0.0;
    std::uint32_t mcSamples = 0;
    std::int64_t deadlineMicros = 0;
    /** Test-set rows the request classifies. */
    std::vector<std::uint32_t> images;
};

/** The request mix of a serving workload. */
struct RequestMix
{
    /** T is `tLow` with probability pLow, else `tHigh`. */
    std::uint32_t tLow = 8, tHigh = 8;
    double pLow = 0.0;
    /** The batch is `batchSmall` with probability pSmall, else
     *  `batchLarge`. */
    std::uint32_t batchSmall = 1, batchLarge = 1;
    double pSmall = 1.0;
    std::int64_t deadlineMicros = 0;
};

/** Draw T, batch and images from `mix` over `pool` test images. */
inline RequestSpec
drawRequest(Rng &rng, const RequestMix &mix, std::size_t pool)
{
    RequestSpec spec;
    spec.mcSamples = rng.uniform() < mix.pLow ? mix.tLow : mix.tHigh;
    const std::uint32_t batch =
        rng.uniform() < mix.pSmall ? mix.batchSmall : mix.batchLarge;
    spec.deadlineMicros = mix.deadlineMicros;
    for (std::uint32_t b = 0; b < batch; ++b)
        spec.images.push_back(
            static_cast<std::uint32_t>(rng.uniformInt(pool)));
    return spec;
}

/** Poisson arrivals at `rate` req/s for `seconds`. Pure function of
 *  `seed`. */
inline std::vector<RequestSpec>
poissonSchedule(std::uint64_t seed, double rate, double seconds,
                const RequestMix &mix, std::size_t pool)
{
    Rng rng(seed);
    std::vector<RequestSpec> plan;
    double at = 0.0;
    for (;;) {
        at += -std::log(1.0 - rng.uniform()) / rate;
        if (at >= seconds)
            break;
        plan.push_back(drawRequest(rng, mix, pool));
        plan.back().atSeconds = at;
    }
    return plan;
}

/** `count` requests without send instants (for the closed loop). */
inline std::vector<RequestSpec>
requestSequence(std::uint64_t seed, std::size_t count,
                const RequestMix &mix, std::size_t pool)
{
    Rng rng(seed);
    std::vector<RequestSpec> plan;
    plan.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        plan.push_back(drawRequest(rng, mix, pool));
    return plan;
}

/** What happened to one request. */
struct RequestRecord
{
    std::int64_t schedNs = 0;
    /** 0 when the request was never sent (the closed loop's tail). */
    std::int64_t sentNs = 0;
    std::int64_t recvNs = 0;
    std::uint32_t conn = 0;
    /** A response arrived. An error frame, a failed send, a lost
     *  connection and a missing reply all leave it false. */
    bool answered = false;
    serve::net::WireClassifyResponse response;

    bool ok() const { return answered; }
    /** Scheduled send to response, milliseconds. */
    double latencyMs() const { return (recvNs - schedNs) * 1e-6; }
    /** How late the sender ran, milliseconds. */
    double lagMs() const { return (sentNs - schedNs) * 1e-6; }
};

/** Sender/receiver pair over a fixed set of connections. */
class LoadGenerator
{
  public:
    /** Connect `conns` sockets to host:port; false + error on failure. */
    bool
    connect(const std::string &host, std::uint16_t port,
            std::size_t conns, std::string &error)
    {
        socks_.clear();
        for (std::size_t c = 0; c < conns; ++c) {
            socks_.push_back(serve::net::connectTcp(host, port, error));
            if (!socks_.back().valid())
                return false;
        }
        return true;
    }

    /**
     * Open loop: request i is sent at its scheduled instant as wire id
     * first_id + i, on connection i modulo the connection count. Returns
     * once every sent request is answered, or after kIdleLimitS without
     * any response.
     */
    std::vector<RequestRecord>
    run(const std::vector<RequestSpec> &plan, std::uint64_t first_id,
        const float *features, std::size_t dim)
    {
        // A short lead so the first request is not already late.
        const std::int64_t t0 = nowNs() + 2'000'000;
        return drive(plan, first_id, features, dim, nullptr,
                     [&](std::size_t i, std::int64_t &sched) {
                         sched = t0 + static_cast<std::int64_t>(
                                          plan[i].atSeconds * 1e9);
                         std::this_thread::sleep_until(Clock::time_point(
                             std::chrono::nanoseconds(sched)));
                         return true;
                     });
    }

    /**
     * Closed loop: send the plan's requests (ignoring their instants)
     * so that every connection keeps `depth` outstanding, for `seconds`.
     * The records of the unsent tail keep sentNs 0.
     */
    std::vector<RequestRecord>
    saturate(const std::vector<RequestSpec> &plan, std::uint64_t first_id,
             const float *features, std::size_t dim, std::size_t depth,
             double seconds)
    {
        Window window;
        window.outstanding.assign(socks_.size(), 0);
        const std::int64_t stop = nowNs() +
            static_cast<std::int64_t>(seconds * 1e9);
        return drive(plan, first_id, features, dim, &window,
                     [&](std::size_t i, std::int64_t &sched) {
                         const std::size_t c = i % socks_.size();
                         std::unique_lock<std::mutex> lock(window.mutex);
                         const bool room = window.cv.wait_until(
                             lock,
                             Clock::time_point(
                                 std::chrono::nanoseconds(stop)),
                             [&] {
                                 return window.outstanding[c] < depth;
                             });
                         if (!room || nowNs() >= stop)
                             return false;
                         ++window.outstanding[c];
                         sched = nowNs();
                         return true;
                     });
    }

  private:
    /** A phase gives up this long after the last response. */
    static constexpr double kIdleLimitS = 10.0;

    /** The closed loop's per-connection outstanding counts. */
    struct Window
    {
        std::mutex mutex;
        std::condition_variable cv;
        std::vector<std::size_t> outstanding;

        void
        release(std::size_t conn)
        {
            {
                std::lock_guard<std::mutex> lock(mutex);
                --outstanding[conn];
            }
            cv.notify_one();
        }
    };

    /**
     * Shared body of both modes. `pace(i, sched)` blocks until request
     * i may go, fills its scheduled instant, and returns false to stop
     * sending.
     */
    template <typename Pace>
    std::vector<RequestRecord>
    drive(const std::vector<RequestSpec> &plan, std::uint64_t first_id,
          const float *features, std::size_t dim, Window *window,
          const Pace &pace)
    {
        std::vector<RequestRecord> records(plan.size());
        std::vector<std::int64_t> sched(plan.size(), 0),
            sent(plan.size(), 0);
        std::atomic<std::size_t> sent_count{0};
        std::atomic<bool> sender_done{false};

        // jthread: joined on every path out of this function.
        std::jthread sender([&] {
            serve::net::WireClassifyRequest wire;
            wire.dim = static_cast<std::uint32_t>(dim);
            for (std::size_t i = 0; i < plan.size(); ++i) {
                const RequestSpec &spec = plan[i];
                wire.id = first_id + i;
                wire.mcSamples = spec.mcSamples;
                wire.deadlineMicros = spec.deadlineMicros;
                wire.count = static_cast<std::uint32_t>(spec.images.size());
                wire.features.clear();
                for (const std::uint32_t row : spec.images)
                    wire.features.insert(wire.features.end(),
                                         features + row * dim,
                                         features + (row + 1) * dim);
                const auto frame = serve::net::encodeClassifyRequest(wire);
                if (!pace(i, sched[i]))
                    break;
                const std::size_t c = i % socks_.size();
                sent[i] = nowNs();
                if (serve::net::writeAll(socks_[c], frame.data(),
                                         frame.size()))
                    sent_count.fetch_add(1, std::memory_order_release);
                else if (window)
                    window->release(c);
            }
            sender_done.store(true, std::memory_order_release);
        });

        receive(records, first_id, window, sent_count, sender_done);
        sender.join();

        for (std::size_t i = 0; i < records.size(); ++i) {
            RequestRecord &r = records[i];
            r.schedNs = sched[i];
            r.sentNs = sent[i];
            r.conn = static_cast<std::uint32_t>(i % socks_.size());
        }
        return records;
    }

    void
    receive(std::vector<RequestRecord> &records, std::uint64_t first_id,
            Window *window, const std::atomic<std::size_t> &sent_count,
            const std::atomic<bool> &sender_done)
    {
        namespace net = serve::net;
        std::vector<pollfd> fds(socks_.size());
        for (std::size_t c = 0; c < socks_.size(); ++c)
            fds[c] = pollfd{socks_[c].fd(), POLLIN, 0};
        std::size_t received = 0;
        std::int64_t last_progress = nowNs();
        for (;;) {
            const bool done = sender_done.load(std::memory_order_acquire);
            if (done &&
                received >= sent_count.load(std::memory_order_acquire))
                return;
            if (secondsSince(last_progress) > kIdleLimitS)
                return;
            if (::poll(fds.data(), fds.size(), 50) <= 0)
                continue;
            for (std::size_t c = 0; c < fds.size(); ++c) {
                if (fds[c].revents == 0)
                    continue;
                net::FrameType type;
                std::vector<std::uint8_t> payload;
                std::string error;
                if (!net::readFrame(socks_[c], type, payload, error)) {
                    // The connection is gone; nothing more will arrive
                    // on it, so stop polling it.
                    fds[c].fd = -1;
                    continue;
                }
                const std::int64_t at = nowNs();
                std::uint64_t id = 0;
                net::WireClassifyResponse response;
                bool answered = false;
                if (type == net::FrameType::ClassifyResponse &&
                    net::decodeClassifyResponse(
                        payload.data(), payload.size(), response, error)) {
                    id = response.id;
                    answered = true;
                } else if (type == net::FrameType::Error) {
                    net::WireError wire_error;
                    if (net::decodeError(payload.data(), payload.size(),
                                         wire_error, error))
                        id = wire_error.id;
                }
                if (window)
                    window->release(c);
                if (id < first_id || id - first_id >= records.size())
                    continue;
                RequestRecord &r = records[id - first_id];
                r.recvNs = at;
                r.answered = answered;
                r.response = std::move(response);
                ++received;
                last_progress = at;
            }
        }
    }

    std::vector<serve::net::Socket> socks_;
};

} // namespace vibnn::bench::e2e

#endif // VIBNN_BENCH_E2E_LOADGEN_HH
