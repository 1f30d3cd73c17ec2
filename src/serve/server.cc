#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/fault.hh"
#include "common/logging.hh"

namespace vibnn::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     start)
        .count();
}

/** Render a double for the metrics JSON (plain decimal, finite). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Is `host` a loopback bind? Covers the whole 127/8 block plus the
 *  spellings listenTcp accepts for it. */
bool
isLoopbackHost(const std::string &host)
{
    return host == "localhost" || host == "::1" ||
        host.rfind("127.", 0) == 0;
}

} // namespace

const char *
shardHealthName(ShardHealth health)
{
    switch (health) {
    case ShardHealth::Healthy:
        return "healthy";
    case ShardHealth::Degraded:
        return "degraded";
    case ShardHealth::Wedged:
        return "wedged";
    }
    return "healthy";
}

// ------------------------------------------------------ LatencyHistogram

// Bucket i covers (upper(i-1), upper(i)] with upper(i) = 1.25^i micros:
// ~25% relative error, 84 buckets reach ~1.3e8 us (~2 minutes).
double
LatencyHistogram::bucketUpperMicros(std::size_t i)
{
    return std::pow(1.25, static_cast<double>(i));
}

void
LatencyHistogram::record(double micros)
{
    const double v = std::max(micros, 0.0);
    // log_{1.25}(v) rounded up = the first bucket whose upper bound
    // covers v; clamp into range.
    std::size_t idx = 0;
    if (v > 1.0) {
        const double raw = std::ceil(std::log(v) / std::log(1.25));
        idx = static_cast<std::size_t>(
            std::min(raw, static_cast<double>(kBuckets - 1)));
    }
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
LatencyHistogram::count() const
{
    std::uint64_t total = 0;
    for (const auto &c : counts_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

double
LatencyHistogram::quantileMicros(double q) const
{
    std::uint64_t snapshot[kBuckets];
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        snapshot[i] = counts_[i].load(std::memory_order_relaxed);
        total += snapshot[i];
    }
    if (total == 0)
        return 0.0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    const std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(clamped * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += snapshot[i];
        if (seen >= target && snapshot[i] > 0)
            return bucketUpperMicros(i);
    }
    return bucketUpperMicros(kBuckets - 1);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        counts_[i].fetch_add(
            other.counts_[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Server

Server::Server(accel::QuantizedProgram program,
               const accel::AcceleratorConfig &config,
               ServerOptions options)
    : options_(std::move(options))
{
    if (options_.shards == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        options_.shards = hw > 0 ? hw : 1;
    }
    if (options_.queueCapacity == 0)
        fatal("serve::Server: queueCapacity must be >= 1");
    if (options_.maxConnections == 0)
        fatal("serve::Server: maxConnections must be >= 1");
    if (options_.watchdogMillis < 0)
        fatal("serve::Server: watchdogMillis must be >= 0");
    if (options_.wedgedAfterMillis < 1)
        fatal("serve::Server: wedgedAfterMillis must be >= 1");
    if (options_.brownout) {
        // Health transitions happen only on the watchdog thread, so
        // brownout without a watchdog would never engage — that is a
        // configuration bug, not a policy.
        if (options_.watchdogMillis == 0)
            fatal("serve::Server: brownout requires watchdogMillis "
                  "> 0 (health transitions run on the watchdog)");
        if (options_.brownoutSamples < 1)
            fatal("serve::Server: brownoutSamples must be >= 1");
        if (options_.brownoutEnterFraction <= 0.0 ||
            options_.brownoutEnterFraction > 1.0 ||
            options_.brownoutExitFraction < 0.0 ||
            options_.brownoutExitFraction >=
                options_.brownoutEnterFraction)
            fatal("serve::Server: brownout fractions must satisfy "
                  "0 <= exit < enter <= 1");
    }
    shutdownAllowed_ =
        options_.remoteShutdown == RemoteShutdown::Enabled ||
        (options_.remoteShutdown == RemoteShutdown::LoopbackOnly &&
         isLoopbackHost(options_.host));

    shards_.reserve(options_.shards);
    for (std::size_t i = 0; i < options_.shards; ++i) {
        auto shard = std::make_unique<Shard>();
        // Every shard is built from the SAME program / config /
        // options (one seed): which shard serves a request is
        // invisible in the outputs, which is the whole bit-exactness
        // story of the sharded server.
        shard->session = InferenceSession::Builder()
                             .program(program)
                             .accelerator(config)
                             .options(options_.session)
                             .build();
        shards_.push_back(std::move(shard));
    }
}

Server::~Server() { stop(); }

bool
Server::start(std::string &error)
{
    if (running_.load()) {
        error = "server already running";
        return false;
    }
    std::uint16_t bound = 0;
    listener_ =
        net::listenTcp(options_.host, options_.port, error, &bound);
    if (!listener_.valid())
        return false;
    boundPort_ = bound;
    stopping_.store(false);
    draining_.store(false);
    for (auto &shard : shards_)
        shard->health.store(
            static_cast<int>(ShardHealth::Healthy));
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        shutdownRequested_ = false;
    }
    startTime_ = Clock::now();
    running_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    if (options_.watchdogMillis > 0)
        watchdogThread_ = std::thread([this] { watchdogLoop(); });
    return true;
}

void
Server::beginDrain()
{
    if (draining_.exchange(true))
        return;
    // Held batches must dispatch now, not ride out their latency
    // budgets: flush every shard dispatcher's hold loop.
    for (auto &shard : shards_)
        shard->session->flushHolds();
}

void
Server::stop()
{
    if (!running_.exchange(false)) {
        // Still release anyone parked in waitForShutdownRequest().
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        shutdownRequested_ = true;
        shutdownCv_.notify_all();
        return;
    }
    // Drain before teardown: new classifies turn into deterministic
    // ShuttingDown error frames (their responses still go out on live
    // connections) while in-flight work completes. The wait is
    // bounded — a wedged pass must not hold shutdown hostage.
    beginDrain();
    const Clock::time_point drain_deadline =
        Clock::now() + std::chrono::seconds(5);
    for (;;) {
        std::size_t inflight = 0;
        for (const auto &shard : shards_)
            inflight += shard->inflight.load();
        if (inflight == 0 || Clock::now() >= drain_deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stopping_.store(true);
    // shutdown() unblocks the accept loop (a parked accept() returns
    // EINVAL); the close() — the write that invalidates the fd — must
    // wait until the accept thread is joined, or it races the
    // thread's fd reads inside acceptTcp.
    listener_.shutdownBoth();
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.close();
    if (watchdogThread_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(watchdogMutex_);
        }
        watchdogCv_.notify_all();
        watchdogThread_.join();
    }
    // Unblock every connection thread stuck in a read, then join.
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (auto &conn : connections_)
            conn->sock.shutdownBoth();
    }
    reapConnections(true);
    for (auto &shard : shards_)
        shard->session->drain();
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
}

bool
Server::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(shutdownMutex_);
    return shutdownRequested_;
}

void
Server::waitForShutdownRequest()
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
}

void
Server::reapConnections(bool all)
{
    std::vector<std::unique_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        auto it = connections_.begin();
        while (it != connections_.end()) {
            if (all || (*it)->done.load()) {
                finished.push_back(std::move(*it));
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &conn : finished)
        if (conn->thread.joinable())
            conn->thread.join();
}

void
Server::watchdogLoop()
{
    // Per-shard wedge latch: one watchdog trip per wedge EVENT, not
    // per poll tick that observes it.
    std::vector<bool> latched(shards_.size(), false);
    std::unique_lock<std::mutex> lock(watchdogMutex_);
    while (!stopping_.load()) {
        watchdogCv_.wait_for(
            lock, std::chrono::milliseconds(options_.watchdogMillis),
            [this] { return stopping_.load(); });
        if (stopping_.load())
            return;
        lock.unlock();
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            Shard &shard = *shards_[i];
            const std::int64_t pass_micros =
                shard.session->currentPassMicros();
            if (pass_micros >
                options_.wedgedAfterMillis * 1000) {
                // The pass has blown far past any sane duration: the
                // shard thread is stuck inside the engine and cannot
                // be interrupted — route around it until the pass
                // finally completes.
                if (!latched[i]) {
                    latched[i] = true;
                    watchdogTrips_.fetch_add(1);
                }
                shard.health.store(
                    static_cast<int>(ShardHealth::Wedged));
                continue;
            }
            latched[i] = false;
            auto health =
                static_cast<ShardHealth>(shard.health.load());
            if (health == ShardHealth::Wedged)
                health = ShardHealth::Healthy; // pass completed
            if (options_.brownout) {
                const double depth = static_cast<double>(
                    shard.inflight.load());
                const double cap = static_cast<double>(
                    options_.queueCapacity);
                if (health != ShardHealth::Degraded &&
                    depth >= options_.brownoutEnterFraction * cap)
                    health = ShardHealth::Degraded;
                else if (health == ShardHealth::Degraded &&
                         depth <=
                             options_.brownoutExitFraction * cap)
                    health = ShardHealth::Healthy;
            }
            shard.health.store(static_cast<int>(health));
        }
        lock.lock();
    }
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        std::string error;
        net::Socket client = acceptTcp(listener_, error);
        if (!client.valid()) {
            if (stopping_.load())
                break;
            // acceptTcp already retried EINTR, so this is a real
            // error — possibly a persistent one (EMFILE/ENFILE under
            // fd exhaustion). Back off briefly so the accept thread
            // cannot spin a core, and say so once.
            if (!acceptFailureLogged_.exchange(true))
                warn("serve::Server: accept failed (" + error +
                     "); backing off");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            continue;
        }
        if (VIBNN_FAULT("serve.accept.fail")) {
            // Injected accept failure: the connection is accepted by
            // the kernel and immediately dropped — the client sees an
            // instant EOF, the accept loop keeps serving.
            continue;
        }
        reapConnections(false);
        std::size_t active;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            active = connections_.size();
        }
        if (active >= options_.maxConnections) {
            sendError(client, 0, net::ErrorCode::Overloaded,
                      "connection limit reached");
            continue; // client destructor closes the socket
        }
        auto conn = std::make_unique<Connection>();
        conn->sock = std::move(client);
        Connection *raw = conn.get();
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            connections_.push_back(std::move(conn));
        }
        raw->thread = std::thread([this, raw] {
            serveConnection(*raw);
            // The Connection object is reaped lazily (next accept or
            // shutdown); shut the socket down NOW so the peer sees
            // EOF the moment service ends, not when the reaper runs.
            raw->sock.shutdownBoth();
            raw->done.store(true);
        });
    }
}

bool
Server::sendError(const net::Socket &sock, std::uint64_t id,
                  net::ErrorCode code, const std::string &message)
{
    net::WireError err;
    err.id = id;
    err.code = code;
    err.message = message;
    const std::vector<std::uint8_t> frame = net::encodeError(err);
    return net::writeAll(sock, frame.data(), frame.size());
}

Server::Shard &
Server::pickShard()
{
    // Two-pass routing: least-loaded among the non-Wedged shards; if
    // EVERY shard is wedged there is nothing to route around, so fall
    // back to plain least-loaded (the request queues behind the
    // stuck pass rather than being dropped).
    std::size_t best = shards_.size();
    std::size_t best_load = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i]->health.load() ==
            static_cast<int>(ShardHealth::Wedged))
            continue;
        const std::size_t load = shards_[i]->inflight.load();
        if (load < best_load) {
            best_load = load;
            best = i;
        }
    }
    if (best < shards_.size())
        return *shards_[best];
    best = 0;
    best_load = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const std::size_t load = shards_[i]->inflight.load();
        if (load < best_load) {
            best_load = load;
            best = i;
        }
    }
    return *shards_[best];
}

ShardHealth
Server::shardHealth(std::size_t i) const
{
    return static_cast<ShardHealth>(shards_[i]->health.load());
}

bool
Server::handleClassify(Connection &conn,
                       const std::vector<std::uint8_t> &payload)
{
    const auto received = Clock::now();
    net::WireClassifyRequest wire;
    std::string error;
    if (!net::decodeClassifyRequest(payload.data(), payload.size(),
                                    wire, error)) {
        // The frame boundary was intact (readFrame consumed exactly
        // the declared payload), so the connection survives a bad
        // request body.
        return sendError(conn.sock, wire.id, net::ErrorCode::BadRequest,
                         error);
    }

    if (draining_.load()) {
        // Deterministic refusal during drain: every would-be classify
        // gets an explicit ShuttingDown frame, so a retrying client
        // knows to fail over instead of hammering a dying server.
        return sendError(conn.sock, wire.id,
                         net::ErrorCode::ShuttingDown,
                         "server is draining");
    }

    Shard &shard = pickShard();
    if (wire.retryAttempt > 0)
        shard.retriesObserved.fetch_add(1);
    // Admission control: reserve a slot; over capacity => explicit
    // rejection, never an unbounded queue.
    const std::size_t load = shard.inflight.fetch_add(1) + 1;
    if (load > options_.queueCapacity) {
        shard.inflight.fetch_sub(1);
        shard.rejects.fetch_add(1);
        return sendError(conn.sock, wire.id, net::ErrorCode::Overloaded,
                         "shard queue full");
    }

    InferenceRequest request = InferenceRequest::copy(
        wire.features.data(), wire.count, wire.dim);
    // Clamped so a huge wire value is refused as too large, not as
    // negative.
    request.mcSamples = static_cast<int>(std::min<std::uint32_t>(
        wire.mcSamples, std::numeric_limits<int>::max()));
    request.deadlineMicros = wire.deadlineMicros;

    // A request the session would refuse comes back as an error frame,
    // never a server-side fatal(): the session's own check decides.
    const InferenceSession &session = *shard.session;
    const std::string refusal = session.requestError(request);
    if (!refusal.empty()) {
        shard.inflight.fetch_sub(1);
        return sendError(conn.sock, wire.id, net::ErrorCode::BadRequest,
                         refusal);
    }

    // Brownout: a Degraded shard degrades service instead of refusing
    // it — the request runs at the reduced ensemble size and the
    // response says so (degraded flag + the T actually achieved in
    // mcSamples). Bit-exactness is per (program, seed, T, images), so
    // a browned-out response is exactly the T=brownoutSamples answer.
    std::uint8_t response_flags = 0;
    if (options_.brownout &&
        shard.health.load() ==
            static_cast<int>(ShardHealth::Degraded)) {
        const int requested =
            wire.mcSamples > 0
                ? static_cast<int>(wire.mcSamples)
                : shard.session->options().mcSamples;
        if (requested > options_.brownoutSamples) {
            request.mcSamples = options_.brownoutSamples;
            response_flags |= net::kResponseFlagDegraded;
            shard.brownoutPasses.fetch_add(1);
        }
    }

    ResultHandle handle = shard.session->submit(std::move(request));
    InferenceResult result = handle.get();
    shard.inflight.fetch_sub(1);

    std::uint64_t rounds = 0;
    for (const Prediction &p : result.predictions)
        rounds += static_cast<std::uint64_t>(
            std::max(p.achievedSamples, 0));
    shard.rounds.fetch_add(rounds);
    const double latency = microsSince(received);
    shard.latency.record(latency);

    net::WireClassifyResponse response;
    response.id = wire.id; // echo the wire id, not the session's
    response.mcSamples = static_cast<std::uint32_t>(result.mcSamples);
    response.outDim =
        static_cast<std::uint32_t>(session.outputDim());
    response.meanRounds = result.meanRounds;
    response.serverMicros = latency;
    response.flags = response_flags;
    response.predictions.reserve(result.predictions.size());
    for (const Prediction &p : result.predictions) {
        net::WirePrediction wp;
        wp.predicted = static_cast<std::uint32_t>(p.predicted);
        wp.achievedSamples =
            static_cast<std::uint32_t>(std::max(p.achievedSamples, 0));
        wp.exitReason = static_cast<std::uint8_t>(p.exitReason);
        wp.confidence = p.confidence;
        wp.entropy = p.entropy;
        wp.mutualInformation = p.mutualInformation;
        wp.probs = p.probs;
        response.predictions.push_back(std::move(wp));
    }
    const std::vector<std::uint8_t> frame =
        net::encodeClassifyResponse(response);
    if (VIBNN_FAULT("serve.response.delay")) {
        // Slow response: the frame goes out intact but late — what a
        // GC pause or an overloaded NIC looks like to the client.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            fault::fireDelayMillis("serve.response.delay", 50)));
    }
    if (VIBNN_FAULT("serve.response.torn")) {
        // Torn response: half the frame, then the connection dies —
        // the client's decoder must reject the stub and its retry
        // path must recover the answer on a fresh connection.
        net::writeAll(conn.sock, frame.data(), frame.size() / 2);
        return false;
    }
    return net::writeAll(conn.sock, frame.data(), frame.size());
}

void
Server::serveConnection(Connection &conn)
{
    while (!stopping_.load()) {
        net::FrameType type;
        std::vector<std::uint8_t> payload;
        std::string error;
        if (!net::readFrame(conn.sock, type, payload, error))
            break; // EOF, garbage header, or shutdown — close quietly
        if (VIBNN_FAULT("serve.conn.drop"))
            break; // injected mid-session disconnect
        bool ok = true;
        switch (type) {
        case net::FrameType::Ping:
            ok = net::writeFrame(conn.sock, net::FrameType::Pong);
            break;
        case net::FrameType::MetricsRequest: {
            const std::vector<std::uint8_t> frame =
                net::encodeMetricsResponse(metricsJson());
            ok = net::writeAll(conn.sock, frame.data(), frame.size());
            break;
        }
        case net::FrameType::ClassifyRequest:
            ok = handleClassify(conn, payload);
            break;
        case net::FrameType::Shutdown:
            // Any connected peer can send this frame, so honor it
            // only under the configured RemoteShutdown policy — on a
            // non-loopback bind it would otherwise be an
            // unauthenticated kill switch.
            if (!shutdownAllowed_) {
                ok = sendError(conn.sock, 0,
                               net::ErrorCode::BadRequest,
                               "remote shutdown disabled on this "
                               "server (RemoteShutdown policy)");
                break;
            }
            // Acknowledge, then wake waitForShutdownRequest(). The
            // owner thread drives the actual stop() — a connection
            // thread cannot join itself.
            net::writeFrame(conn.sock, net::FrameType::ShutdownAck);
            {
                std::lock_guard<std::mutex> lock(shutdownMutex_);
                shutdownRequested_ = true;
            }
            shutdownCv_.notify_all();
            return;
        default:
            ok = sendError(conn.sock, 0, net::ErrorCode::BadRequest,
                           "unexpected frame type");
            break;
        }
        if (!ok)
            break;
    }
}

ServerStats
Server::stats() const
{
    ServerStats out;
    out.shards.reserve(shards_.size());
    LatencyHistogram aggregate;
    for (const auto &shard : shards_) {
        const InferenceSession::Counters counters =
            shard->session->counters();
        ShardStats s;
        s.requests = counters.requests;
        s.images = counters.images;
        s.rejects = shard->rejects.load();
        s.passes = counters.passes;
        s.coalescedPasses = counters.coalescedPasses;
        s.heldPasses = counters.heldPasses;
        s.rounds = shard->rounds.load();
        s.queueDepth = shard->inflight.load();
        if (counters.passes > 0) {
            s.mergeImagesPerPass =
                static_cast<double>(counters.images) /
                static_cast<double>(counters.passes);
            s.mergeRequestsPerPass =
                static_cast<double>(counters.requests) /
                static_cast<double>(counters.passes);
        }
        s.p50Micros = shard->latency.quantileMicros(0.50);
        s.p95Micros = shard->latency.quantileMicros(0.95);
        s.p99Micros = shard->latency.quantileMicros(0.99);
        s.health = static_cast<ShardHealth>(shard->health.load());
        s.brownoutPasses = shard->brownoutPasses.load();
        s.retriesObserved = shard->retriesObserved.load();
        aggregate.merge(shard->latency);
        out.requests += s.requests;
        out.images += s.images;
        out.rejects += s.rejects;
        out.rounds += s.rounds;
        out.brownoutPasses += s.brownoutPasses;
        out.retriesObserved += s.retriesObserved;
        out.shards.push_back(std::move(s));
    }
    out.watchdogTrips = watchdogTrips_.load();
    out.faultFires = fault::totalFires();
    out.draining = draining_.load();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        out.activeConnections = connections_.size();
    }
    if (running_.load())
        out.uptimeSeconds = microsSince(startTime_) / 1e6;
    if (out.uptimeSeconds > 0.0)
        out.roundsPerSecond =
            static_cast<double>(out.rounds) / out.uptimeSeconds;
    out.p50Micros = aggregate.quantileMicros(0.50);
    out.p95Micros = aggregate.quantileMicros(0.95);
    out.p99Micros = aggregate.quantileMicros(0.99);
    return out;
}

std::string
Server::metricsJson() const
{
    const ServerStats s = stats();
    std::ostringstream os;
    os << "{";
    os << "\"requests\": " << s.requests;
    os << ", \"images\": " << s.images;
    os << ", \"rejects\": " << s.rejects;
    os << ", \"rounds\": " << s.rounds;
    os << ", \"active_connections\": " << s.activeConnections;
    os << ", \"uptime_seconds\": " << jsonNumber(s.uptimeSeconds);
    os << ", \"rounds_per_s\": " << jsonNumber(s.roundsPerSecond);
    os << ", \"p50_us\": " << jsonNumber(s.p50Micros);
    os << ", \"p95_us\": " << jsonNumber(s.p95Micros);
    os << ", \"p99_us\": " << jsonNumber(s.p99Micros);
    os << ", \"brownout_passes\": " << s.brownoutPasses;
    os << ", \"retries_observed\": " << s.retriesObserved;
    os << ", \"watchdog_trips\": " << s.watchdogTrips;
    os << ", \"fault_fires\": " << s.faultFires;
    os << ", \"draining\": " << (s.draining ? 1 : 0);
    // Per-site hit/fire counters of the armed chaos profile; "{}" in
    // every unarmed (production) process.
    os << ", \"faults\": " << fault::faultsJson();
    os << ", \"shards\": [";
    for (std::size_t i = 0; i < s.shards.size(); ++i) {
        const ShardStats &sh = s.shards[i];
        if (i > 0)
            os << ", ";
        os << "{\"shard\": " << i;
        os << ", \"requests\": " << sh.requests;
        os << ", \"images\": " << sh.images;
        os << ", \"rejects\": " << sh.rejects;
        os << ", \"passes\": " << sh.passes;
        os << ", \"coalesced_passes\": " << sh.coalescedPasses;
        os << ", \"held_passes\": " << sh.heldPasses;
        os << ", \"rounds\": " << sh.rounds;
        os << ", \"queue_depth\": " << sh.queueDepth;
        os << ", \"merge_images_per_pass\": "
           << jsonNumber(sh.mergeImagesPerPass);
        os << ", \"merge_requests_per_pass\": "
           << jsonNumber(sh.mergeRequestsPerPass);
        os << ", \"p50_us\": " << jsonNumber(sh.p50Micros);
        os << ", \"p95_us\": " << jsonNumber(sh.p95Micros);
        os << ", \"p99_us\": " << jsonNumber(sh.p99Micros);
        os << ", \"health\": \"" << shardHealthName(sh.health)
           << "\"";
        os << ", \"brownout_passes\": " << sh.brownoutPasses;
        os << ", \"retries_observed\": " << sh.retriesObserved;
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace vibnn::serve
