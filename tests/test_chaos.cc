/**
 * @file
 * Chaos tests: the serving stack under injected faults. Every scenario
 * arms the deterministic fault registry (common/fault.hh) at a named
 * production injection site and asserts the documented recovery story:
 * client receive deadlines fail fast instead of hanging, retry/backoff
 * recovers losses bit-exactly (a replayed id is a safe replay — the
 * response is a pure function of (program, seed, T, images)), the
 * watchdog trips on a stuck pass and heals when it completes, brownout
 * degrades service honestly (flagged, reduced-T, still bit-exact for
 * that T), drain answers with deterministic ShuttingDown frames, and
 * weight-arena bit flips are deterministic across thread counts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accel/program.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/fault.hh"
#include "common/rng.hh"
#include "serve/client.hh"
#include "serve/net/socket.hh"
#include "serve/server.hh"
#include "serve/session.hh"

using namespace vibnn;
using namespace vibnn::serve;

namespace
{

accel::AcceleratorConfig
smallConfig(int mc_samples = 8)
{
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = mc_samples;
    return config;
}

accel::QuantizedProgram
mlpProgram(const accel::AcceleratorConfig &config, std::uint64_t seed)
{
    Rng rng(seed);
    bnn::BayesianMlp net({24, 16, 4}, rng, -3.0f);
    return compile(net, config);
}

std::vector<float>
randomBatch(std::size_t count, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> xs(count * dim);
    for (auto &v : xs)
        v = static_cast<float>(rng.uniform());
    return xs;
}

SessionOptions
throughputOptions()
{
    SessionOptions opts;
    opts.mode = ExecMode::Throughput;
    opts.seed = 211;
    return opts;
}

std::unique_ptr<Server>
startServer(const accel::AcceleratorConfig &config,
            ServerOptions options)
{
    auto server = std::make_unique<Server>(mlpProgram(config, 7),
                                           config, options);
    std::string error;
    EXPECT_TRUE(server->start(error)) << error;
    return server;
}

/** Shard 0's in-flight request count once it reads `depth`, or what
 *  it reads after 5 s: a client thread's request is admitted at an
 *  unknown time after it starts, so a test waits on this, not on a
 *  sleep. */
std::size_t
awaitQueueDepth(const Server &server, std::size_t depth)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::size_t seen = server.stats().shards.at(0).queueDepth;
    while (seen != depth && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        seen = server.stats().shards.at(0).queueDepth;
    }
    return seen;
}

std::unique_ptr<InferenceSession>
referenceSession(const accel::AcceleratorConfig &config,
                 const SessionOptions &opts)
{
    return InferenceSession::Builder()
        .program(mlpProgram(config, 7))
        .accelerator(config)
        .options(opts)
        .build();
}

/** Recovered replies carry the exact bytes of the fault-free answer. */
void
expectBitExact(const Client::Reply &reply,
               const InferenceResult &reference)
{
    ASSERT_TRUE(reply.ok()) << reply.message;
    const auto &resp = reply.response;
    ASSERT_EQ(resp.predictions.size(), reference.predictions.size());
    EXPECT_EQ(static_cast<int>(resp.mcSamples), reference.mcSamples);
    for (std::size_t i = 0; i < resp.predictions.size(); ++i) {
        const auto &served = resp.predictions[i];
        const auto &ref = reference.predictions[i];
        EXPECT_EQ(served.predicted, ref.predicted);
        ASSERT_EQ(served.probs.size(), ref.probs.size());
        EXPECT_EQ(std::memcmp(served.probs.data(), ref.probs.data(),
                              ref.probs.size() * sizeof(float)),
                  0)
            << "probs diverged at image " << i;
        EXPECT_EQ(served.entropy, ref.entropy);
    }
}

/** Arm a spec or fail the test with the parser's complaint. */
void
arm(const std::string &spec)
{
    std::string error;
    ASSERT_TRUE(fault::armSpec(spec, error)) << error;
}

/** Chaos arms the process-global registry; never leak it. */
class Chaos : public ::testing::Test
{
  protected:
    void SetUp() override { fault::disarm(); }
    void TearDown() override { fault::disarm(); }
};

} // anonymous namespace

// --------------------------------------------------- receive deadlines

TEST_F(Chaos, ReceiveDeadlineFailsFastAgainstASilentPeer)
{
    // A listener that never accepts: connect() succeeds out of the
    // backlog, the request write lands in kernel buffers, and then
    // nothing ever answers — exactly the wedged-server shape. The old
    // blocking client hung here forever; the poll-based deadline turns
    // it into a crisp Timeout.
    std::string error;
    std::uint16_t port = 0;
    net::Socket listener = net::listenTcp("127.0.0.1", 0, error, &port);
    ASSERT_TRUE(listener.valid()) << error;

    Client client;
    client.setReceiveTimeout(100);
    ASSERT_TRUE(client.connect("127.0.0.1", port, error)) << error;

    const auto xs = randomBatch(1, 24, 1);
    const auto t0 = std::chrono::steady_clock::now();
    const auto reply = client.classify(xs.data(), 1, 24);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(reply.status, Client::Status::Timeout);
    EXPECT_FALSE(reply.message.empty());
    EXPECT_GE(elapsed, 90);
    EXPECT_LT(elapsed, 5000) << "deadline did not bound the wait";
}

TEST_F(Chaos, DelayedResponseTimesOutThenRetrySucceedsBitExact)
{
    const auto config = smallConfig(8);
    const SessionOptions session = throughputOptions();
    auto reference = referenceSession(config, session);
    const std::size_t dim = reference->inputDim();
    const auto xs = randomBatch(2, dim, 31);

    ServerOptions options;
    options.session = session;
    auto server = startServer(config, options);

    // First classify response held back 400 ms against a 100 ms
    // receive deadline: attempt 1 times out, attempt 2 reconnects and
    // gets the ordinary fast answer.
    arm("serve.response.delay:nth=1+delay=400");

    Client client;
    client.setReceiveTimeout(100);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    const auto reply = client.classify(
        xs.data(), 2, dim, Client::Options(),
        Client::RetryPolicy::attempts(3, 5));
    EXPECT_EQ(reply.attempts, 2);
    expectBitExact(reply, reference->run(InferenceRequest::borrow(
                              xs.data(), 2, dim)));

    // The retried request stamped its attempt number on the wire.
    const ServerStats stats = server->stats();
    EXPECT_GE(stats.retriesObserved, 1u);
    EXPECT_GE(stats.faultFires, 1u);
    server->stop();
}

// ----------------------------------------------- transport-loss retry

TEST_F(Chaos, TornResponseIsRetriedBitExact)
{
    const auto config = smallConfig(8);
    const SessionOptions session = throughputOptions();
    auto reference = referenceSession(config, session);
    const std::size_t dim = reference->inputDim();
    const auto xs = randomBatch(1, dim, 32);

    ServerOptions options;
    options.session = session;
    auto server = startServer(config, options);
    // Half the response frame, then the connection dies mid-message.
    arm("serve.response.torn:nth=1");

    Client client;
    client.setReceiveTimeout(2000);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    const auto reply = client.classify(
        xs.data(), 1, dim, Client::Options(),
        Client::RetryPolicy::attempts(3, 5));
    EXPECT_EQ(reply.attempts, 2);
    expectBitExact(reply, reference->run(InferenceRequest::borrow(
                              xs.data(), 1, dim)));
    server->stop();
}

TEST_F(Chaos, TornRequestWriteIsRetried)
{
    const auto config = smallConfig(8);
    const SessionOptions session = throughputOptions();
    auto reference = referenceSession(config, session);
    const std::size_t dim = reference->inputDim();
    const auto xs = randomBatch(1, dim, 33);

    ServerOptions options;
    options.session = session;
    auto server = startServer(config, options);

    Client client;
    client.setReceiveTimeout(2000);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    // The client's own request write tears: half the frame leaves,
    // writeAll reports failure, and the retry path must reconnect
    // (the server is still waiting on the dangling half-frame).
    arm("net.write.torn:nth=1");
    const auto reply = client.classify(
        xs.data(), 1, dim, Client::Options(),
        Client::RetryPolicy::attempts(3, 5));
    EXPECT_EQ(reply.attempts, 2);
    expectBitExact(reply, reference->run(InferenceRequest::borrow(
                              xs.data(), 1, dim)));
    server->stop();
}

TEST_F(Chaos, DroppedConnectionIsRetried)
{
    const auto config = smallConfig(8);
    const SessionOptions session = throughputOptions();
    auto reference = referenceSession(config, session);
    const std::size_t dim = reference->inputDim();
    const auto xs = randomBatch(1, dim, 34);

    ServerOptions options;
    options.session = session;
    auto server = startServer(config, options);

    Client client;
    client.setReceiveTimeout(2000);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    // The server hangs up right after reading the request frame.
    arm("serve.conn.drop:nth=1");
    const auto reply = client.classify(
        xs.data(), 1, dim, Client::Options(),
        Client::RetryPolicy::attempts(3, 5));
    EXPECT_EQ(reply.attempts, 2);
    expectBitExact(reply, reference->run(InferenceRequest::borrow(
                              xs.data(), 1, dim)));
    server->stop();
}

TEST_F(Chaos, RetriesExhaustIntoTheLastFailure)
{
    const auto config = smallConfig(8);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);

    Client client;
    client.setReceiveTimeout(1000);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    // Every delivery attempt gets its connection dropped.
    arm("serve.conn.drop:always");
    const auto xs = randomBatch(1, 24, 35);
    const auto reply = client.classify(
        xs.data(), 1, 24, Client::Options(),
        Client::RetryPolicy::attempts(3, 5));
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.attempts, 3);
    EXPECT_FALSE(reply.message.empty());
    fault::disarm(); // let the server shut down cleanly
    server->stop();
}

// ------------------------------------------------- watchdog + brownout

TEST_F(Chaos, StuckPassTripsTheWatchdogOnceAndHealthRecovers)
{
    const auto config = smallConfig(8);
    ServerOptions options;
    options.session = throughputOptions();
    options.shards = 1;
    options.watchdogMillis = 10;
    options.wedgedAfterMillis = 50;
    auto server = startServer(config, options);

    // One pass sleeps 300 ms inside the engine — far past the 50 ms
    // wedge threshold, so the watchdog must mark the shard Wedged
    // (and count exactly one trip: the latch absorbs repeat polls).
    arm("serve.pass.stuck:nth=1+delay=300");

    Client client;
    client.setReceiveTimeout(5000);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    const auto xs = randomBatch(1, 24, 41);
    const auto reply = client.classify(xs.data(), 1, 24);
    EXPECT_TRUE(reply.ok()) << reply.message; // slow, not lost

    // The pass completed, so the next watchdog poll heals the shard.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (server->shardHealth(0) != ShardHealth::Healthy &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(server->shardHealth(0), ShardHealth::Healthy);

    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.watchdogTrips, 1u);
    server->stop();
}

TEST_F(Chaos, BrownoutDegradesHonestlyUnderQueuePressure)
{
    const auto config = smallConfig(8);
    SessionOptions session = throughputOptions();
    // A held request keeps the shard's only traffic in flight long
    // enough for the watchdog to see the pressure.
    session.defaultDeadlineMicros = 400'000;
    auto reference = referenceSession(config, throughputOptions());
    const std::size_t dim = reference->inputDim();

    ServerOptions options;
    options.session = session;
    options.shards = 1;
    options.queueCapacity = 4;
    options.watchdogMillis = 5;
    options.brownout = true;
    options.brownoutSamples = 2;
    options.brownoutEnterFraction = 0.25; // inflight >= 1 of 4
    options.brownoutExitFraction = 0.1;
    auto server = startServer(config, options);

    const auto xs_held = randomBatch(1, dim, 42);
    Client::Reply held_reply;
    std::thread holder([&] {
        Client c;
        c.setReceiveTimeout(5000);
        std::string error;
        ASSERT_TRUE(c.connect("127.0.0.1", server->port(), error));
        held_reply = c.classify(xs_held.data(), 1, dim);
    });

    // Wait for the watchdog to observe the held in-flight request.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (server->shardHealth(0) != ShardHealth::Degraded &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(server->shardHealth(0), ShardHealth::Degraded);

    // A T=8 request against the browned-out shard runs at T=2, says
    // so via the degraded flag — and is bit-exact for the T it ran.
    Client client;
    client.setReceiveTimeout(5000);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    Client::Options copts;
    copts.mcSamples = 8;
    copts.deadlineMicros = 1000; // dispatch promptly
    const auto reply = client.classify(xs_held.data(), 1, dim, copts);
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_TRUE(reply.degraded());
    EXPECT_EQ(reply.response.mcSamples, 2u);
    InferenceRequest ref_request =
        InferenceRequest::borrow(xs_held.data(), 1, dim);
    ref_request.mcSamples = 2;
    expectBitExact(reply, reference->run(ref_request));

    holder.join();
    EXPECT_TRUE(held_reply.ok()) << held_reply.message;
    EXPECT_FALSE(held_reply.degraded()); // T=8 ran at full strength

    const ServerStats stats = server->stats();
    EXPECT_GE(stats.brownoutPasses, 1u);
    server->stop();
}

// ------------------------------------------------------ drain and stop

TEST_F(Chaos, DrainAnswersClassifyWithShuttingDownButStaysObservable)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);

    Client client;
    client.setReceiveTimeout(2000);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    ASSERT_TRUE(client.classify(randomBatch(1, 24, 5).data(), 1, 24)
                    .ok());

    server->beginDrain();
    const auto xs = randomBatch(1, 24, 6);
    const auto reply = client.classify(xs.data(), 1, 24);
    EXPECT_EQ(reply.status, Client::Status::ShuttingDown);
    EXPECT_FALSE(reply.message.empty());

    // Liveness and metrics stay up through the drain — operators need
    // them most while the server is going away.
    EXPECT_TRUE(client.ping(error)) << error;
    std::string json;
    ASSERT_TRUE(client.metrics(json, error)) << error;
    EXPECT_NE(json.find("\"draining\": 1"), std::string::npos) << json;
    server->stop();
}

TEST_F(Chaos, StopFlushesHeldRequestsInsteadOfWaitingOutTheirBudgets)
{
    const auto config = smallConfig(8);
    SessionOptions session = throughputOptions();
    session.defaultDeadlineMicros = 2'000'000; // 2 s hold license
    auto reference = referenceSession(config, throughputOptions());
    const std::size_t dim = reference->inputDim();

    ServerOptions options;
    options.session = session;
    options.shards = 1;
    options.queueCapacity = 8;
    auto server = startServer(config, options);

    const auto xs = randomBatch(1, dim, 43);
    Client::Reply reply;
    std::thread held([&] {
        Client c;
        c.setReceiveTimeout(5000);
        std::string error;
        ASSERT_TRUE(c.connect("127.0.0.1", server->port(), error));
        reply = c.classify(xs.data(), 1, dim);
    });
    // Stop only once the request is admitted and held: before that the
    // drain finds nothing in flight and closes the client's socket.
    EXPECT_EQ(awaitQueueDepth(*server, 1), 1u);

    // stop() drains: the held request's pass runs NOW and its response
    // flushes before sockets come down — well inside the 2 s budget
    // the hold was licensed for.
    const auto t0 = std::chrono::steady_clock::now();
    server->stop();
    const auto stop_millis =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(stop_millis, 1500)
        << "stop() waited out the hold budget instead of flushing";

    held.join();
    expectBitExact(reply, reference->run(InferenceRequest::borrow(
                              xs.data(), 1, dim)));
}

// -------------------------------------------------------- observability

TEST_F(Chaos, MetricsExposeResilienceCountersAndFaultSites)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    options.watchdogMillis = 10;
    auto server = startServer(config, options);
    arm("serve.response.delay:nth=1+delay=50");

    Client client;
    client.setReceiveTimeout(2000);
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    ASSERT_TRUE(client.classify(randomBatch(1, 24, 9).data(), 1, 24)
                    .ok());

    std::string json;
    ASSERT_TRUE(client.metrics(json, error)) << error;
    for (const char *key :
         {"\"retries_observed\"", "\"brownout_passes\"",
          "\"watchdog_trips\"", "\"fault_fires\"", "\"draining\"",
          "\"health\": \"healthy\"", "\"faults\"",
          "\"serve.response.delay\""}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "metrics JSON missing " << key << "\n"
            << json;
    }
    server->stop();
}

// ------------------------------------------------- bit-flip resilience

TEST_F(Chaos, WeightBitFlipsAreDeterministicAcrossThreadCounts)
{
    // The flip pattern is seeded from a content hash of the drawn
    // arena — and the arena is bit-identical for any intra-pass shard
    // count — so a chaos run must produce byte-identical results no
    // matter how the round was parallelized.
    const auto config = smallConfig(8);
    const auto xs = randomBatch(4, 24, 77);

    auto runWith = [&](std::size_t threads) {
        SessionOptions opts = throughputOptions();
        opts.threads = threads;
        auto session = referenceSession(config, opts);
        return session->run(
            InferenceRequest::borrow(xs.data(), 4, 24));
    };

    const auto clean = runWith(1);

    arm("accel.weights.bitflip:p=0.02");
    const auto flipped1 = runWith(1);
    const std::uint64_t fires_after_first =
        fault::fires("accel.weights.bitflip");
    EXPECT_GT(fires_after_first, 0u) << "no bits flipped at p=0.02";
    const auto flipped4 = runWith(4);

    ASSERT_EQ(flipped1.predictions.size(), flipped4.predictions.size());
    bool any_prob_changed = false;
    for (std::size_t i = 0; i < flipped1.predictions.size(); ++i) {
        const auto &a = flipped1.predictions[i];
        const auto &b = flipped4.predictions[i];
        EXPECT_EQ(a.predicted, b.predicted);
        ASSERT_EQ(a.probs.size(), b.probs.size());
        EXPECT_EQ(std::memcmp(a.probs.data(), b.probs.data(),
                              a.probs.size() * sizeof(float)),
                  0)
            << "thread count changed the faulted result at image " << i;
        if (std::memcmp(a.probs.data(),
                        clean.predictions[i].probs.data(),
                        a.probs.size() * sizeof(float)) != 0)
            any_prob_changed = true;
    }
    EXPECT_TRUE(any_prob_changed)
        << "bit flips at p=0.02 left every output untouched";
}
