/**
 * @file
 * End-to-end tests of the vibnn-serve network server: socket-served
 * predictions bit-identical to in-process InferenceSession::run()
 * under any shard count and connection interleaving, per-request T
 * overrides over the wire, deterministic overload rejection from
 * admission control, held (deadline-licensed) coalescing across
 * connections, malformed-byte resilience (error frames / clean close,
 * never a crash or hang), the metrics endpoint, and the client-driven
 * shutdown handshake.
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
#include "common/rng.hh"
#include "serve/client.hh"
#include "serve/net/protocol.hh"
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

/** Reference in-process session, configured exactly like a shard. */
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

/** The served reply must be byte-for-byte the run() result. */
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
        EXPECT_EQ(served.achievedSamples,
                  static_cast<std::uint32_t>(ref.achievedSamples));
        EXPECT_EQ(served.exitReason,
                  static_cast<std::uint8_t>(ref.exitReason));
        ASSERT_EQ(served.probs.size(), ref.probs.size());
        EXPECT_EQ(std::memcmp(served.probs.data(), ref.probs.data(),
                              ref.probs.size() * sizeof(float)),
                  0)
            << "probs diverged at image " << i;
        EXPECT_EQ(std::memcmp(&served.confidence, &ref.confidence,
                              sizeof(float)),
                  0);
        EXPECT_EQ(served.entropy, ref.entropy);
        EXPECT_EQ(served.mutualInformation, ref.mutualInformation);
    }
}

} // anonymous namespace

// --------------------------------------------------------- bit-exactness

TEST(Server, ServedPredictionsMatchRunBitExactAcrossShardCounts)
{
    const auto config = smallConfig(8);
    const SessionOptions session = throughputOptions();
    auto reference = referenceSession(config, session);

    const std::size_t dim = reference->inputDim();
    const auto xs = randomBatch(6, dim, 99);

    for (std::size_t shards : {std::size_t(1), std::size_t(3)}) {
        ServerOptions options;
        options.shards = shards;
        options.session = session;
        auto server = startServer(config, options);
        ASSERT_EQ(server->shardCount(), shards);

        Client client;
        std::string error;
        ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error))
            << error;

        // Whole batch in one frame.
        const auto batch_ref =
            reference->run(InferenceRequest::borrow(xs.data(), 6, dim));
        expectBitExact(client.classify(xs.data(), 6, dim), batch_ref);

        // Image by image — shard routing and frame boundaries must be
        // invisible in the outputs.
        for (std::size_t i = 0; i < 6; ++i) {
            const float *row = xs.data() + i * dim;
            const auto ref =
                reference->run(InferenceRequest::borrow(row, 1, dim));
            expectBitExact(client.classify(row, 1, dim), ref);
        }
        server->stop();
    }
}

TEST(Server, InterleavedConnectionsStayBitExact)
{
    const auto config = smallConfig(8);
    const SessionOptions session = throughputOptions();
    auto reference = referenceSession(config, session);
    const std::size_t dim = reference->inputDim();

    ServerOptions options;
    options.shards = 3;
    options.session = session;
    auto server = startServer(config, options);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 8;
    std::vector<std::string> failures(kThreads);
    std::vector<std::thread> threads;
    for (int tid = 0; tid < kThreads; ++tid) {
        threads.emplace_back([&, tid] {
            Client client;
            std::string error;
            if (!client.connect("127.0.0.1", server->port(), error)) {
                failures[tid] = "connect: " + error;
                return;
            }
            for (int i = 0; i < kPerThread; ++i) {
                const auto xs = randomBatch(
                    1, dim,
                    1000 + static_cast<std::uint64_t>(tid) * 100 +
                        static_cast<std::uint64_t>(i));
                const auto reply = client.classify(xs.data(), 1, dim);
                if (!reply.ok()) {
                    failures[tid] = "classify: " + reply.message;
                    return;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (const auto &f : failures)
        EXPECT_TRUE(f.empty()) << f;

    // Re-derive every expected answer serially and compare.
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    for (int tid = 0; tid < kThreads; ++tid) {
        for (int i = 0; i < kPerThread; ++i) {
            const auto xs = randomBatch(
                1, dim,
                1000 + static_cast<std::uint64_t>(tid) * 100 +
                    static_cast<std::uint64_t>(i));
            const auto ref = reference->run(
                InferenceRequest::borrow(xs.data(), 1, dim));
            expectBitExact(client.classify(xs.data(), 1, dim), ref);
        }
    }
    server->stop();
}

TEST(Server, PerRequestEnsembleOverrideOverTheWire)
{
    const auto config = smallConfig(8);
    const SessionOptions session = throughputOptions();
    auto reference = referenceSession(config, session);
    const std::size_t dim = reference->inputDim();
    const auto xs = randomBatch(2, dim, 5);

    ServerOptions options;
    options.session = session;
    auto server = startServer(config, options);
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));

    for (std::uint32_t t : {4u, 16u}) {
        InferenceRequest request =
            InferenceRequest::borrow(xs.data(), 2, dim);
        request.mcSamples = static_cast<int>(t);
        const auto ref = reference->run(request);
        Client::Options copts;
        copts.mcSamples = t;
        const auto reply = client.classify(xs.data(), 2, dim, copts);
        ASSERT_TRUE(reply.ok()) << reply.message;
        EXPECT_EQ(reply.response.mcSamples, t);
        expectBitExact(reply, ref);
    }
    server->stop();
}

// ------------------------------------------------------ admission control

TEST(Server, OverloadIsRejectedExplicitly)
{
    const auto config = smallConfig(8);
    SessionOptions session = throughputOptions();
    // A generous default budget makes the dispatcher HOLD the first
    // request (waiting to fill the round), pinning the shard at
    // capacity for a deterministic window.
    session.defaultDeadlineMicros = 400'000;

    ServerOptions options;
    options.shards = 1;
    options.queueCapacity = 1;
    options.session = session;
    auto server = startServer(config, options);

    const std::size_t dim = 24;
    const auto xs = randomBatch(1, dim, 3);

    Client holder;
    Client prober;
    std::string error;
    ASSERT_TRUE(holder.connect("127.0.0.1", server->port(), error));
    ASSERT_TRUE(prober.connect("127.0.0.1", server->port(), error));
    std::thread held([&] {
        // Occupies the shard's only slot for ~the whole budget.
        const auto reply = holder.classify(xs.data(), 1, dim);
        EXPECT_TRUE(reply.ok()) << reply.message;
    });

    // Probe only once the holder is admitted: a probe sent earlier
    // takes the slot itself and the holder is the one rejected.
    EXPECT_EQ(awaitQueueDepth(*server, 1), 1u);
    bool saw_reject = false;
    const auto probe_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < probe_deadline) {
        const auto reply = prober.classify(xs.data(), 1, dim);
        if (reply.status == Client::Status::Overloaded) {
            EXPECT_FALSE(reply.message.empty());
            saw_reject = true;
            break;
        }
        // A failure here ends the probe without leaving `held`
        // unjoined.
        EXPECT_TRUE(reply.ok()) << reply.message;
        if (!reply.ok())
            break;
    }
    held.join();
    EXPECT_TRUE(saw_reject)
        << "no Overloaded rejection inside the hold window";

    const ServerStats stats = server->stats();
    EXPECT_GE(stats.rejects, 1u);
    EXPECT_GE(stats.shards.at(0).heldPasses, 1u);
    server->stop();
}

// ------------------------------------------------- held coalescing e2e

TEST(Server, DeadlineLicensedHoldMergesAcrossConnections)
{
    const auto config = smallConfig(8);
    SessionOptions session = throughputOptions();
    session.defaultDeadlineMicros = 300'000;
    auto reference = referenceSession(config, throughputOptions());
    const std::size_t dim = reference->inputDim();

    ServerOptions options;
    options.shards = 1;
    options.queueCapacity = 8;
    options.session = session;
    auto server = startServer(config, options);

    const auto xs_a = randomBatch(1, dim, 21);
    const auto xs_b = randomBatch(1, dim, 22);
    Client::Reply reply_a, reply_b;
    std::thread ta([&] {
        Client c;
        std::string error;
        ASSERT_TRUE(c.connect("127.0.0.1", server->port(), error));
        reply_a = c.classify(xs_a.data(), 1, dim);
    });
    // The second client starts only once the first request is held: a
    // fixed sleep lets a slow admission miss the hold window.
    EXPECT_EQ(awaitQueueDepth(*server, 1), 1u);
    std::thread tb([&] {
        Client c;
        std::string error;
        ASSERT_TRUE(c.connect("127.0.0.1", server->port(), error));
        reply_b = c.classify(xs_b.data(), 1, dim);
    });
    ta.join();
    tb.join();

    // Holding shapes WHEN the pass runs, never its outputs: both
    // replies are still bit-identical to solo run() — deadlines have
    // no license to change results.
    expectBitExact(reply_a,
                   reference->run(InferenceRequest::borrow(
                       xs_a.data(), 1, dim)));
    expectBitExact(reply_b,
                   reference->run(InferenceRequest::borrow(
                       xs_b.data(), 1, dim)));

    const ServerStats stats = server->stats();
    EXPECT_GE(stats.shards.at(0).heldPasses, 1u);
    EXPECT_GE(stats.shards.at(0).coalescedPasses, 1u);
    server->stop();
}

// ------------------------------------------------------ malformed input

TEST(Server, GarbageMagicClosesTheConnectionNotTheServer)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);

    std::string error;
    net::Socket raw =
        net::connectTcp("127.0.0.1", server->port(), error);
    ASSERT_TRUE(raw.valid()) << error;
    const char junk[32] = "this is not a vibnn frame at al";
    ASSERT_TRUE(net::writeAll(raw, junk, sizeof junk));
    // The server drops the connection: the next read sees EOF.
    net::FrameType type;
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(net::readFrame(raw, type, payload, error));
    raw.close();

    // The server itself survives and serves fresh connections.
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    ASSERT_TRUE(client.ping(error)) << error;
    server->stop();
}

TEST(Server, HostileLengthPrefixIsRefusedWithoutAllocation)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);

    std::string error;
    net::Socket raw =
        net::connectTcp("127.0.0.1", server->port(), error);
    ASSERT_TRUE(raw.valid()) << error;
    // Valid magic/version/type, 4 GiB-ish length prefix.
    auto frame = net::encodeFrame(net::FrameType::Ping);
    const std::uint32_t hostile = 0xfffffff0u;
    std::memcpy(frame.data() + 8, &hostile, sizeof hostile);
    ASSERT_TRUE(net::writeAll(raw, frame.data(), frame.size()));
    net::FrameType type;
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(net::readFrame(raw, type, payload, error));
    raw.close();

    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    ASSERT_TRUE(client.ping(error)) << error;
    server->stop();
}

TEST(Server, MalformedClassifyPayloadGetsErrorFrameAndConnectionLives)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);

    std::string error;
    net::Socket raw =
        net::connectTcp("127.0.0.1", server->port(), error);
    ASSERT_TRUE(raw.valid()) << error;
    // A well-framed ClassifyRequest whose payload is garbage: the
    // frame boundary is intact, so the server answers BadRequest and
    // keeps the connection.
    const std::vector<std::uint8_t> junk(10, 0xab);
    ASSERT_TRUE(net::writeFrame(raw, net::FrameType::ClassifyRequest,
                                junk));
    net::FrameType type;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(net::readFrame(raw, type, payload, error)) << error;
    ASSERT_EQ(type, net::FrameType::Error);
    net::WireError err;
    ASSERT_TRUE(net::decodeError(payload.data(), payload.size(), err,
                                 error));
    EXPECT_EQ(err.code, net::ErrorCode::BadRequest);

    // Same connection still serves a valid request.
    ASSERT_TRUE(net::writeFrame(raw, net::FrameType::Ping));
    ASSERT_TRUE(net::readFrame(raw, type, payload, error));
    EXPECT_EQ(type, net::FrameType::Pong);
    raw.close();
    server->stop();
}

TEST(Server, WrongGeometryIsABadRequestNotACrash)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    // dim 7 against a 24-input program.
    const auto xs = randomBatch(1, 7, 1);
    const auto reply = client.classify(xs.data(), 1, 7);
    EXPECT_EQ(reply.status, Client::Status::BadRequest);
    EXPECT_FALSE(reply.message.empty());

    // The connection survives the rejection.
    const auto good = randomBatch(1, 24, 1);
    EXPECT_TRUE(client.classify(good.data(), 1, 24).ok());

    // An ensemble size past the cap is rejected at admission, before
    // the session's fatal() check could see it.
    Client::Options huge;
    huge.mcSamples = kMaxEnsembleSize + 1;
    const auto too_many = client.classify(good.data(), 1, 24, huge);
    EXPECT_EQ(too_many.status, Client::Status::BadRequest);
    EXPECT_FALSE(too_many.message.empty());
    EXPECT_TRUE(client.classify(good.data(), 1, 24).ok());
    server->stop();
}

TEST(Server, TruncatedFrameThenCloseDoesNotHangTheServer)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);

    std::string error;
    {
        net::Socket raw =
            net::connectTcp("127.0.0.1", server->port(), error);
        ASSERT_TRUE(raw.valid()) << error;
        // Header promising 100 bytes, then only 3, then close.
        auto frame = net::encodeFrame(net::FrameType::ClassifyRequest);
        const std::uint32_t promised = 100;
        std::memcpy(frame.data() + 8, &promised, sizeof promised);
        frame.push_back(1);
        frame.push_back(2);
        frame.push_back(3);
        ASSERT_TRUE(net::writeAll(raw, frame.data(), frame.size()));
    } // close with the frame unfinished

    // stop() must join the half-fed connection thread promptly; the
    // ctest timeout is the hang detector here.
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    ASSERT_TRUE(client.ping(error)) << error;
    server->stop();
    SUCCEED();
}

// -------------------------------------------------------- observability

TEST(Server, MetricsEndpointReportsServingCounters)
{
    const auto config = smallConfig(8);
    ServerOptions options;
    options.shards = 2;
    options.session = throughputOptions();
    auto server = startServer(config, options);

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    const auto xs = randomBatch(3, 24, 17);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(client.classify(xs.data(), 3, 24).ok());

    std::string json;
    ASSERT_TRUE(client.metrics(json, error)) << error;
    // Spot-check the schema (docs/SERVING.md documents it in full).
    for (const char *key :
         {"\"requests\": 4", "\"images\": 12", "\"rejects\": 0",
          "\"rounds\"", "\"rounds_per_s\"", "\"p50_us\"", "\"p95_us\"",
          "\"p99_us\"", "\"shards\": [", "\"queue_depth\"",
          "\"merge_images_per_pass\"", "\"held_passes\"",
          "\"active_connections\""}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "metrics JSON missing " << key << "\n"
            << json;
    }

    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.images, 12u);
    EXPECT_EQ(stats.rejects, 0u);
    // 8 rounds x 3 images x 4 requests on the fixed-T path.
    EXPECT_EQ(stats.rounds, 8u * 12u);
    EXPECT_EQ(stats.shards.size(), 2u);
    EXPECT_GT(stats.p50Micros, 0.0);
    EXPECT_GE(stats.p99Micros, stats.p50Micros);
    server->stop();
}

TEST(Server, LatencyHistogramQuantilesLandInTheRightBucket)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.quantileMicros(0.99), 0.0); // empty
    for (int i = 0; i < 99; ++i)
        hist.record(100.0);
    hist.record(50'000.0);
    EXPECT_EQ(hist.count(), 100u);
    // Geometric buckets: answers are bucket upper bounds, within the
    // ~25% bucket width of the true value.
    EXPECT_NEAR(hist.quantileMicros(0.50), 100.0, 100.0 * 0.30);
    EXPECT_NEAR(hist.quantileMicros(1.0), 50'000.0, 50'000.0 * 0.30);
    EXPECT_LT(hist.quantileMicros(0.95), 200.0);
}

// ------------------------------------------------------------- lifecycle

TEST(Server, PingAndClientDrivenShutdownHandshake)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);
    EXPECT_FALSE(server->shutdownRequested());

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    ASSERT_TRUE(client.ping(error)) << error;
    ASSERT_TRUE(client.requestShutdown(error)) << error;

    server->waitForShutdownRequest();
    EXPECT_TRUE(server->shutdownRequested());
    server->stop();
    EXPECT_FALSE(server->running());
}

TEST(Server, DisabledRemoteShutdownIsRefusedAndServingContinues)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    options.remoteShutdown = RemoteShutdown::Disabled;
    auto server = startServer(config, options);

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), error));
    // The Shutdown frame comes back as an explicit refusal carrying
    // the server's reason, and the connection keeps serving.
    EXPECT_FALSE(client.requestShutdown(error));
    EXPECT_NE(error.find("remote shutdown disabled"),
              std::string::npos)
        << error;
    EXPECT_FALSE(server->shutdownRequested());
    EXPECT_TRUE(client.ping(error)) << error;

    server->stop(); // the owner can always stop
    EXPECT_FALSE(server->running());
}

TEST(Server, StopIsIdempotentAndStartReportsBindFailures)
{
    const auto config = smallConfig(4);
    ServerOptions options;
    options.session = throughputOptions();
    auto server = startServer(config, options);
    const std::uint16_t port = server->port();
    EXPECT_GT(port, 0);

    // A second server on the same port must fail with an error
    // string, not fatal().
    ServerOptions clashing = options;
    clashing.port = port;
    Server second(mlpProgram(config, 7), config, clashing);
    std::string error;
    EXPECT_FALSE(second.start(error));
    EXPECT_FALSE(error.empty());

    server->stop();
    server->stop(); // idempotent
    second.stop();  // never started — still safe
    SUCCEED();
}
