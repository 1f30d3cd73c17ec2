/**
 * @file
 * Poisson-schedule load generator for the vibnn-serve network server.
 *
 * Drives a sharded serve::Server over real loopback TCP with
 * Poisson-arrival classify traffic of MIXED ensemble sizes and batch
 * sizes (the serving mix a deployment sees, not a fixed-shape
 * microbench), and reports client-observed latency percentiles,
 * achieved throughput, overload rejections, and the server's merge
 * factor:
 *
 *   1. shard sweep — the same offered load against 1..N shards
 *      (sharding ~linear on multi-core hosts; see PERFORMANCE.md for
 *      the single-core caveat),
 *   2. offered-load sweep at fixed shards — "low" (headroom), "high"
 *      (near saturation), and "overload" (past capacity against a
 *      small admission queue, where the explicit-rejection contract
 *      must kick in: bounded p99 for accepted requests plus a nonzero
 *      reject count, instead of collapse).
 *
 * Closed loop per connection: each connection pre-draws a Poisson
 * schedule but sends with the blocking Client::classify, one request
 * at a time, so a slow reply delays every later send on that
 * connection and throttles the offered rate. Latency is timed from
 * the actual send, not the scheduled instant, so the time a request
 * waits behind its predecessor is not counted (coordinated omission):
 * the percentiles understate queueing under load. For open-loop
 * latency counted from the scheduled send, use the serve_* workloads
 * of bench/e2e (bench_e2e).
 *
 * Env: VIBNN_SCALE scales request counts, VIBNN_SEED the schedules,
 * VIBNN_BENCH_JSON emits machine-readable records (BENCH_PR9.json is
 * the committed baseline the CI kernel-matrix job gates against —
 * achieved_img_per_s higher-is-better, p99_us lower-is-better).
 * --connect HOST PORT drives an external server (e.g. vibnn_server on
 * another machine) instead of the in-process one.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accel/program.hh"
#include "bench_util.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/rng.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/session.hh"

using namespace vibnn;
using namespace vibnn::bench;

namespace
{

constexpr std::size_t kInputDim = 24;

/** One connection's measured outcomes. */
struct ConnResult
{
    std::vector<double> latenciesMicros; // accepted requests only
    std::size_t images = 0;              // accepted images
    std::size_t rejects = 0;
    std::size_t errors = 0;
};

struct LoadConfig
{
    std::string host;
    std::uint16_t port = 0;
    std::size_t conns = 4;
    std::size_t requestsPerConn = 50;
    double offeredReqPerSec = 200.0; // per connection
    std::int64_t deadlineMicros = 50'000;
    std::uint64_t seed = 1;
};

/** Drive one connection's Poisson schedule (closed loop: each send
 *  waits for the previous reply). */
ConnResult
runConnection(const LoadConfig &config, std::size_t conn_index)
{
    ConnResult result;
    serve::Client client;
    std::string error;
    if (!client.connect(config.host, config.port, error)) {
        result.errors = config.requestsPerConn;
        return result;
    }

    Rng rng(config.seed + conn_index * 7919);
    // Pre-draw the whole arrival schedule and the request mix: T in
    // {4, 8}, batch in {1, 4} — mixed shapes are the point.
    std::vector<double> at_seconds(config.requestsPerConn);
    std::vector<std::uint32_t> t_of(config.requestsPerConn);
    std::vector<std::uint32_t> batch_of(config.requestsPerConn);
    double clock = 0.0;
    for (std::size_t i = 0; i < config.requestsPerConn; ++i) {
        const double u = std::max(rng.uniform(), 1e-12);
        clock += -std::log(u) / config.offeredReqPerSec;
        at_seconds[i] = clock;
        t_of[i] = rng.uniform() < 0.5 ? 4u : 8u;
        batch_of[i] = rng.uniform() < 0.75 ? 1u : 4u;
    }
    std::vector<float> features(4 * kInputDim);
    for (auto &v : features)
        v = static_cast<float>(rng.uniform());

    const Stopwatch clock_sw;
    for (std::size_t i = 0; i < config.requestsPerConn; ++i) {
        const double ahead = at_seconds[i] - clock_sw.seconds();
        if (ahead > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(ahead));
        serve::Client::Options options;
        options.mcSamples = t_of[i];
        options.deadlineMicros = config.deadlineMicros;
        const Stopwatch rt;
        const auto reply = client.classify(features.data(),
                                           batch_of[i], kInputDim,
                                           options);
        if (reply.ok()) {
            result.latenciesMicros.push_back(rt.seconds() * 1e6);
            result.images += batch_of[i];
        } else if (reply.status ==
                   serve::Client::Status::Overloaded) {
            ++result.rejects;
        } else {
            ++result.errors;
        }
    }
    return result;
}

double
quantile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1));
    return values[idx];
}

struct RunSummary
{
    double wallSeconds = 0.0;
    double achievedImgPerSec = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    std::size_t accepted = 0, rejects = 0, errors = 0;
    double mergeImagesPerPass = 0.0;
    std::uint64_t heldPasses = 0;
};

RunSummary
runLoad(const LoadConfig &config, serve::Server *server)
{
    std::vector<ConnResult> results(config.conns);
    std::vector<std::thread> threads;
    const Stopwatch wall;
    for (std::size_t c = 0; c < config.conns; ++c)
        threads.emplace_back(
            [&, c] { results[c] = runConnection(config, c); });
    for (auto &t : threads)
        t.join();

    RunSummary summary;
    summary.wallSeconds = wall.seconds();
    std::vector<double> latencies;
    std::size_t images = 0;
    for (const auto &r : results) {
        latencies.insert(latencies.end(), r.latenciesMicros.begin(),
                         r.latenciesMicros.end());
        images += r.images;
        summary.rejects += r.rejects;
        summary.errors += r.errors;
    }
    summary.accepted = latencies.size();
    summary.achievedImgPerSec =
        summary.wallSeconds > 0
            ? static_cast<double>(images) / summary.wallSeconds
            : 0.0;
    summary.p50 = quantile(latencies, 0.50);
    summary.p95 = quantile(latencies, 0.95);
    summary.p99 = quantile(latencies, 0.99);
    if (server) {
        // Server-wide merge factor: total images over total passes, so
        // a busy shard weighs by its passes instead of counting the
        // same as an idle one.
        std::uint64_t shard_images = 0, shard_passes = 0;
        for (const auto &shard : server->stats().shards) {
            shard_images += shard.images;
            shard_passes += shard.passes;
            summary.heldPasses += shard.heldPasses;
        }
        if (shard_passes > 0)
            summary.mergeImagesPerPass =
                static_cast<double>(shard_images) /
                static_cast<double>(shard_passes);
    }
    return summary;
}

std::unique_ptr<serve::Server>
makeServer(std::size_t shards, std::size_t queue_capacity)
{
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 8;
    config.mcSamples = 8;
    Rng rng(envSeed() + 17);
    bnn::BayesianMlp net({kInputDim, 16, 4}, rng, -3.0f);

    serve::SessionOptions session;
    session.mode = serve::ExecMode::Throughput;
    session.seed = envSeed();
    serve::ServerOptions options;
    options.shards = shards;
    options.queueCapacity = queue_capacity;
    options.session = session;
    auto server = std::make_unique<serve::Server>(
        compile(net, config), config, options);
    std::string error;
    if (!server->start(error))
        fatal("bench_serving_load: cannot start server: " + error);
    return server;
}

void
report(const char *section, std::size_t shards, const char *offered,
       const LoadConfig &config, const RunSummary &s,
       JsonReport &json)
{
    std::printf("%-12s shards=%zu offered=%-8s conns=%zu  "
                "%7.1f img/s  p50 %6.0fus  p95 %6.0fus  p99 %6.0fus  "
                "rejects %zu  merge %.2f\n",
                section, shards, offered, config.conns,
                s.achievedImgPerSec, s.p50, s.p95, s.p99, s.rejects,
                s.mergeImagesPerPass);
    json.add(JsonRecord()
                 .field("bench", "bench_serving_load")
                 .field("section", section)
                 .field("shards", shards)
                 .field("offered", offered)
                 .field("conns", config.conns)
                 .field("requests",
                        config.conns * config.requestsPerConn)
                 .field("achieved_img_per_s", s.achievedImgPerSec)
                 .field("p50_us", s.p50)
                 .field("p95_us", s.p95)
                 .field("p99_us", s.p99)
                 .field("accepted", s.accepted)
                 .field("rejects", s.rejects)
                 .field("errors", s.errors)
                 .field("merge_images_per_pass",
                        s.mergeImagesPerPass)
                 .field("held_passes",
                        static_cast<std::size_t>(s.heldPasses)));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    banner("serving load (PR 9)",
           "Poisson-schedule load (closed loop per connection) against "
           "the sharded socket server: "
           "shard sweep, offered-load sweep, overload rejection.");

    // --connect HOST PORT: drive an external vibnn_server instead of
    // the in-process one (merge factor / held passes then read 0 —
    // scrape the server's metrics endpoint for those).
    std::string ext_host;
    int ext_port = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--connect") == 0 && i + 2 < argc) {
            ext_host = argv[i + 1];
            ext_port = std::atoi(argv[i + 2]);
            i += 2;
        }
    }

    JsonReport json;
    LoadConfig base;
    base.requestsPerConn = scaledCount(40);
    base.seed = envSeed();

    if (!ext_host.empty()) {
        base.host = ext_host;
        base.port = static_cast<std::uint16_t>(ext_port);
        base.conns = 8;
        base.offeredReqPerSec = 300.0;
        const auto s = runLoad(base, nullptr);
        report("external", 0, "high", base, s, json);
        json.write();
        return s.errors == 0 ? 0 : 1;
    }

    std::size_t total_errors = 0;

    // 1. Shard sweep at a fixed high offered load. On a multi-core
    // host throughput scales ~linearly with shards at bounded p99; a
    // single-core container serializes the shards and the sweep
    // reports flat numbers (PERFORMANCE.md documents the caveat).
    std::printf("\n-- shard sweep (offered: 8 conns x 300 req/s, "
                "mixed T {4,8} x batch {1,4}) --\n");
    for (std::size_t shards : {std::size_t(1), std::size_t(2),
                               std::size_t(4)}) {
        auto server = makeServer(shards, 256);
        LoadConfig config = base;
        config.host = "127.0.0.1";
        config.port = server->port();
        config.conns = 8;
        config.offeredReqPerSec = 300.0;
        const auto s = runLoad(config, server.get());
        report("shard_sweep", shards, "high", config, s, json);
        total_errors += s.errors;
        server->stop();
    }

    // 2. Offered-load sweep at 2 shards: low load (headroom, the
    // coalescer holds mostly idle), then overload against a tiny
    // admission queue — the explicit-rejection contract: nonzero
    // rejects, bounded p99 for what was accepted.
    std::printf("\n-- offered-load sweep (2 shards) --\n");
    {
        auto server = makeServer(2, 256);
        LoadConfig config = base;
        config.host = "127.0.0.1";
        config.port = server->port();
        config.conns = 2;
        config.offeredReqPerSec = 40.0;
        const auto s = runLoad(config, server.get());
        report("load_sweep", 2, "low", config, s, json);
        total_errors += s.errors;
        server->stop();
    }
    {
        // queueCapacity 2 against 12 hammering connections: far past
        // capacity, so a healthy server MUST reject.
        auto server = makeServer(2, 2);
        LoadConfig config = base;
        config.host = "127.0.0.1";
        config.port = server->port();
        config.conns = 12;
        config.offeredReqPerSec = 500.0;
        config.deadlineMicros = 20'000;
        const auto s = runLoad(config, server.get());
        report("load_sweep", 2, "overload", config, s, json);
        total_errors += s.errors;
        if (s.rejects == 0)
            std::printf("WARNING: overload run saw no rejections — "
                        "admission control did not engage\n");
        server->stop();
    }

    json.write();
    if (total_errors > 0) {
        std::printf("\n%zu request(s) failed with transport/protocol "
                    "errors\n",
                    total_errors);
        return 1;
    }
    std::printf("\nall requests completed (accepted or explicitly "
                "rejected)\n");
    return 0;
}
