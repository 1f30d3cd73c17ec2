/**
 * @file
 * bench_e2e — the repository's end-to-end benchmark.
 *
 *   bench_e2e --workload {serve_mixed|serve_deadline|batch_adaptive|
 *                         train_elbo|all} --seed N [--seconds S]
 *             [--trace PATH] [--json PATH] [--smoke]
 *
 * Four workloads run against the paper's 784-200-200-10 MNIST network
 * (README.md in this directory says why each exists and what every
 * metric means):
 *
 *   serve_mixed     open-loop Poisson requests of mixed T {4,8} and
 *                   batch {1,4} over loopback TCP, no deadline
 *   serve_deadline  the same generator with T=8, batch 1 and a 25 ms
 *                   budget, so the coalescer's hold path does the work
 *   batch_adaptive  InferenceSession::run over the 1024-image test set
 *                   with the adaptive early-exit policy
 *   train_elbo      the minibatch ELBO training loop
 *
 * The model, data and session seed are fixed; --seed drives only the
 * generated inputs (arrivals, request mix, image choice and order,
 * minibatch shuffle). The work runs pinned to one CPU, the load
 * generator on the others, and CPU-bound timings are scaled by a host
 * speed gauge read between slices of the work (gauge.hh says why).
 * Without --trace the run prints the end-to-end
 * metrics; with --trace it prints the per-layer metrics, replays the
 * observed pass shapes layer by layer and writes a Chrome trace. The
 * last line of stdout is one JSON object with the metrics of the run.
 * A failed honesty guard prints "INVALID: <reason>" and exits 1.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "accel/program.hh"
#include "bnn/bayesian_mlp.hh"
#include "bnn/bnn_trainer.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "data/synth_mnist.hh"
#include "gauge.hh"
#include "loadgen.hh"
#include "replay.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "stats.hh"
#include "trace.hh"

using namespace vibnn;
using namespace vibnn::bench::e2e;

namespace
{

// Fixed inputs: everything but the generated load is the same in every
// run, so a metric moves only when the code does.
constexpr std::uint64_t kDataSeed = 11;
constexpr std::uint64_t kInitSeed = 7;
constexpr std::uint64_t kTrainSeed = 5;
constexpr std::uint64_t kSessionSeed = 3;
const std::vector<std::size_t> kMnistMlp = {784, 200, 200, 10};
constexpr std::size_t kTestImages = 1024;

constexpr std::size_t kConnections = 4;
/** Requests each connection keeps outstanding in the saturation phase:
 *  the server serves one per connection, so two more always wait. */
constexpr std::size_t kSaturationDepth = 3;
constexpr int kSetupReps = 3;
/** One served response in this many is re-run in process. */
constexpr std::uint64_t kVerifyStride = 16;
constexpr double kMaxLagP90Ms = 5.0;
/** Untimed load before the timed phases of a serving run, seconds. */
constexpr double kServeWarmupS = 1.0;
/** Slice lengths of the serving phases, seconds: the gauge is read
 *  between slices, with the server idle. */
constexpr double kOpenSliceS = 0.5;
constexpr double kSaturationSliceS = 0.5;
/** Training steps between gauge readings. */
constexpr std::size_t kGaugeSteps = 8;
constexpr double kMaxFailShare = 0.01;
constexpr double kAccuracyFloor = 0.9;
/** Samples a p90 needs: tailSupported(100, 0.9) holds. */
constexpr std::size_t kMinTailSamples = 100;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Must match BENCHMARK.json at the repository root.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput", "items/s"},
    {"p50_ms", "ms"},
    {"accuracy", "fraction"},
};
constexpr MetricDef kPerLayer[] = {
    {"loadgen.lag_p90_ms", "ms"},
    {"loadgen.sent", "count"},
    {"net.conn_wait_p50_ms", "ms"},
    {"net.conn_wait_p90_ms", "ms"},
    {"server.p50_ms", "ms"},
    {"server.p90_ms", "ms"},
    {"server.rejects", "count"},
    {"session.passes", "count"},
    {"session.merge_requests_per_pass", "ratio"},
    {"session.merge_images_per_pass", "ratio"},
    {"session.held_share", "fraction"},
    {"session.self_share", "fraction"},
    {"mc_engine.pass_us", "us"},
    {"mc_engine.self_share", "fraction"},
    {"mc_engine.mean_rounds", "rounds"},
    {"executor.round_us", "us"},
    {"executor.self_share", "fraction"},
    {"grng.fill_us_per_round", "us"},
    {"grng.eps_per_s", "1/s"},
    {"kernels.sample_us_per_round", "us"},
    {"kernels.gemm_us_per_round", "us"},
    {"kernels.gemm_gmac_per_s", "GMAC/s"},
    {"accel.sampling_share", "fraction"},
    {"trainer.forward_backward_ms", "ms"},
    {"trainer.kl_step_ms", "ms"},
    {"trainer.final_loss", "nats"},
    {"trace.overhead", "fraction"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string tracePath;
    std::string jsonPath;
    bool smoke = false;
    CpuPlacement cpus;

    bool traced() const { return !tracePath.empty(); }
};

/** Everything one workload run produced. */
struct Outcome
{
    std::map<std::string, double> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> invalid;
    /** Extra key -> rendered-JSON pairs for --json. */
    std::vector<std::pair<std::string, std::string>> detail;

    void
    guard(bool ok, const std::string &reason)
    {
        if (!ok)
            invalid.push_back(reason);
    }
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonObject(const std::vector<std::pair<std::string, std::string>> &kv)
{
    std::string s = "{";
    for (std::size_t i = 0; i < kv.size(); ++i)
        s += (i ? ", \"" : "\"") + kv[i].first + "\": " + kv[i].second;
    return s + "}";
}

/** A seed per (run seed, phase) pair, so phases draw independent
 *  inputs. */
std::uint64_t
phaseSeed(std::uint64_t seed, std::uint64_t phase)
{
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + phase;
    return splitmix64Next(state);
}

/** Print a phase's gauge readings and keep them for --json. */
void
reportGauge(const char *phase, const std::vector<double> &g,
            Outcome &outcome)
{
    std::printf("gauge     : %s, %zu readings, median %.1f us (nominal "
                "%.1f), range %.1f-%.1f us\n",
                phase, g.size(), median(g), kGaugeNominalUs,
                *std::min_element(g.begin(), g.end()),
                *std::max_element(g.begin(), g.end()));
    std::string list;
    for (const double us : g)
        list += (list.empty() ? "" : ", ") + jsonNumber(us);
    outcome.detail.emplace_back(std::string("gauge_us_") + phase,
                                "[" + list + "]");
}

/** Print one latency sample as p50, plus p90 and p99 where the sample
 *  supports them, with n. */
std::string
describeLatency(const std::vector<double> &ms)
{
    if (ms.empty())
        return "n=0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "p50 %.3f", percentile(ms, 0.5));
    std::string out = buf;
    for (const double q : {0.9, 0.99})
        if (tailSupported(ms.size(), q)) {
            std::snprintf(buf, sizeof buf, "  p%g %.3f", 100 * q,
                          percentile(ms, q));
            out += buf;
        }
    std::snprintf(buf, sizeof buf, " ms (n=%zu)", ms.size());
    return out + buf;
}

accel::AcceleratorConfig
acceleratorConfig()
{
    return accel::AcceleratorConfig{}; // the paper's 16x8 PEs, 8 bit, T=8
}

// ------------------------------------------------------------- set-up

/** The served model: synth-MNIST, trained at set-up, compiled. */
struct ServingModel
{
    data::Dataset data;
    accel::QuantizedProgram program;
};

ServingModel
trainServingModel()
{
    data::SynthMnistConfig synth;
    synth.trainCount = 2000;
    synth.testCount = kTestImages;
    synth.seed = kDataSeed;
    ServingModel model;
    model.data = data::makeSynthMnist(synth);

    Rng init(kInitSeed);
    bnn::BayesianMlp net(kMnistMlp, init, /*rho_init=*/-5.0f);
    bnn::BnnBatchedTrainConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 64;
    cfg.learningRate = 3e-3f;
    cfg.seed = kTrainSeed;
    bnn::trainBnnBatched(net, model.data.train.view(), cfg);
    model.program = accel::compile(net, acceleratorConfig());
    return model;
}

/**
 * Run `make` kSetupReps times (once for a traced run) and keep the last
 * fixture; setup_s is the median of the repetitions scaled to the
 * nominal host speed by a GaugeSampler, since a set-up is one long
 * stretch of work. The first repetition is timed from `origin_ns`
 * (process start for a single workload).
 */
template <typename Make>
auto
setUp(const Options &opts, std::int64_t origin_ns, Outcome &outcome,
      const Make &make)
{
    const int reps = opts.traced() ? 1 : kSetupReps;
    std::vector<double> seconds;
    std::string raw;
    GaugeSampler sampler;
    decltype(make()) fixture;
    for (int rep = 0; rep < reps; ++rep) {
        fixture = {};
        const std::int64_t start = rep == 0 ? origin_ns : nowNs();
        fixture = make();
        const auto [measured, scaled] = sampler.since(start);
        seconds.push_back(scaled);
        raw += (raw.empty() ? "" : ", ") + jsonNumber(measured);
    }
    std::string list;
    for (const double s : seconds)
        list += (list.empty() ? "" : ", ") + jsonNumber(s);
    std::printf("setup     : %s s as measured, %s s scaled, over %d "
                "repetition(s)\n",
                raw.c_str(), list.c_str(), reps);
    reportGauge("setup", sampler.readings(), outcome);
    outcome.metrics["setup_s"] = median(seconds);
    outcome.detail.emplace_back("setup_s_reps", "[" + list + "]");
    outcome.detail.emplace_back("setup_s_raw", "[" + raw + "]");
    return fixture;
}

std::vector<float>
gatherImages(const data::LabeledData &set,
             const std::vector<std::uint32_t> &rows)
{
    std::vector<float> out;
    out.reserve(rows.size() * set.dim);
    for (const std::uint32_t row : rows)
        out.insert(out.end(), set.sample(row), set.sample(row) + set.dim);
    return out;
}

// ------------------------------------------------------------ replay

/** Replay `shapes`, print them, add their waterfalls to `trace`, and
 *  return the results (empty when a layer check failed). */
std::vector<ShapeResult>
replayShapes(const accel::QuantizedProgram &program,
             const serve::SessionOptions &served,
             const std::vector<ReplayShape> &shapes,
             const data::LabeledData &test, bool smoke, TraceLog &trace,
             Outcome &outcome)
{
    LayerReplay replay(program, acceleratorConfig());
    std::vector<ShapeResult> results;
    constexpr int kPid = 2;
    trace.processName(kPid, "replay (median repetition, single-threaded)");
    std::printf("replay (single-threaded, us per pass, median of the "
                "repetitions; self = span minus children):\n"
                "  %-16s %9s %9s %9s %9s %9s %9s | %8s %8s %8s\n",
                "shape", "session", "engine", "executor", "grng", "sample",
                "gemm", "self:ses", "engine", "exec");
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        const ReplayShape &shape = shapes[s];
        std::vector<std::uint32_t> rows(shape.batch);
        std::iota(rows.begin(), rows.end(), 0u);
        for (auto &r : rows)
            r %= static_cast<std::uint32_t>(test.count());
        const auto xs = gatherImages(test, rows);
        ShapeResult result;
        std::string error;
        // About 8 s of replay per run, shared by the shapes.
        const double budget_s =
            (smoke ? 0.8 : 8.0) / static_cast<double>(shapes.size());
        if (!replay.run(shape, served, xs.data(), budget_s, result, error)) {
            outcome.guard(false, error);
            return {};
        }
        const LayerTimes &p = result.pass;
        std::printf("  %-16s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f | %8.1f "
                    "%8.1f %8.1f\n",
                    shape.label.c_str(), p.session, p.engine, p.executor,
                    p.grng, p.sample, p.gemm, result.selfSession,
                    result.selfEngine, result.selfExecutor);

        // Waterfall: nested spans laid out from the replay times.
        const int tid = static_cast<int>(s);
        trace.threadName(kPid, tid, shape.label);
        const std::string args = "{\"median_of\": " +
            std::to_string(result.reps) + "}";
        trace.span("session.run", kPid, tid, 0.0, p.session, args);
        trace.span("mc_engine", kPid, tid, 0.0, p.engine, args);
        double at = 0.0;
        for (std::size_t r = 0; r < result.rounds.size(); ++r) {
            const LayerTimes &lt = result.rounds[r];
            trace.span("executor.round " + std::to_string(r), kPid, tid,
                       at, lt.executor, args);
            double child = at;
            for (const auto &[name, dur] :
                 {std::pair{"grng.fill", lt.grng},
                  std::pair{"kernels.sample", lt.sample},
                  std::pair{"kernels.gemm", lt.gemm}}) {
                trace.span(name, kPid, tid, child, dur, args);
                child += dur;
            }
            at += lt.executor;
        }

        std::vector<std::pair<std::string, std::string>> kv = {
            {"batch", std::to_string(shape.batch)},
            {"t", std::to_string(shape.t)},
            {"adaptive", shape.adaptive ? "true" : "false"},
            {"reps", std::to_string(result.reps)},
            {"mean_rounds", jsonNumber(result.meanRounds)},
            {"session_us", jsonNumber(p.session)},
            {"engine_us", jsonNumber(p.engine)},
            {"executor_us", jsonNumber(p.executor)},
            {"grng_us", jsonNumber(p.grng)},
            {"sample_us", jsonNumber(p.sample)},
            {"gemm_us", jsonNumber(p.gemm)},
            {"session_self_us", jsonNumber(result.selfSession)},
            {"engine_self_us", jsonNumber(result.selfEngine)},
            {"executor_self_us", jsonNumber(result.selfExecutor)},
        };
        outcome.detail.emplace_back("replay_" + shape.label, jsonObject(kv));
        results.push_back(std::move(result));
    }
    return results;
}

/** Per-layer metrics of the accelerator stack from one replayed shape. */
void
layerMetrics(const ShapeResult &r, Outcome &outcome)
{
    auto &m = outcome.metrics;
    const double rounds = r.roundCount();
    const LayerTimes &p = r.pass;
    // A self time is published as its non-negative share of the layer's
    // span. The replay has refused a session or engine self time below
    // -5%; the executor's is an estimate from kernels timed apart.
    const auto share = [](double self, double span) {
        return std::max(self, 0.0) / span;
    };
    m["session.self_share"] = share(r.selfSession, p.session);
    m["mc_engine.pass_us"] = p.engine;
    m["mc_engine.self_share"] = share(r.selfEngine, p.engine);
    m["mc_engine.mean_rounds"] = r.meanRounds;
    m["executor.round_us"] = p.executor / rounds;
    m["executor.self_share"] = share(r.selfExecutor, p.executor);
    m["grng.fill_us_per_round"] = p.grng / rounds;
    m["grng.eps_per_s"] =
        static_cast<double>(r.epsPerRound) * rounds / p.grng * 1e6;
    m["kernels.sample_us_per_round"] = p.sample / rounds;
    m["kernels.gemm_us_per_round"] = p.gemm / rounds;
    m["kernels.gemm_gmac_per_s"] =
        static_cast<double>(r.macsPerPass) / p.gemm * 1e-3;
    m["accel.sampling_share"] = (p.grng + p.sample) / p.executor;
}

// ----------------------------------------------------------- serving

struct ServeSpec
{
    const char *name;
    RequestMix mix;
    /** Offered rate of the fixed-rate phase, req/s. */
    double rate;
    /** Latency and capacity are set by CPU work, so they are scaled to
     *  the nominal host speed. False when the hold budget sets them: a
     *  timer does not run slower on a busy host. */
    bool cpuBound;
};

/**
 * The served (and batch) session: Throughput mode, rlf, a fixed seed,
 * and one thread, since the benchmark runs pinned to one CPU (the gauge
 * must time the CPU the work runs on). The replay times the same serial
 * work.
 */
serve::SessionOptions
servingOptions()
{
    serve::SessionOptions s;
    s.mode = serve::ExecMode::Throughput;
    s.grngId = "rlf";
    s.seed = kSessionSeed;
    s.threads = 1;
    return s;
}

/** One set-up serving stack: model, server, connected generator. */
struct ServeFixture
{
    ServingModel model;
    std::unique_ptr<serve::Server> server;
    LoadGenerator gen;
    CpuPlacement cpus;
    std::uint64_t nextId = 1;

    /** Run one open-loop phase with fresh wire ids. */
    std::vector<RequestRecord>
    open(const std::vector<RequestSpec> &plan)
    {
        const OnOtherCpus away(cpus);
        auto records = gen.run(plan, nextId,
                               model.data.test.features.data(),
                               model.data.test.dim);
        nextId += plan.size();
        return records;
    }

    /** Run one closed-loop slice with fresh wire ids. */
    std::vector<RequestRecord>
    saturate(const std::vector<RequestSpec> &plan, double seconds)
    {
        const OnOtherCpus away(cpus);
        auto records = gen.saturate(plan, nextId,
                                    model.data.test.features.data(),
                                    model.data.test.dim, kSaturationDepth,
                                    seconds);
        nextId += plan.size();
        return records;
    }
};

std::unique_ptr<ServeFixture>
setUpServing(const ServeSpec &spec, const CpuPlacement &cpus)
{
    auto fx = std::make_unique<ServeFixture>();
    fx->cpus = cpus;
    fx->model = trainServingModel();
    serve::ServerOptions options;
    options.shards = 1;
    options.queueCapacity = 256;
    options.session = servingOptions();
    fx->server = std::make_unique<serve::Server>(
        fx->model.program, acceleratorConfig(), options);
    std::string error;
    if (!fx->server->start(error))
        fatal("bench_e2e: cannot start the server: " + error);
    if (!fx->gen.connect("127.0.0.1", fx->server->port(), kConnections,
                         error))
        fatal("bench_e2e: cannot connect: " + error);
    // Warm-up: every (T, batch) shape of the mix on every connection.
    std::vector<RequestSpec> warm;
    for (const std::uint32_t t : {spec.mix.tLow, spec.mix.tHigh})
        for (const std::uint32_t b :
             {spec.mix.batchSmall, spec.mix.batchLarge})
            for (std::size_t c = 0; c < kConnections; ++c) {
                RequestSpec r;
                r.atSeconds = 0.003 * static_cast<double>(warm.size());
                r.mcSamples = t;
                r.deadlineMicros = spec.mix.deadlineMicros;
                r.images.assign(b, static_cast<std::uint32_t>(c));
                warm.push_back(std::move(r));
            }
    fx->open(warm);
    return fx;
}

/** Latency breakdown of the answered requests of one open-loop phase. */
struct PhaseLatencies
{
    std::vector<double> latency, lag, server, connWait;
    std::size_t failed = 0;
};

PhaseLatencies
phaseLatencies(const std::vector<RequestRecord> &records)
{
    PhaseLatencies out;
    for (const auto &r : records) {
        if (!r.ok()) {
            ++out.failed;
            // A failed request misses any latency limit.
            out.latency.push_back(INFINITY);
            continue;
        }
        const double server_ms = r.response.serverMicros * 1e-3;
        out.latency.push_back(r.latencyMs());
        out.lag.push_back(r.lagMs());
        out.server.push_back(server_ms);
        out.connWait.push_back(r.latencyMs() - r.lagMs() - server_ms);
    }
    return out;
}

/** Session counters of one phase (deltas of Server::stats()). */
struct SessionDelta
{
    double passes = 0, requests = 0, images = 0, held = 0, rejects = 0;
};

SessionDelta
sessionDelta(const serve::ServerStats &before,
             const serve::ServerStats &after)
{
    SessionDelta d;
    for (std::size_t s = 0; s < after.shards.size(); ++s) {
        const auto &a = after.shards[s];
        const auto &b = before.shards[s];
        d.passes += static_cast<double>(a.passes - b.passes);
        d.requests += static_cast<double>(a.requests - b.requests);
        d.images += static_cast<double>(a.images - b.images);
        d.held += static_cast<double>(a.heldPasses - b.heldPasses);
    }
    d.rejects = static_cast<double>(after.rejects - before.rejects);
    return d;
}

/** Re-run one in kVerifyStride answered requests in process and compare
 *  bit for bit. Returns {checked, mismatched}; mismatches also become
 *  guards. */
std::pair<std::size_t, std::size_t>
verifyServed(const ServeFixture &fx, const std::vector<RequestSpec> &plan,
             const std::vector<RequestRecord> &records, Outcome &outcome)
{
    auto session = serve::InferenceSession::Builder()
                       .program(fx.model.program)
                       .accelerator(acceleratorConfig())
                       .options(servingOptions())
                       .build();
    std::size_t checked = 0, mismatched = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RequestRecord &r = records[i];
        if (!r.ok() || r.response.id % kVerifyStride != 0)
            continue;
        const auto xs = gatherImages(fx.model.data.test, plan[i].images);
        auto request = serve::InferenceRequest::borrow(
            xs.data(), plan[i].images.size(), fx.model.data.test.dim);
        request.mcSamples = static_cast<int>(plan[i].mcSamples);
        const auto expected = session->run(request);
        bool same = expected.predictions.size() ==
                r.response.predictions.size() &&
            static_cast<std::uint32_t>(expected.mcSamples) ==
                r.response.mcSamples;
        for (std::size_t k = 0; same && k < expected.predictions.size();
             ++k) {
            const auto &want = expected.predictions[k];
            const auto &got = r.response.predictions[k];
            same = got.predicted == want.predicted &&
                got.probs.size() == want.probs.size() &&
                std::memcmp(got.probs.data(), want.probs.data(),
                            want.probs.size() * sizeof(float)) == 0;
        }
        outcome.guard(same, "served response id " +
                                std::to_string(r.response.id) +
                                " differs from in-process run()");
        ++checked;
        mismatched += !same;
    }
    return {checked, mismatched};
}

/** Accuracy of the served model at T=8 on the whole test set, asked
 *  through the socket like any client. */
double
servedAccuracy(const ServeFixture &fx, Outcome &outcome)
{
    serve::Client client;
    std::string error;
    if (!client.connect("127.0.0.1", fx.server->port(), error)) {
        outcome.guard(false, "accuracy request: " + error);
        return 0.0;
    }
    const auto &test = fx.model.data.test;
    serve::Client::Options options;
    options.mcSamples = 8;
    const auto reply =
        client.classify(test.features.data(), test.count(), test.dim,
                        options);
    if (!reply.ok()) {
        outcome.guard(false, "accuracy request failed: " + reply.message);
        return 0.0;
    }
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.count(); ++i)
        correct += reply.response.predictions[i].predicted ==
            static_cast<std::uint32_t>(test.labels[i]);
    return static_cast<double>(correct) /
        static_cast<double>(test.count());
}

/** Requests of one saturation slice of `seconds` completed once its
 *  pipeline had filled (after the first tenth) and while sending
 *  lasted, i.e. within 0.9 * seconds. */
double
saturationCompletions(const std::vector<RequestRecord> &records,
                      double seconds)
{
    if (records.empty() || records.front().sentNs == 0)
        return 0.0;
    const std::int64_t start = records.front().sentNs;
    const auto from = start + static_cast<std::int64_t>(0.1 * seconds * 1e9);
    const auto to = start + static_cast<std::int64_t>(seconds * 1e9);
    return static_cast<double>(
        std::count_if(records.begin(), records.end(), [&](const auto &r) {
            return r.ok() && r.recvNs >= from && r.recvNs < to;
        }));
}

/** Emit the async request spans of one traced phase. */
void
traceRequests(const std::vector<RequestSpec> &plan,
              const std::vector<RequestRecord> &records, TraceLog &trace)
{
    constexpr int kPid = 1;
    trace.processName(kPid, "loadgen (open loop, per request)");
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RequestRecord &r = records[i];
        if (!r.ok())
            continue;
        const std::uint64_t id = r.response.id;
        const double sched = trace.at(r.schedNs);
        const double recv = trace.at(r.recvNs);
        char args[160];
        std::snprintf(args, sizeof args,
                      "{\"wire_id\": %llu, \"t\": %u, \"batch\": %zu, "
                      "\"conn\": %u}",
                      static_cast<unsigned long long>(id),
                      plan[i].mcSamples, plan[i].images.size(), r.conn);
        trace.asyncSpan("request", kPid, id, sched, recv, args);
        trace.asyncSpan("send_lag", kPid, id, sched, trace.at(r.sentNs),
                        args);
        // The server reports its own time; it ended when the response
        // left, which the wire return makes a few microseconds early.
        trace.asyncSpan("server", kPid, id,
                        recv - r.response.serverMicros, recv, args);
    }
}

Outcome
runServing(const ServeSpec &spec, const Options &opts,
           std::int64_t origin_ns, TraceLog &trace)
{
    Outcome outcome;
    auto fx = setUp(opts, origin_ns, outcome,
                    [&] { return setUpServing(spec, opts.cpus); });
    const auto &test = fx->model.data.test;
    const double span = opts.smoke ? 1.0 : opts.seconds;
    // At the fixed rate the server idles between requests.
    const KeepCpuAwake awake;

    // Warm-up at the fixed rate: the first requests after set-up run
    // slower, so the timed phase starts once they have settled.
    fx->open(poissonSchedule(phaseSeed(opts.seed, 1), spec.rate,
                             opts.smoke ? 0.5 : kServeWarmupS, spec.mix,
                             test.count()));

    // Fixed-rate phase, long enough to support the per-layer p90s, run
    // as consecutive slices of the schedule with the gauge read between
    // them. Each slice starts on an idle server, which at this load it
    // nearly always is anyway.
    const double fixed_s =
        std::max(opts.smoke ? 1.0 : 0.5 * span,
                 1.3 * static_cast<double>(kMinTailSamples) / spec.rate);
    const std::vector<RequestSpec> plan = poissonSchedule(
        phaseSeed(opts.seed, 2), spec.rate, fixed_s, spec.mix, test.count());
    const auto stats_before = fx->server->stats();
    std::vector<RequestRecord> records;
    // The scale of each record's slice.
    std::vector<double> scales;
    GaugeTrack fixed_gauge;
    for (std::size_t first = 0; first < plan.size();) {
        const double from =
            std::floor(plan[first].atSeconds / kOpenSliceS) * kOpenSliceS;
        std::size_t last = first;
        while (last < plan.size() && plan[last].atSeconds < from + kOpenSliceS)
            ++last;
        std::vector<RequestSpec> slice(
            plan.begin() + static_cast<std::ptrdiff_t>(first),
            plan.begin() + static_cast<std::ptrdiff_t>(last));
        for (auto &r : slice)
            r.atSeconds -= from;
        const auto part = fx->open(slice);
        const double factor = fixed_gauge.next();
        const double scale = spec.cpuBound ? factor : 1.0;
        records.insert(records.end(), part.begin(), part.end());
        scales.insert(scales.end(), part.size(), scale);
        first = last;
    }
    const auto stats_after = fx->server->stats();
    const PhaseLatencies lat = phaseLatencies(records);
    const SessionDelta delta = sessionDelta(stats_before, stats_after);
    std::vector<double> scaled = lat.latency;
    for (std::size_t i = 0; i < scaled.size(); ++i)
        scaled[i] *= scales[i];
    std::printf("fixed     : %zu requests at %.0f req/s offered, open loop, "
                "%zu connections, latency from the scheduled send\n"
                "            latency %s\n"
                "            latency scaled to the nominal host speed %s\n"
                "            sender lag %s\n"
                "            server-reported %s\n"
                "            connection wait %s\n"
                "            server: %.0f passes, %.3f requests/pass, "
                "%.3f images/pass, %.1f%% held\n",
                records.size(), spec.rate, kConnections,
                describeLatency(lat.latency).c_str(),
                spec.cpuBound ? describeLatency(scaled).c_str()
                              : "(not scaled: the hold budget sets it)",
                describeLatency(lat.lag).c_str(),
                describeLatency(lat.server).c_str(),
                describeLatency(lat.connWait).c_str(), delta.passes,
                delta.requests / delta.passes, delta.images / delta.passes,
                100.0 * delta.held / delta.passes);
    outcome.guard(tailSupported(lat.latency.size(), 0.9),
                  "fixed-rate phase has " +
                      std::to_string(lat.latency.size()) +
                      " samples, too few for p90");
    outcome.guard(!lat.lag.empty() &&
                      percentile(lat.lag, 0.9) <= kMaxLagP90Ms,
                  "load generator lag p90 exceeds 5 ms in the fixed-rate "
                  "phase");
    reportGauge("fixed", fixed_gauge.readings(), outcome);
    std::vector<RequestSpec> checked_plan = plan;
    std::vector<RequestRecord> checked = records;

    if (opts.traced()) {
        // Spans are built from the phase's records afterwards, so the
        // phase itself pays nothing; the overhead is the building.
        const std::int64_t t0 = nowNs();
        traceRequests(plan, records, trace);
        auto &m = outcome.metrics;
        m["trace.overhead"] = secondsSince(t0) / fixed_s;
        m["loadgen.lag_p90_ms"] = percentile(lat.lag, 0.9);
        m["loadgen.sent"] = static_cast<double>(records.size());
        m["net.conn_wait_p50_ms"] = percentile(lat.connWait, 0.5);
        m["net.conn_wait_p90_ms"] = percentile(lat.connWait, 0.9);
        m["server.p50_ms"] = percentile(lat.server, 0.5);
        m["server.p90_ms"] = percentile(lat.server, 0.9);
        m["server.rejects"] = delta.rejects;
        m["session.passes"] = delta.passes;
        m["session.merge_requests_per_pass"] = delta.requests / delta.passes;
        m["session.merge_images_per_pass"] = delta.images / delta.passes;
        m["session.held_share"] = delta.held / delta.passes;

        // Replay the shapes the server ran: one image at each T, the
        // largest batch of the mix, and the observed mean merge.
        std::vector<ReplayShape> shapes;
        const auto add = [&](std::size_t batch, int t) {
            const std::string label =
                "b" + std::to_string(batch) + "_t" + std::to_string(t);
            for (const auto &s : shapes)
                if (s.label == label)
                    return;
            shapes.push_back({label, batch, t, false});
        };
        add(1, static_cast<int>(spec.mix.tHigh));
        add(1, static_cast<int>(spec.mix.tLow));
        add(spec.mix.batchLarge, static_cast<int>(spec.mix.tHigh));
        add(static_cast<std::size_t>(std::max(
                1.0, std::round(delta.images / delta.passes))),
            static_cast<int>(spec.mix.tHigh));
        const auto replayed =
            replayShapes(fx->model.program, servingOptions(), shapes, test,
                         opts.smoke, trace, outcome);
        if (!replayed.empty())
            layerMetrics(replayed.front(), outcome);
    } else {
        outcome.metrics["p50_ms"] = median(scaled);
        // Saturation phase: closed loop, every connection always has
        // the next request waiting; the completion rate is capacity. It
        // runs in slices too, each drained before the gauge is read.
        const double sat_s = opts.smoke ? 1.0 : 0.5 * span;
        const auto slices = static_cast<std::size_t>(
            std::max(1.0, std::round(sat_s / kSaturationSliceS)));
        // Far more requests than a slice can complete.
        constexpr std::size_t kSlicePlan = 4096;
        const auto sat_before = fx->server->stats();
        GaugeTrack sat_gauge;
        double done = 0.0, raw_s = 0.0, scaled_s = 0.0;
        std::size_t sent_total = 0;
        std::string slice_rates;
        for (std::size_t k = 0; k < slices; ++k) {
            const std::vector<RequestSpec> sat_plan =
                requestSequence(phaseSeed(opts.seed, 16 + k), kSlicePlan,
                                spec.mix, test.count());
            auto sat = fx->saturate(sat_plan, kSaturationSliceS);
            const double factor = sat_gauge.next();
            std::size_t sent = 0;
            while (sent < sat.size() && sat[sent].sentNs != 0)
                ++sent;
            sat.resize(sent);
            outcome.guard(sent < sat_plan.size(),
                          "a saturation slice exhausted its request plan");
            const double window_s = 0.9 * kSaturationSliceS;
            const double slice_done =
                saturationCompletions(sat, kSaturationSliceS);
            slice_rates += (slice_rates.empty() ? "" : ", ") +
                jsonNumber(slice_done / window_s);
            done += slice_done;
            raw_s += window_s;
            scaled_s += window_s * (spec.cpuBound ? factor : 1.0);
            outcome.failed += static_cast<std::size_t>(std::count_if(
                sat.begin(), sat.end(), [](const auto &r) { return !r.ok(); }));
            sent_total += sent;
            checked_plan.insert(checked_plan.end(), sat_plan.begin(),
                                sat_plan.begin() +
                                    static_cast<std::ptrdiff_t>(sent));
            checked.insert(checked.end(), sat.begin(), sat.end());
        }
        const SessionDelta sd = sessionDelta(sat_before, fx->server->stats());
        std::printf("saturation: closed loop, %zu outstanding per "
                    "connection, %zu slices of %.1f s: %zu requests\n"
                    "            %.1f req/s completed, %.1f scaled%s\n"
                    "            server: %.0f passes, %.3f requests/pass, "
                    "%.3f images/pass\n",
                    kSaturationDepth, slices, kSaturationSliceS, sent_total,
                    done / raw_s, done / scaled_s,
                    spec.cpuBound ? "" : " (not scaled: the hold budget "
                                         "sets it)",
                    sd.passes, sd.requests / sd.passes, sd.images / sd.passes);
        reportGauge("saturation", sat_gauge.readings(), outcome);
        outcome.detail.emplace_back("saturation_slice_rates",
                                    "[" + slice_rates + "]");
        outcome.metrics["throughput"] = done / scaled_s;
        outcome.attempted += sent_total;
    }
    outcome.attempted += records.size();
    outcome.failed += lat.failed;
    outcome.guard(static_cast<double>(outcome.failed) <=
                      kMaxFailShare * static_cast<double>(outcome.attempted),
                  std::to_string(outcome.failed) + " of " +
                      std::to_string(outcome.attempted) +
                      " requests failed");

    // Checks after timing: a sample of responses against run(), and the
    // served model's accuracy.
    const auto [n_checked, n_mismatched] =
        verifyServed(*fx, checked_plan, checked, outcome);
    const double accuracy = servedAccuracy(*fx, outcome);
    std::printf("verify    : %zu of %zu answered requests (1 in %llu by "
                "wire id) re-run in process, %zu differ\n"
                "accuracy  : %.4f on %zu test images served at T=8\n",
                n_checked, checked.size(),
                static_cast<unsigned long long>(kVerifyStride),
                n_mismatched, accuracy, test.count());
    outcome.guard(n_checked > 0, "no served response was verified");
    outcome.guard(accuracy >= kAccuracyFloor,
                  "served accuracy below the floor");
    if (!opts.traced())
        outcome.metrics["accuracy"] = accuracy;
    fx->server->stop();
    return outcome;
}

// -------------------------------------------------------------- batch

serve::SessionOptions
batchOptions()
{
    serve::SessionOptions s = servingOptions();
    s.adaptive.enabled = true;
    s.adaptive.confidence = 0.999;
    s.adaptive.minSamples = 4;
    s.adaptive.chunk = 4;
    return s;
}
constexpr int kBatchBudget = 32;

struct BatchFixture
{
    ServingModel model;
    std::unique_ptr<serve::InferenceSession> session;
    /** The warm-up pass over the test set in its natural order: every
     *  timed pass must reproduce it image for image. */
    serve::InferenceResult reference;
};

std::unique_ptr<BatchFixture>
setUpBatch()
{
    auto fx = std::make_unique<BatchFixture>();
    fx->model = trainServingModel();
    fx->session = serve::InferenceSession::Builder()
                      .program(fx->model.program)
                      .accelerator(acceleratorConfig())
                      .options(batchOptions())
                      .build();
    auto request = serve::InferenceRequest::borrow(fx->model.data.test.view());
    request.mcSamples = kBatchBudget;
    fx->reference = fx->session->run(request);
    return fx;
}

Outcome
runBatch(const Options &opts, std::int64_t origin_ns, TraceLog &trace)
{
    Outcome outcome;
    auto fx = setUp(opts, origin_ns, outcome, setUpBatch);
    const auto &test = fx->model.data.test;
    const std::size_t n = test.count();
    const double accuracy = fx->reference.accuracy(test.labels.data());

    // Passes back to back for the run length, each over the test set in
    // a fresh seeded order, with the gauge read between them.
    Rng order_rng(phaseSeed(opts.seed, 4));
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    const double span = opts.smoke ? 1.0 : opts.seconds;
    std::vector<double> ms, scaled;
    double rounds = 0.0, tracing_ms = 0.0;
    std::size_t bad = 0, passes = 0;
    constexpr int kPid = 3;
    if (opts.traced())
        trace.processName(kPid, "batch_adaptive (per pass)");
    // Untimed passes first, for the same reason as the serving warm-up.
    auto warm_request = serve::InferenceRequest::borrow(test.view());
    warm_request.mcSamples = kBatchBudget;
    const std::int64_t warm = nowNs();
    while (secondsSince(warm) < (opts.smoke ? 0.2 : 1.0))
        fx->session->run(warm_request);
    const std::int64_t start = nowNs();
    GaugeTrack gauge;
    while (secondsSince(start) < span) {
        order_rng.shuffle(order);
        const auto xs = gatherImages(test, order);
        auto request = serve::InferenceRequest::borrow(xs.data(), n, test.dim);
        request.mcSamples = kBatchBudget;
        const std::int64_t t0 = nowNs();
        const auto result = fx->session->run(request);
        const std::int64_t t1 = nowNs();
        ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        scaled.push_back(ms.back() * gauge.next());
        if (opts.traced()) {
            trace.span("InferenceSession::run", kPid, 0, trace.at(t0),
                       static_cast<double>(t1 - t0) * 1e-3,
                       "{\"images\": " + std::to_string(n) + "}");
            tracing_ms += static_cast<double>(nowNs() - t1) * 1e-6;
        }
        ++passes;
        rounds += result.meanRounds;
        // Per-image outputs do not depend on batch order: every pass
        // must match the reference bit for bit.
        bool same = result.predictions.size() == n;
        for (std::size_t j = 0; same && j < n; ++j) {
            const auto &got = result.predictions[j];
            const auto &want = fx->reference.predictions[order[j]];
            same = got.achievedSamples == want.achievedSamples &&
                std::memcmp(got.probs.data(), want.probs.data(),
                            want.probs.size() * sizeof(float)) == 0;
        }
        bad += !same;
    }
    const auto images = static_cast<double>(n * passes);
    const double img_per_s =
        images / (std::accumulate(ms.begin(), ms.end(), 0.0) * 1e-3);
    const double scaled_img_per_s =
        images / (std::accumulate(scaled.begin(), scaled.end(), 0.0) * 1e-3);
    std::printf("passes    : %zu over %zu images, budget T=%d, mean rounds "
                "%.3f\n"
                "            latency %s\n"
                "            scaled to the nominal host speed %s\n"
                "            %.1f img/s, %.1f scaled; %zu pass(es) differ "
                "from the reference\n"
                "accuracy  : %.4f on %zu test images\n",
                passes, n, kBatchBudget, rounds / static_cast<double>(passes),
                describeLatency(ms).c_str(), describeLatency(scaled).c_str(),
                img_per_s, scaled_img_per_s, bad, accuracy, n);
    reportGauge("passes", gauge.readings(), outcome);
    outcome.attempted = passes;
    outcome.failed = bad;
    outcome.guard(bad == 0, std::to_string(bad) +
                                " pass(es) differ from the reference pass");
    outcome.guard(accuracy >= kAccuracyFloor, "accuracy below the floor");

    if (opts.traced()) {
        auto &m = outcome.metrics;
        m["trace.overhead"] =
            tracing_ms / std::accumulate(ms.begin(), ms.end(), 0.0);
        m["session.passes"] = static_cast<double>(passes);
        m["session.merge_requests_per_pass"] = 1.0;
        m["session.merge_images_per_pass"] = static_cast<double>(n);
        const auto replayed = replayShapes(
            fx->model.program, batchOptions(),
            {{"b1024_adaptive", n, kBatchBudget, true}}, test, opts.smoke,
            trace, outcome);
        if (!replayed.empty())
            layerMetrics(replayed.front(), outcome);
    } else {
        outcome.metrics["throughput"] = scaled_img_per_s;
        outcome.metrics["p50_ms"] = median(scaled);
        outcome.metrics["accuracy"] = accuracy;
    }
    return outcome;
}

// ----------------------------------------------------------- training

struct TrainFixture
{
    data::Dataset data;
    std::unique_ptr<bnn::BayesianMlp> net;
    std::unique_ptr<bnn::BnnBatchTrainer> trainer;
};

std::unique_ptr<TrainFixture>
setUpTraining()
{
    auto fx = std::make_unique<TrainFixture>();
    data::SynthMnistConfig synth;
    synth.trainCount = 8000;
    synth.testCount = kTestImages;
    synth.seed = kDataSeed + 1;
    fx->data = data::makeSynthMnist(synth);
    Rng init(kInitSeed);
    fx->net = std::make_unique<bnn::BayesianMlp>(kMnistMlp, init, -5.0f);
    // No pool: the benchmark runs pinned to one CPU.
    bnn::BnnBatchedTrainConfig cfg;
    cfg.batchSize = 64;
    cfg.estimator = bnn::BnnEstimator::LocalReparam;
    cfg.seed = kTrainSeed;
    fx->trainer = std::make_unique<bnn::BnnBatchTrainer>(*fx->net, cfg);
    return fx;
}

Outcome
runTraining(const Options &opts, std::int64_t origin_ns, TraceLog &trace)
{
    Outcome outcome;
    auto fx = setUp(opts, origin_ns, outcome, setUpTraining);
    const auto train = fx->data.train.view();
    constexpr std::size_t kBatch = 64;
    // Fixed work sized to the run length: the result is the same for a
    // given --seconds on any machine.
    const std::size_t epochs = opts.smoke
        ? 1
        : std::max<std::size_t>(1, static_cast<std::size_t>(
                                       std::lround(0.4 * opts.seconds)));

    // trainBnnBatched's loop, driven from here so the seed shuffles the
    // minibatches and each step is timed; the gauge is read every
    // kGaugeSteps steps.
    Rng order_rng(phaseSeed(opts.seed, 5));
    std::vector<std::size_t> order(train.count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<double> ms, scaled, fb_ms, kl_ms, epoch_loss;
    double samples = 0.0, tracing_ms = 0.0;
    bool finite = true;
    constexpr int kPid = 4;
    if (opts.traced())
        trace.processName(kPid, "train_elbo (per minibatch step)");
    std::size_t step = 0;
    GaugeTrack gauge;
    const auto close_slice = [&] {
        const double factor = gauge.next();
        for (std::size_t i = scaled.size(); i < ms.size(); ++i)
            scaled.push_back(ms[i] * factor);
    };
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        order_rng.shuffle(order);
        double loss = 0.0;
        for (std::size_t begin = 0; begin < train.count; begin += kBatch) {
            const std::size_t batch = std::min(kBatch, train.count - begin);
            const std::int64_t t0 = nowNs();
            fx->trainer->zeroGrads();
            const std::int64_t t1 = nowNs();
            const double data_loss = fx->trainer->forwardBackward(
                train, order.data() + begin, batch);
            const std::int64_t t2 = nowNs();
            const double kl =
                fx->trainer->applyKlAndStep(batch, train.count);
            const std::int64_t t3 = nowNs();
            ms.push_back(static_cast<double>(t3 - t0) * 1e-6);
            fb_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
            kl_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
            samples += static_cast<double>(batch);
            if (opts.traced()) {
                trace.span("step", kPid, 0, trace.at(t0),
                           static_cast<double>(t3 - t0) * 1e-3);
                trace.span("zeroGrads", kPid, 0, trace.at(t0),
                           static_cast<double>(t1 - t0) * 1e-3);
                trace.span("forwardBackward", kPid, 0, trace.at(t1),
                           static_cast<double>(t2 - t1) * 1e-3);
                trace.span("applyKlAndStep", kPid, 0, trace.at(t2),
                           static_cast<double>(t3 - t2) * 1e-3);
                tracing_ms += static_cast<double>(nowNs() - t3) * 1e-6;
            }
            finite = finite && std::isfinite(data_loss) && std::isfinite(kl);
            loss += data_loss + kl * static_cast<double>(batch) /
                    static_cast<double>(train.count);
            if (++step % kGaugeSteps == 0)
                close_slice();
        }
        epoch_loss.push_back(loss / static_cast<double>(train.count));
    }
    if (scaled.size() < ms.size())
        close_slice();
    // Scored untimed on the posterior-mean network: one deterministic
    // forward per image, so the score moves with training quality and
    // not with Monte-Carlo noise.
    const auto &test = fx->data.test;
    std::vector<float> logits(fx->net->outputDim());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test.count(); ++i) {
        fx->net->meanForward(test.sample(i), logits.data());
        hits += static_cast<std::size_t>(
                    std::max_element(logits.begin(), logits.end()) -
                    logits.begin()) == static_cast<std::size_t>(test.labels[i]);
    }
    const double accuracy =
        static_cast<double>(hits) / static_cast<double>(test.count());

    const double samples_per_s =
        samples / (std::accumulate(ms.begin(), ms.end(), 0.0) * 1e-3);
    const double scaled_samples_per_s =
        samples / (std::accumulate(scaled.begin(), scaled.end(), 0.0) * 1e-3);
    std::string losses;
    for (const double l : epoch_loss)
        losses += (losses.empty() ? "" : ", ") + jsonNumber(l);
    std::printf("training  : %zu epoch(s) x %zu samples, batch %zu, %zu "
                "steps\n"
                "            step latency %s\n"
                "            scaled to the nominal host speed %s\n"
                "            median forwardBackward %.3f ms, applyKlAndStep "
                "%.3f ms\n"
                "            %.1f samples/s, %.1f scaled; mean loss per "
                "epoch: %s\n"
                "accuracy  : %.4f on %zu test images, posterior mean\n",
                epochs, train.count, kBatch, step,
                describeLatency(ms).c_str(), describeLatency(scaled).c_str(),
                median(fb_ms), median(kl_ms), samples_per_s,
                scaled_samples_per_s, losses.c_str(), accuracy,
                fx->data.test.count());
    reportGauge("steps", gauge.readings(), outcome);
    outcome.detail.emplace_back("epoch_loss", "[" + losses + "]");
    outcome.attempted = step;
    outcome.failed = finite ? 0 : 1;
    outcome.guard(finite, "a training step produced a non-finite loss");
    outcome.guard(epochs < 2 || epoch_loss.back() < epoch_loss.front(),
                  "training loss did not decrease");
    outcome.guard(accuracy >= kAccuracyFloor, "accuracy below the floor");

    if (opts.traced()) {
        auto &m = outcome.metrics;
        m["trainer.forward_backward_ms"] = median(fb_ms);
        m["trainer.kl_step_ms"] = median(kl_ms);
        m["trainer.final_loss"] = epoch_loss.back();
        m["trace.overhead"] =
            tracing_ms / std::accumulate(ms.begin(), ms.end(), 0.0);
    } else {
        outcome.metrics["throughput"] = scaled_samples_per_s;
        outcome.metrics["p50_ms"] = median(scaled);
        outcome.metrics["accuracy"] = accuracy;
    }
    return outcome;
}

// -------------------------------------------------------- command line

const ServeSpec kServeMixed = {
    "serve_mixed",
    // Few T=4 requests, so the median latency falls among the T=8 ones
    // and not in the gap between the two (README.md, "Why these metrics").
    {/*tLow=*/4, /*tHigh=*/8, /*pLow=*/0.1, /*batchSmall=*/1,
     /*batchLarge=*/4, /*pSmall=*/0.75, /*deadlineMicros=*/0},
    30.0, /*cpuBound=*/true};
// The budget is ~3x a slow host's one-image T=8 pass, so holding, not
// computing, sets the latency and the capacity (connections / budget).
const ServeSpec kServeDeadline = {
    "serve_deadline",
    {8, 8, 0.0, 1, 1, 1.0, /*deadlineMicros=*/25'000},
    40.0, /*cpuBound=*/false};

const std::vector<std::string> kWorkloads = {
    "serve_mixed", "serve_deadline", "batch_adaptive", "train_elbo"};

/** Print the metrics, the verdict and the final JSON line; returns the
 *  exit code. */
int
finish(const std::string &workload, const Options &opts, Outcome &outcome,
       const TraceLog &trace)
{
    std::string metrics_json;
    std::vector<std::pair<std::string, std::string>> all;
    std::printf("metrics (%s):\n", opts.traced() ? "per layer"
                                                 : "end to end");
    for (const auto &def : opts.traced() ? std::vector<MetricDef>(
                                               std::begin(kPerLayer),
                                               std::end(kPerLayer))
                                         : std::vector<MetricDef>(
                                               std::begin(kEndToEnd),
                                               std::end(kEndToEnd))) {
        const auto it = outcome.metrics.find(def.name);
        // Per-layer metrics of layers this workload does not touch
        // read 0; every end-to-end metric must be measured.
        const double value = it == outcome.metrics.end() ? 0.0 : it->second;
        if (!opts.traced())
            outcome.guard(it != outcome.metrics.end() &&
                              std::isfinite(value) && value > 0.0,
                          std::string("end-to-end metric ") + def.name +
                              " was not measured");
        std::printf("  %-34s = %.6g %s\n", def.name, value, def.unit);
        metrics_json += std::string(metrics_json.empty() ? "" : ", ") +
            "\"" + def.name + "\": {\"value\": " + jsonNumber(value) +
            ", \"unit\": \"" + def.unit + "\"}";
        all.emplace_back(def.name, jsonNumber(value));
    }

    if (opts.traced()) {
        if (trace.write(opts.tracePath))
            std::printf("trace     : %zu events -> %s\n", trace.size(),
                        opts.tracePath.c_str());
        else
            outcome.guard(false, "cannot write the trace to " +
                                     opts.tracePath);
    }
    const bool correct = outcome.invalid.empty();
    if (!opts.jsonPath.empty()) {
        std::vector<std::pair<std::string, std::string>> doc = {
            {"workload", "\"" + workload + "\""},
            {"seed", std::to_string(opts.seed)},
            {"seconds", jsonNumber(opts.seconds)},
            {"traced", opts.traced() ? "true" : "false"},
            {"correct", correct ? "true" : "false"},
            {"attempted", std::to_string(outcome.attempted)},
            {"failed", std::to_string(outcome.failed)},
            {"metrics", jsonObject(all)},
        };
        doc.insert(doc.end(), outcome.detail.begin(), outcome.detail.end());
        std::ofstream out(opts.jsonPath, std::ios::trunc);
        out << jsonObject(doc) << "\n";
        if (!out)
            std::printf("cannot write %s\n", opts.jsonPath.c_str());
    }
    for (const auto &reason : outcome.invalid)
        std::printf("INVALID: %s\n", reason.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", outcome.attempted,
                outcome.failed, metrics_json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

int
runWorkload(const std::string &workload, Options opts,
            std::int64_t origin_ns)
{
    std::printf("== %s  seed=%llu  seconds=%g%s%s  kernels=%s  "
                "pinned to cpu %d, load generator on %d other(s) ==\n",
                workload.c_str(), static_cast<unsigned long long>(opts.seed),
                opts.seconds, opts.smoke ? "  smoke" : "",
                opts.traced() ? "  traced" : "",
                serve::InferenceSession::kernelName(), opts.cpus.cpu,
                CPU_COUNT(&opts.cpus.others));
    TraceLog trace(origin_ns);
    Outcome outcome;
    if (workload == "serve_mixed")
        outcome = runServing(kServeMixed, opts, origin_ns, trace);
    else if (workload == "serve_deadline")
        outcome = runServing(kServeDeadline, opts, origin_ns, trace);
    else if (workload == "batch_adaptive")
        outcome = runBatch(opts, origin_ns, trace);
    else
        outcome = runTraining(opts, origin_ns, trace);
    return finish(workload, opts, outcome, trace);
}

/** "dir/x.json" + "serve_mixed" -> "dir/x-serve_mixed.json". */
std::string
withSuffix(const std::string &path, const std::string &suffix)
{
    if (path.empty())
        return path;
    const auto dot = path.rfind('.');
    const auto slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "-" + suffix;
    return path.substr(0, dot) + "-" + suffix + path.substr(dot);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_e2e --workload {serve_mixed|serve_deadline|"
                 "batch_adaptive|train_elbo|all} --seed N [--seconds S] "
                 "[--trace PATH] [--json PATH] [--smoke]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t origin_ns = nowNs();
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--workload" && has_value) {
            opts.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            opts.tracePath = argv[++i];
        } else if (arg == "--json" && has_value) {
            opts.jsonPath = argv[++i];
        } else {
            return usage();
        }
    }
    if (!(opts.seconds >= 1.0 && opts.seconds <= 600.0))
        return usage();
    // Before any thread starts, so that every thread inherits the mask.
    opts.cpus = pinToCurrentCpu();
    if (opts.cpus.cpu < 0)
        std::printf("warning: cannot pin to one CPU; the gauge may time "
                    "another CPU than the work\n");
    if (opts.workload == "all") {
        int code = 0;
        for (const auto &workload : kWorkloads) {
            Options one = opts;
            one.tracePath = withSuffix(opts.tracePath, workload);
            one.jsonPath = withSuffix(opts.jsonPath, workload);
            code = std::max(code, runWorkload(workload, one, nowNs()));
        }
        return code;
    }
    for (const auto &workload : kWorkloads)
        if (opts.workload == workload)
            return runWorkload(workload, opts, origin_ns);
    return usage();
}
