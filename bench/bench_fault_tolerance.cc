/**
 * @file
 * Fault-tolerance benchmark (PR 10): what the serving stack delivers
 * when things break.
 *
 * Section "bitflip" — accuracy vs weight-arena bit-flip rate. A
 * trained Bayesian MLP classifies the synthetic-MNIST test set on the
 * batched (Throughput) path while the "accel.weights.bitflip" chaos
 * site flips each drawn weight bit with probability p. Two ensembles
 * run the same sweep: T=1 (single posterior sample — what a
 * conventional point-estimate deployment risks) and T=8 (the paper's
 * MC-averaged ensemble). The claim under test: Monte-Carlo averaging
 * degrades gracefully, because a corrupted draw is one vote among T,
 * while single-sample accuracy falls off a cliff.
 *
 * Section "chaos" — availability under transport chaos. A sharded
 * server runs over real loopback TCP with a standing fault profile
 * (torn reads, dropped connections, torn and delayed responses) while
 * retrying clients hammer it. The acceptance bar: >= 99% of requests
 * succeed within the retry budget AND every success is bit-identical
 * to the fault-free in-process answer (a replayed id is a safe
 * replay — the response is a pure function of (program, seed, T,
 * images)).
 *
 * Env: VIBNN_SCALE scales work, VIBNN_SEED the data/model seeds,
 * VIBNN_BENCH_JSON emits machine-readable records (their gated rows
 * in BENCH_BASELINE.json are checked by the CI bench gate — `accuracy`
 * and `success_rate` are higher-is-better).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "core/vibnn.hh"
#include "data/synth_mnist.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/session.hh"

using namespace vibnn;
using namespace vibnn::bench;

namespace
{

/** Arm a chaos spec or die — a bench with a silently dropped fault
 *  profile would "pass" while testing nothing. */
void
armOrDie(const std::string &spec)
{
    std::string error;
    if (!fault::armSpec(spec, error))
        fatal("bench_fault_tolerance: " + error);
}

// ------------------------------------------------------------ bitflip

void
runBitflipSection(JsonReport &json)
{
    std::printf("\n--- bitflip: accuracy vs weight bit-flip rate ---\n");

    data::SynthMnistConfig mnist_config;
    mnist_config.trainCount = scaledCount(600);
    mnist_config.testCount = scaledCount(300);
    mnist_config.seed = envSeed();
    const auto ds = data::makeSynthMnist(mnist_config);

    bnn::BnnTrainConfig train_config;
    train_config.epochs = std::max<std::size_t>(scaledCount(3), 2);
    train_config.batchSize = 32;
    train_config.learningRate = 1e-3f;
    train_config.priorSigma = 0.3f;
    train_config.seed = envSeed() + 3;
    accel::AcceleratorConfig accel_config;
    // A 784-100-10 model leaves fewer than 16 rounds per layer, so
    // the default 16-set PE array cannot drain (equation 14a) —
    // serve it on a 2x8 array instead.
    accel_config.peSets = 2;
    accel_config.pesPerSet = 8;
    accel_config.mcSamples = 8;
    Stopwatch clock;
    const auto sys = core::VibnnSystem::train(ds, {100}, train_config,
                                              accel_config, "rlf");
    std::printf("[%6.1fs] BNN trained (784-100-10, %zu train images)\n",
                clock.seconds(), ds.train.count());

    const double rates[] = {0.0, 1e-4, 1e-3, 5e-3, 1e-2};
    const int ensembles[] = {1, 8};

    TextTable table;
    table.setHeader({"Flip rate", "T=1 acc", "T=8 acc", "T8 - T1"});
    std::vector<std::vector<double>> acc(
        2, std::vector<double>(std::size(rates), 0.0));

    for (std::size_t ti = 0; ti < std::size(ensembles); ++ti) {
        serve::SessionOptions opts;
        opts.mode = serve::ExecMode::Throughput; // the batched path
        opts.mcSamples = ensembles[ti];
        opts.seed = envSeed() + 5;
        auto session = sys.makeSession(opts);
        for (std::size_t ri = 0; ri < std::size(rates); ++ri) {
            if (rates[ri] > 0.0)
                armOrDie("accel.weights.bitflip:p=" +
                         strfmt("%g", rates[ri]));
            else
                fault::disarm(); // true unarmed baseline
            const auto response = session->run(
                serve::InferenceRequest::borrow(ds.test.view()));
            acc[ti][ri] = response.accuracy(ds.test.view().labels);
            std::printf("  done: T=%d rate=%g acc=%.4f (%llu bits "
                        "flipped)\n",
                        ensembles[ti], rates[ri], acc[ti][ri],
                        static_cast<unsigned long long>(
                            fault::fires("accel.weights.bitflip")));
        }
    }
    fault::disarm();

    for (std::size_t ri = 0; ri < std::size(rates); ++ri) {
        table.addRow({strfmt("%g", rates[ri]),
                      strfmt("%.4f", acc[0][ri]),
                      strfmt("%.4f", acc[1][ri]),
                      strfmt("%+.4f", acc[1][ri] - acc[0][ri])});
        for (std::size_t ti = 0; ti < std::size(ensembles); ++ti)
            json.add(JsonRecord()
                         .field("bench", "bench_fault_tolerance")
                         .field("section", "bitflip")
                         .field("T", ensembles[ti])
                         .field("rate", strfmt("%g", rates[ri]))
                         .field("accuracy", acc[ti][ri]));
    }
    table.print();

    // The graceful-degradation readout: mean accuracy across the
    // nonzero flip rates (at the most extreme rate BOTH ensembles
    // eventually collapse — the advantage lives in the middle of the
    // curve, where one corrupted draw is outvoted).
    double mean1 = 0.0, mean8 = 0.0;
    for (std::size_t ri = 1; ri < std::size(rates); ++ri) {
        mean1 += acc[0][ri];
        mean8 += acc[1][ri];
    }
    mean1 /= static_cast<double>(std::size(rates) - 1);
    mean8 /= static_cast<double>(std::size(rates) - 1);
    std::printf("\nmean accuracy under flips: T=1 %.4f, T=8 %.4f — "
                "MC averaging %s\n",
                mean1, mean8,
                mean8 > mean1 ? "degrades more gracefully"
                              : "showed no advantage on this run");
}

// -------------------------------------------------------------- chaos

constexpr std::size_t kInputDim = 24;

struct ChaosOutcome
{
    std::size_t successes = 0;
    std::size_t failures = 0;
    std::size_t mismatches = 0; // success but NOT bit-exact
    std::size_t attempts = 0;
    std::vector<double> latenciesMicros;
};

void
runChaosSection(JsonReport &json)
{
    std::printf("\n--- chaos: availability under transport faults ---\n");

    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 8;
    config.mcSamples = 8;
    Rng model_rng(envSeed() + 7);
    bnn::BayesianMlp net({kInputDim, 16, 4}, model_rng, -3.0f);
    auto program = compile(net, config);

    serve::SessionOptions session_opts;
    session_opts.mode = serve::ExecMode::Throughput;
    session_opts.seed = 211;

    // Fault-free oracle: the same program/session policy in-process.
    auto reference = serve::InferenceSession::Builder()
                         .program(accel::QuantizedProgram(program))
                         .accelerator(config)
                         .options(session_opts)
                         .build();

    serve::ServerOptions server_opts;
    server_opts.shards = 2;
    server_opts.queueCapacity = 64;
    server_opts.session = session_opts;
    serve::Server server(std::move(program), config, server_opts);
    std::string error;
    if (!server.start(error))
        fatal("bench_fault_tolerance: server start: " + error);

    // The standing chaos profile: every classify has a few percent
    // chance of a torn read, a dropped connection, a torn response,
    // or a response delayed past the client's receive deadline.
    const std::string profile =
        "net.read.torn:p=0.02,serve.conn.drop:p=0.02,"
        "serve.response.torn:p=0.02,serve.response.delay:p=0.01+delay=400";
    armOrDie(profile);

    const std::size_t conns = 4;
    const std::size_t per_conn = std::max<std::size_t>(
        scaledCount(50), 10);
    std::vector<ChaosOutcome> outcomes(conns);
    Stopwatch clock;
    std::vector<std::thread> threads;
    for (std::size_t tid = 0; tid < conns; ++tid) {
        threads.emplace_back([&, tid] {
            ChaosOutcome &out = outcomes[tid];
            serve::Client client;
            client.setReceiveTimeout(250);
            std::string cerr;
            if (!client.connect("127.0.0.1", server.port(), cerr)) {
                // The accept path is not under chaos here; treat a
                // refused connect as fatal rather than a data point.
                fatal("chaos client connect: " + cerr);
            }
            for (std::size_t i = 0; i < per_conn; ++i) {
                const std::uint64_t image_seed =
                    envSeed() + 1000 + tid * 1000 + i;
                Rng rng(image_seed);
                std::vector<float> xs(kInputDim);
                for (auto &v : xs)
                    v = static_cast<float>(rng.uniform());

                const auto t0 = std::chrono::steady_clock::now();
                const auto reply = client.classify(
                    xs.data(), 1, kInputDim, serve::Client::Options(),
                    serve::Client::RetryPolicy::attempts(8, 5));
                const double micros =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                out.attempts +=
                    static_cast<std::size_t>(reply.attempts);
                if (!reply.ok()) {
                    ++out.failures;
                    continue;
                }
                out.latenciesMicros.push_back(micros);
                // Bit-exactness against the fault-free oracle.
                const auto ref = reference->run(
                    serve::InferenceRequest::borrow(xs.data(), 1,
                                                    kInputDim));
                const auto &served = reply.response.predictions.at(0);
                const auto &want = ref.predictions.at(0);
                const bool exact =
                    served.predicted == want.predicted &&
                    served.probs.size() == want.probs.size() &&
                    std::memcmp(served.probs.data(),
                                want.probs.data(),
                                want.probs.size() * sizeof(float)) ==
                        0;
                if (exact)
                    ++out.successes;
                else
                    ++out.mismatches;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double elapsed = clock.seconds();

    ChaosOutcome total;
    for (const auto &out : outcomes) {
        total.successes += out.successes;
        total.failures += out.failures;
        total.mismatches += out.mismatches;
        total.attempts += out.attempts;
        total.latenciesMicros.insert(total.latenciesMicros.end(),
                                     out.latenciesMicros.begin(),
                                     out.latenciesMicros.end());
    }
    const std::size_t requests = conns * per_conn;
    const double success_rate =
        static_cast<double>(total.successes) /
        static_cast<double>(requests);
    std::sort(total.latenciesMicros.begin(),
              total.latenciesMicros.end());
    auto quantile = [&](double q) {
        if (total.latenciesMicros.empty())
            return 0.0;
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(total.latenciesMicros.size() - 1));
        return total.latenciesMicros[idx];
    };

    // Snapshot while still armed: disarm() drops the fire counters.
    const serve::ServerStats stats = server.stats();
    fault::disarm();
    std::printf("profile: %s\n", profile.c_str());
    std::printf("requests %zu  success %zu (%.2f%%)  failures %zu  "
                "mismatches %zu\n",
                requests, total.successes, 100.0 * success_rate,
                total.failures, total.mismatches);
    std::printf("attempts/request %.2f  retries observed by server "
                "%llu  faults fired %llu\n",
                static_cast<double>(total.attempts) /
                    static_cast<double>(requests),
                static_cast<unsigned long long>(stats.retriesObserved),
                static_cast<unsigned long long>(stats.faultFires));
    std::printf("goodput %.1f req/s  p50 %.0f us  p99 %.0f us\n",
                static_cast<double>(total.successes) / elapsed,
                quantile(0.50), quantile(0.99));
    if (success_rate < 0.99 || total.mismatches > 0)
        std::printf("FAIL: the >=99%% bit-exact-success bar was "
                    "missed\n");
    else
        std::printf("OK: >=99%% of chaos-armed requests succeeded "
                    "bit-exactly\n");

    json.add(JsonRecord()
                 .field("bench", "bench_fault_tolerance")
                 .field("section", "chaos")
                 .field("profile", "mixed-transport")
                 .field("conns", conns)
                 .field("requests", requests)
                 .field("success_rate", success_rate)
                 .field("mismatches", total.mismatches)
                 .field("attempts_per_request",
                        static_cast<double>(total.attempts) /
                            static_cast<double>(requests))
                 .field("goodput_req_per_s",
                        static_cast<double>(total.successes) / elapsed)
                 .field("p50_us", quantile(0.50))
                 .field("p99_us", quantile(0.99)));

    server.stop();
}

} // anonymous namespace

int
main()
{
    banner("Fault tolerance",
           "bit-flip resilience of MC averaging + availability under "
           "transport chaos (PR 10)");
    JsonReport json;
    runBitflipSection(json);
    runChaosSection(json);
    json.write();
    return 0;
}
