/**
 * @file
 * Tests for the serving layer: the shared uncertainty math against
 * hand-computed references, session results against the raw
 * Monte-Carlo engine (the pre-session classifyBatch path) in both exec
 * modes, exact sync/async equivalence under micro-batch coalescing for
 * any thread count, per-request ensemble-size overrides, the
 * environment/string option parsing, and the builder's validation
 * error paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "accel/batched_runner.hh"
#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/rng.hh"
#include "core/model_io.hh"
#include "core/vibnn.hh"
#include "data/synth_mnist.hh"
#include "nn/uncertainty.hh"
#include "serve/session.hh"

using namespace vibnn;
using namespace vibnn::serve;

namespace
{

accel::AcceleratorConfig
smallConfig(int mc_samples = 4)
{
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = mc_samples;
    return config;
}

accel::QuantizedProgram
mlpProgram(const accel::AcceleratorConfig &config, std::uint64_t seed,
           float rho_init = -3.0f)
{
    Rng rng(seed);
    bnn::BayesianMlp net({24, 16, 4}, rng, rho_init);
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

/** Builder preloaded with the standard small MLP program. */
InferenceSession::Builder
smallBuilder(const accel::AcceleratorConfig &config,
             std::uint64_t seed = 211)
{
    return std::move(InferenceSession::Builder()
                         .program(mlpProgram(config, 7))
                         .accelerator(config)
                         .seed(seed));
}

} // anonymous namespace

// ----------------------------------------------------- uncertainty math

TEST(Uncertainty, EntropyMatchesHandComputedReferences)
{
    const float uniform[4] = {0.25f, 0.25f, 0.25f, 0.25f};
    EXPECT_NEAR(nn::predictiveEntropy(uniform, 4), std::log(4.0),
                1e-12);

    const float point[4] = {0.0f, 1.0f, 0.0f, 0.0f};
    EXPECT_EQ(nn::predictiveEntropy(point, 4), 0.0);

    // H(0.75, 0.25) = -(3/4) ln(3/4) - (1/4) ln(1/4).
    const float skew[2] = {0.75f, 0.25f};
    EXPECT_NEAR(nn::predictiveEntropy(skew, 2),
                -(0.75 * std::log(0.75) + 0.25 * std::log(0.25)),
                1e-7);
}

TEST(Uncertainty, MutualInformationSeparatesDisagreementFromNoise)
{
    // Two confident but opposite samples: every sample has zero
    // entropy, the mean is uniform -> MI = H(mean) = ln 2 (pure
    // epistemic disagreement).
    const float disagree[4] = {1.0f, 0.0f, 0.0f, 1.0f};
    const float mean_of_disagree[2] = {0.5f, 0.5f};
    EXPECT_NEAR(nn::meanSampleEntropy(disagree, 2, 2), 0.0, 1e-12);
    EXPECT_NEAR(nn::mutualInformation(mean_of_disagree, disagree, 2, 2),
                std::log(2.0), 1e-7);

    // Two identical uniform samples: the mean entropy equals the
    // per-sample entropy -> MI = 0 (pure aleatoric noise).
    const float agree[4] = {0.5f, 0.5f, 0.5f, 0.5f};
    EXPECT_NEAR(nn::mutualInformation(mean_of_disagree, agree, 2, 2),
                0.0, 1e-7);
}

TEST(Uncertainty, TopKRanksAndBreaksTies)
{
    const float probs[5] = {0.1f, 0.4f, 0.1f, 0.25f, 0.15f};
    const auto top3 = nn::topK(probs, 5, 3);
    ASSERT_EQ(top3.size(), 3u);
    EXPECT_EQ(top3[0].classIndex, 1u);
    EXPECT_FLOAT_EQ(top3[0].prob, 0.4f);
    EXPECT_EQ(top3[1].classIndex, 3u);
    EXPECT_EQ(top3[2].classIndex, 4u);

    // Tie on 0.1 keeps the lower class index first; k clamps to count.
    const auto all = nn::topK(probs, 5, 99);
    ASSERT_EQ(all.size(), 5u);
    EXPECT_EQ(all[3].classIndex, 0u);
    EXPECT_EQ(all[4].classIndex, 2u);

    EXPECT_FLOAT_EQ(nn::maxProbability(probs, 5), 0.4f);
}

// ------------------------------------------- session vs. the raw engine

TEST(InferenceSession, MatchesRawEngineInBothModes)
{
    // The session must report exactly what the pre-session path — a
    // fresh McEngine with the same policy — computes at the same
    // seeds, in both exec modes.
    const auto config = smallConfig(5);
    const auto program = mlpProgram(config, 7);
    const std::size_t count = 6, dim = program.inputDim();
    const auto xs = randomBatch(count, dim, 17);

    struct
    {
        ExecMode mode;
        const char *backend;
        accel::McSchedule schedule;
    } cases[2] = {
        {ExecMode::Fidelity, "functional", accel::McSchedule::PerUnit},
        {ExecMode::Throughput, "batched", accel::McSchedule::PerRound},
    };
    for (const auto &c : cases) {
        auto session = InferenceSession::Builder()
                           .program(program)
                           .accelerator(config)
                           .seed(19)
                           .mode(c.mode)
                           .build();
        EXPECT_STREQ(session->backendId().c_str(), c.backend);
        const auto result = session->run(
            InferenceRequest::borrow(xs.data(), count, dim));

        accel::McEngineConfig mc;
        mc.seedBase = 19;
        mc.backendId = c.backend;
        mc.schedule = c.schedule;
        accel::McEngine engine(program, config, mc);
        const auto engine_result =
            engine.classifyBatchDetailed(xs.data(), count, dim, false);
        const auto &preds = engine_result.predicted;
        const auto &probs = engine_result.probs;

        ASSERT_EQ(result.predictions.size(), count);
        EXPECT_EQ(result.predictedClasses(), preds);
        for (std::size_t i = 0; i < count; ++i) {
            const auto &p = result.predictions[i].probs;
            for (std::size_t j = 0; j < p.size(); ++j)
                EXPECT_EQ(p[j],
                          probs[i * program.outputDim() + j])
                    << execModeName(c.mode) << " image " << i
                    << " class " << j;
        }
    }
}

TEST(InferenceSession, ServesSynthMnistBitIdenticalToFacadeClassifyBatch)
{
    // The acceptance bar of the redesign: the synth-MNIST batch served
    // through a session in BOTH exec modes must predict bit-identically
    // to VibnnSystem::classifyBatch (the pre-redesign entry) at the
    // same seeds.
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = 4;
    Rng rng(59);
    bnn::BayesianMlp net({data::kMnistPixels, 12, 10}, rng, -3.0f);
    const core::VibnnSystem system(net, config, "rlf", 61);

    data::SynthMnistConfig synth;
    synth.trainCount = 1;
    synth.testCount = 10;
    synth.seed = 67;
    const auto ds = data::makeSynthMnist(synth);
    const auto view = ds.test.view();

    for (const ExecMode mode :
         {ExecMode::Fidelity, ExecMode::Throughput}) {
        std::vector<float> facade_probs(view.count * 10);
        const auto facade_preds = system.classifyBatch(
            view, 1, facade_probs.data(), mode);

        serve::SessionOptions opts;
        opts.mode = mode;
        auto session = system.makeSession(opts);
        const auto result =
            session->run(InferenceRequest::borrow(view));
        EXPECT_EQ(result.predictedClasses(), facade_preds)
            << execModeName(mode);
        for (std::size_t i = 0; i < view.count; ++i) {
            const auto &p = result.predictions[i].probs;
            for (std::size_t j = 0; j < p.size(); ++j)
                EXPECT_EQ(p[j], facade_probs[i * 10 + j])
                    << execModeName(mode) << " image " << i;
        }
    }
}

TEST(InferenceSession, DecoratesPredictionsConsistently)
{
    const auto config = smallConfig(6);
    auto session = smallBuilder(config).topK(2).build();
    const auto xs = randomBatch(3, session->inputDim(), 23);
    const auto result =
        session->run(InferenceRequest::borrow(xs.data(), 3,
                                              session->inputDim()));

    for (const auto &p : result.predictions) {
        // The decorations must all derive from the same probs buffer.
        EXPECT_EQ(p.predicted, static_cast<std::size_t>(
                                   std::max_element(p.probs.begin(),
                                                    p.probs.end()) -
                                   p.probs.begin()));
        EXPECT_FLOAT_EQ(p.confidence,
                        nn::maxProbability(p.probs.data(),
                                           p.probs.size()));
        EXPECT_NEAR(p.entropy,
                    nn::predictiveEntropy(p.probs.data(),
                                          p.probs.size()),
                    1e-12);
        ASSERT_EQ(p.topk.size(), 2u);
        EXPECT_EQ(p.topk[0].classIndex, p.predicted);
        EXPECT_FLOAT_EQ(p.topk[0].prob, p.confidence);
        EXPECT_GE(p.topk[0].prob, p.topk[1].prob);
        // MI <= H (the decomposition), both nonnegative.
        EXPECT_GE(p.mutualInformation, 0.0);
        EXPECT_LE(p.mutualInformation, p.entropy + 1e-9);
        float mass = 0.0f;
        for (float v : p.probs)
            mass += v;
        EXPECT_NEAR(mass, 1.0f, 1e-4f);
    }
}

// --------------------------------------------------- async / coalescing

TEST(InferenceSession, AsyncSubmitMatchesSynchronousRunExactly)
{
    const auto config = smallConfig(4);
    for (const ExecMode mode :
         {ExecMode::Fidelity, ExecMode::Throughput}) {
        auto session = smallBuilder(config).mode(mode).build();
        const std::size_t dim = session->inputDim();
        const std::size_t requests = 7;
        const auto xs = randomBatch(requests, dim, 29);

        std::vector<ResultHandle> handles;
        for (std::size_t i = 0; i < requests; ++i) {
            handles.push_back(session->submit(InferenceRequest::borrow(
                xs.data() + i * dim, 1, dim)));
        }
        session->drain();

        for (std::size_t i = 0; i < requests; ++i) {
            auto async_result = handles[i].get();
            const auto sync_result = session->run(
                InferenceRequest::borrow(xs.data() + i * dim, 1, dim));
            ASSERT_EQ(async_result.predictions.size(), 1u);
            const auto &a = async_result.predictions.front();
            const auto &s = sync_result.predictions.front();
            EXPECT_EQ(a.predicted, s.predicted)
                << execModeName(mode) << " request " << i;
            EXPECT_EQ(a.probs, s.probs)
                << execModeName(mode) << " request " << i;
            EXPECT_EQ(a.entropy, s.entropy);
            EXPECT_EQ(a.mutualInformation, s.mutualInformation);
        }

        const auto counters = session->counters();
        EXPECT_EQ(counters.requests, 2 * requests);
        EXPECT_EQ(counters.images, 2 * requests);
        // Whatever the coalescing pattern was, it can never take more
        // passes than requests, and merged passes must be accounted.
        EXPECT_LE(counters.passes, counters.requests);
        if (counters.maxCoalescedRequests > 1) {
            EXPECT_GE(counters.coalescedPasses, 1u);
        }
        // A per-unit stream is seeded by the image's position in its
        // pass, so Fidelity never merges.
        if (mode == ExecMode::Fidelity) {
            EXPECT_EQ(counters.coalescedPasses, 0u);
        }
    }
}

TEST(InferenceSession, CoalescedResultsBitIdenticalAcrossThreadCounts)
{
    // The coalescer plus the engine's round scheduling must be
    // invisible: any thread count, any merge pattern, same bits.
    const auto config = smallConfig(8);
    const auto program = mlpProgram(config, 7);
    const std::size_t dim = program.inputDim();
    const std::size_t requests = 5;
    const auto xs = randomBatch(requests, dim, 31);

    std::vector<std::vector<float>> probs_by_threads;
    for (const std::size_t threads : {1u, 2u, 5u}) {
        auto session = InferenceSession::Builder()
                           .program(program)
                           .accelerator(config)
                           .seed(211)
                           .mode(ExecMode::Throughput)
                           .threads(threads)
                           .build();
        std::vector<ResultHandle> handles;
        for (std::size_t i = 0; i < requests; ++i) {
            handles.push_back(session->submit(InferenceRequest::borrow(
                xs.data() + i * dim, 1, dim)));
        }
        std::vector<float> flat;
        for (auto &handle : handles) {
            const auto result = handle.get();
            for (const auto &p : result.predictions)
                flat.insert(flat.end(), p.probs.begin(),
                            p.probs.end());
        }
        probs_by_threads.push_back(std::move(flat));
    }
    EXPECT_EQ(probs_by_threads[0], probs_by_threads[1]);
    EXPECT_EQ(probs_by_threads[0], probs_by_threads[2]);
}

TEST(InferenceSession, LeanModeSkipsSampleDistributionsOnly)
{
    // uncertainty(false) must not change predictions, mean probs or
    // entropy — only the per-sample-derived mutual information, which
    // reads 0 because the buffer is never materialized.
    const auto config = smallConfig(4);
    const auto xs = randomBatch(2, 24, 53);
    auto rich = smallBuilder(config).build();
    auto lean = smallBuilder(config).uncertainty(false).build();
    const auto rich_result =
        rich->run(InferenceRequest::borrow(xs.data(), 2, 24));
    const auto lean_result =
        lean->run(InferenceRequest::borrow(xs.data(), 2, 24));
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &r = rich_result.predictions[i];
        const auto &l = lean_result.predictions[i];
        EXPECT_EQ(l.predicted, r.predicted);
        EXPECT_EQ(l.probs, r.probs);
        EXPECT_EQ(l.entropy, r.entropy);
        EXPECT_EQ(l.mutualInformation, 0.0);
    }
}

TEST(InferenceSession, PerRequestEnsembleSizeOverride)
{
    // One session serves every T: round r's eps stream depends on the
    // seed and r only (roundSeed / streamSeed), never on T. So a
    // request at T must equal, bit for bit, a session built at T and
    // an McEngine built with mcSamples = T, and in Throughput mode a
    // pass at a T already covered caches no new rounds.
    const auto config = smallConfig(8);
    const std::size_t count = 2, dim = 24;
    const auto xs = randomBatch(count, dim, 37);
    const int ts[] = {8, 3, 2, 8};

    for (const ExecMode mode :
         {ExecMode::Fidelity, ExecMode::Throughput}) {
        for (const char *grng : {"rlf", "philox"}) {
            SCOPED_TRACE(std::string(execModeName(mode)) + " " + grng);
            auto session =
                smallBuilder(config).mode(mode).grng(grng).build();
            // The draw cache is read around this session's passes
            // only, before any reference below exists.
            const bool cached = mode == ExecMode::Throughput;
            const std::size_t cached_before =
                accel::BatchedRunner::drawCacheBytes();
            std::size_t cached_after_first = 0;
            std::vector<InferenceResult> served;
            for (const int t : ts) {
                InferenceRequest request =
                    InferenceRequest::borrow(xs.data(), count, dim);
                request.mcSamples = t;
                served.push_back(session->run(request));
                EXPECT_EQ(served.back().mcSamples, t);
                const std::size_t cached_now =
                    accel::BatchedRunner::drawCacheBytes();
                if (served.size() == 1) {
                    cached_after_first = cached_now;
                } else if (cached) {
                    EXPECT_EQ(cached_now, cached_after_first)
                        << "the T = " << t << " pass cached new rounds";
                }
            }
            if (cached) {
                EXPECT_GT(cached_after_first, cached_before);
            }

            for (std::size_t k = 0; k < served.size(); ++k) {
                const int t = ts[k];
                SCOPED_TRACE("T = " + std::to_string(t));
                const auto fresh = smallBuilder(config)
                                       .mode(mode)
                                       .grng(grng)
                                       .mcSamples(t)
                                       .build()
                                       ->run(InferenceRequest::borrow(
                                           xs.data(), count, dim));

                // An engine of its own at this T: what the shared
                // session must match after serving other T.
                accel::AcceleratorConfig engine_config = config;
                engine_config.mcSamples = t;
                accel::McEngineConfig mc;
                mc.generatorId = grng;
                mc.seedBase = 211;
                mc.backendId = session->backendId();
                mc.schedule = mode == ExecMode::Throughput
                                  ? accel::McSchedule::PerRound
                                  : accel::McSchedule::PerUnit;
                accel::McEngine engine(session->program(), engine_config,
                                       mc);
                const auto detailed =
                    engine.classifyBatchDetailed(xs.data(), count, dim);

                for (std::size_t i = 0; i < count; ++i) {
                    const auto &p = served[k].predictions[i];
                    const auto &q = fresh.predictions[i];
                    EXPECT_EQ(p.predicted, q.predicted) << "image " << i;
                    EXPECT_EQ(p.probs, q.probs) << "image " << i;
                    EXPECT_EQ(p.entropy, q.entropy) << "image " << i;
                    EXPECT_EQ(p.mutualInformation, q.mutualInformation)
                        << "image " << i;
                    EXPECT_EQ(p.predicted, detailed.predicted[i])
                        << "image " << i;
                    const float *row = detailed.probs.data() +
                        i * session->outputDim();
                    EXPECT_EQ(p.probs,
                              std::vector<float>(
                                  row, row + session->outputDim()))
                        << "image " << i;
                }
            }
        }
    }
}

// ------------------------------------------------ construction plumbing

TEST(InferenceSession, BuildsFromSystemAndFromSavedProgramFile)
{
    const auto config = smallConfig(4);
    Rng rng(43);
    bnn::BayesianMlp net({24, 16, 4}, rng, -3.0f);
    const core::VibnnSystem system(net, config, "rlf", 77);
    const auto xs = randomBatch(2, 24, 41);

    // Via the facade: adopts the system's grng id and seed, so the
    // facade's own classifyBatch must agree bit for bit.
    auto from_system = serve::InferenceSession::Builder()
                           .system(system)
                           .build();
    const auto result = from_system->run(
        InferenceRequest::borrow(xs.data(), 2, 24));
    std::vector<float> facade_probs(2 * system.program().outputDim());
    const auto facade_preds = system.classifyBatch(
        nn::DataView{2, 24, xs.data(), nullptr}, 1,
        facade_probs.data());
    EXPECT_EQ(result.predictedClasses(), facade_preds);
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &p = result.predictions[i].probs;
        for (std::size_t j = 0; j < p.size(); ++j)
            EXPECT_EQ(p[j], facade_probs[i * p.size() + j]);
    }

    // Via a saved program image: same program, same bits.
    const std::string path = "/tmp/vibnn_test_session_program.bin";
    ASSERT_TRUE(core::saveQuantizedProgram(system.program(), path));
    auto from_file = serve::InferenceSession::Builder()
                         .programFile(path)
                         .accelerator(config)
                         .seed(77)
                         .build();
    const auto file_result = from_file->run(
        InferenceRequest::borrow(xs.data(), 2, 24));
    EXPECT_EQ(file_result.predictedClasses(),
              result.predictedClasses());
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(file_result.predictions[i].probs,
                  result.predictions[i].probs);
    std::remove(path.c_str());
}

TEST(SessionOptions, EnvironmentOverlayAndModeParsing)
{
    EXPECT_EQ(parseExecMode("fidelity"), ExecMode::Fidelity);
    EXPECT_EQ(parseExecMode("throughput"), ExecMode::Throughput);

    setenv("VIBNN_SERVE_MODE", "throughput", 1);
    setenv("VIBNN_SERVE_GRNG", "bnnwallace", 1);
    setenv("VIBNN_SERVE_T", "12", 1);
    setenv("VIBNN_SERVE_THREADS", "3", 1);
    setenv("VIBNN_SERVE_SEED", "99", 1);
    const auto opts = SessionOptions::fromEnv();
    unsetenv("VIBNN_SERVE_MODE");
    unsetenv("VIBNN_SERVE_GRNG");
    unsetenv("VIBNN_SERVE_T");
    unsetenv("VIBNN_SERVE_THREADS");
    unsetenv("VIBNN_SERVE_SEED");

    EXPECT_EQ(opts.mode, ExecMode::Throughput);
    EXPECT_EQ(opts.grngId, "bnnwallace");
    EXPECT_EQ(opts.mcSamples, 12);
    EXPECT_EQ(opts.threads, 3u);
    EXPECT_EQ(opts.seed, 99u);
}

// ------------------------------------------------------ validation paths

TEST(SessionValidationDeathTest, BuilderRejectsBadInput)
{
    const auto config = smallConfig();
    EXPECT_DEATH((void)InferenceSession::Builder().build(),
                 "no model source");
    EXPECT_DEATH((void)smallBuilder(config).grng("no-such-grng").build(),
                 "unknown generator id.*registered:.*rlf");
    EXPECT_DEATH((void)smallBuilder(config).mcSamples(-2).build(),
                 "mcSamples must be >= 0");
    EXPECT_DEATH((void)InferenceSession::Builder()
                     .programFile("/nonexistent/vibnn program.bin")
                     .build(),
                 "cannot load");
    EXPECT_DEATH(parseExecMode("warp-speed"), "unknown exec mode");
}

TEST(SessionValidationDeathTest, RequestsAreValidated)
{
    const auto config = smallConfig();
    auto session = smallBuilder(config).build();
    const auto xs = randomBatch(1, session->inputDim(), 47);

    EXPECT_DEATH((void)session->run(InferenceRequest::borrow(
                     xs.data(), 1, session->inputDim() + 1)),
                 "does not match the program input dim");
    EXPECT_DEATH((void)session->run(InferenceRequest::borrow(
                     xs.data(), 0, session->inputDim())),
                 "no images");
}

// ------------------------------------------- deadline-aware dispatching

TEST(SessionOptions, DeadlineAndMaxBatchEnvKnobs)
{
    setenv("VIBNN_SERVE_DEADLINE_US", "2500", 1);
    setenv("VIBNN_SERVE_MAX_BATCH", "32", 1);
    const auto opts = SessionOptions::fromEnv();
    unsetenv("VIBNN_SERVE_DEADLINE_US");
    unsetenv("VIBNN_SERVE_MAX_BATCH");
    EXPECT_EQ(opts.defaultDeadlineMicros, 2500);
    EXPECT_EQ(opts.maxBatchImages, 32u);
}

TEST(SessionOptionsDeathTest, DeadlineEnvKnobsParseStrictly)
{
    // The PR 4 convention: a garbled knob is fatal, never silently
    // ignored.
    setenv("VIBNN_SERVE_DEADLINE_US", "soon-ish", 1);
    EXPECT_DEATH((void)SessionOptions::fromEnv(),
                 "VIBNN_SERVE_DEADLINE_US must be a base-10 integer");
    setenv("VIBNN_SERVE_DEADLINE_US", "-5", 1);
    EXPECT_DEATH((void)SessionOptions::fromEnv(),
                 "VIBNN_SERVE_DEADLINE_US must be in");
    // Over the cap is just as fatal as negative: a deadline licenses
    // the dispatcher to hold work, so it must be bounded.
    setenv("VIBNN_SERVE_DEADLINE_US",
           std::to_string(serve::kMaxDeadlineMicros + 1).c_str(), 1);
    EXPECT_DEATH((void)SessionOptions::fromEnv(),
                 "VIBNN_SERVE_DEADLINE_US must be in");
    unsetenv("VIBNN_SERVE_DEADLINE_US");

    setenv("VIBNN_SERVE_MAX_BATCH", "many", 1);
    EXPECT_DEATH((void)SessionOptions::fromEnv(),
                 "VIBNN_SERVE_MAX_BATCH must be a base-10 integer");
    setenv("VIBNN_SERVE_MAX_BATCH", "-1", 1);
    EXPECT_DEATH((void)SessionOptions::fromEnv(),
                 "VIBNN_SERVE_MAX_BATCH must be >= 0");
    unsetenv("VIBNN_SERVE_MAX_BATCH");
}

TEST(SessionOptionsDeathTest, IntegerEnvKnobsNeverWrap)
{
    // Out of range is as fatal as garbled: strtoll's saturation and
    // the narrowing casts would otherwise serve a different value than
    // the one set.
    const struct
    {
        const char *name;
        const char *value;
        const char *message;
    } cases[] = {
        {"VIBNN_SERVE_SEED", "99999999999999999999",
         "VIBNN_SERVE_SEED is out of range"},
        {"VIBNN_SERVE_T", "4294967304", "VIBNN_SERVE_T must fit in an int"},
        {"VIBNN_SERVE_MIN_T", "4294967297",
         "VIBNN_SERVE_MIN_T must fit in an int"},
        {"VIBNN_SERVE_CHUNK", "-4294967292",
         "VIBNN_SERVE_CHUNK must fit in an int"},
        {"VIBNN_SERVE_TOPK", "-1", "VIBNN_SERVE_TOPK must be >= 0"},
    };
    for (const auto &c : cases) {
        setenv(c.name, c.value, 1);
        EXPECT_DEATH((void)SessionOptions::fromEnv(), c.message)
            << c.name << "=" << c.value;
        unsetenv(c.name);
    }
}

TEST(SessionValidationDeathTest, DeadlinesAreValidated)
{
    const auto config = smallConfig();
    EXPECT_DEATH((void)smallBuilder(config).defaultDeadline(-1).build(),
                 "defaultDeadlineMicros must be in");
    EXPECT_DEATH(
        (void)smallBuilder(config)
            .defaultDeadline(serve::kMaxDeadlineMicros + 1)
            .build(),
        "defaultDeadlineMicros must be in");

    auto session = smallBuilder(config).build();
    const auto xs = randomBatch(1, session->inputDim(), 47);
    InferenceRequest request =
        InferenceRequest::borrow(xs.data(), 1, session->inputDim());
    request.deadlineMicros = -100;
    EXPECT_DEATH((void)session->run(request),
                 "deadlineMicros must be in");
    request.deadlineMicros = serve::kMaxDeadlineMicros + 1;
    EXPECT_DEATH((void)session->run(request),
                 "deadlineMicros must be in");
}

TEST(InferenceSession, DeadlinedSubmitBitIdenticalToRun)
{
    // A latency budget shapes WHEN the dispatcher executes, never the
    // outputs: a held submit() returns exactly what run() returns.
    const auto config = smallConfig(8);
    auto session =
        smallBuilder(config).mode(ExecMode::Throughput).build();
    const auto xs = randomBatch(2, session->inputDim(), 33);

    const auto reference = session->run(
        InferenceRequest::borrow(xs.data(), 2, session->inputDim()));

    InferenceRequest request = InferenceRequest::copy(
        xs.data(), 2, session->inputDim());
    // run() seeded the pass-time estimate, and the hold licence is the
    // budget minus that estimate. A slow build (TSan under load) can
    // take longer than a fixed 50 ms for that cold pass, so the budget
    // scales with it.
    request.deadlineMicros = std::max<std::int64_t>(
        50'000, static_cast<std::int64_t>(4 * reference.micros));
    auto result = session->submit(std::move(request)).get();

    ASSERT_EQ(result.predictions.size(), reference.predictions.size());
    for (std::size_t i = 0; i < result.predictions.size(); ++i) {
        EXPECT_EQ(result.predictions[i].probs,
                  reference.predictions[i].probs);
        EXPECT_EQ(result.predictions[i].predicted,
                  reference.predictions[i].predicted);
        EXPECT_EQ(result.predictions[i].entropy,
                  reference.predictions[i].entropy);
    }
    // The lone deadlined request had a license to hold, and nothing
    // arrived to fill the round.
    EXPECT_GE(session->counters().heldPasses, 1u);
}

TEST(InferenceSession, MaxBatchImagesDispatchesAFullRoundEarly)
{
    // Two single-image requests against maxBatchImages=2: the second
    // arrival fills the round, so a 5-second budget must NOT be
    // waited out — completion in milliseconds is the pin that the
    // full-round early dispatch works.
    const auto config = smallConfig(8);
    auto session = smallBuilder(config)
                       .mode(ExecMode::Throughput)
                       .defaultDeadline(5'000'000)
                       .maxBatchImages(2)
                       .build();
    const auto xs = randomBatch(2, session->inputDim(), 81);

    const auto started = std::chrono::steady_clock::now();
    auto a = session->submit(InferenceRequest::copy(
        xs.data(), 1, session->inputDim()));
    auto b = session->submit(InferenceRequest::copy(
        xs.data() + session->inputDim(), 1, session->inputDim()));
    const auto result_a = a.get();
    const auto result_b = b.get();
    const double waited_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    EXPECT_LT(waited_s, 2.0)
        << "full round did not dispatch early against its deadline";

    // Still bit-identical to solo runs.
    const auto ref_a = session->run(InferenceRequest::borrow(
        xs.data(), 1, session->inputDim()));
    const auto ref_b = session->run(InferenceRequest::borrow(
        xs.data() + session->inputDim(), 1, session->inputDim()));
    EXPECT_EQ(result_a.predictions[0].probs, ref_a.predictions[0].probs);
    EXPECT_EQ(result_b.predictions[0].probs, ref_b.predictions[0].probs);

    const auto counters = session->counters();
    EXPECT_LE(counters.maxBatchedImages, 2u);
}
