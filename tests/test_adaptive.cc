/**
 * @file
 * Tests for adaptive early-exit Monte-Carlo: the determinism contract
 * (threshold=off bit-exact with the fixed-T path; fixed threshold
 * bit-identical across thread counts and batch compositions), the
 * statistical-equivalence guarantee on synth-MNIST (accuracy within
 * tolerance of fixed-T at a mean achieved T strictly below the
 * budget), and the serving-layer adaptive/anytime mode (achieved-T and
 * exit-reason reporting, sync/async equivalence, validation).
 *
 * Engine and session GRNGs honor VIBNN_SERVE_GRNG so the CI philox
 * pass exercises the adaptive path on the counter-based stream too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "bnn/bayesian_mlp.hh"
#include "bnn/bnn_trainer.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "data/synth_mnist.hh"
#include "serve/session.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

/** The stream design under test — "rlf" unless the CI matrix pins the
 *  philox serving pass via VIBNN_SERVE_GRNG. */
std::string
grngId()
{
    return envString("VIBNN_SERVE_GRNG", "rlf");
}

AcceleratorConfig
smallConfig(int mc_samples)
{
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = mc_samples;
    return config;
}

QuantizedProgram
mlpProgram(const AcceleratorConfig &config, std::uint64_t seed,
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

McEngineConfig
batchedEngineConfig(std::size_t threads, std::uint64_t seed = 101)
{
    McEngineConfig mc;
    mc.threads = threads;
    mc.generatorId = grngId();
    mc.seedBase = seed;
    mc.backendId = "batched";
    mc.schedule = McSchedule::PerRound;
    return mc;
}

} // anonymous namespace

// ------------------------------------------------------- engine layer

TEST(AdaptiveMc, ThresholdOffReproducesFixedTBitExactly)
{
    // The threshold=off contract: options.enabled = false must route
    // through the exact fixed-T code path — probs, sampleProbs and
    // predictions byte for byte.
    const auto config = smallConfig(8);
    const auto program = mlpProgram(config, 7);
    const auto xs = randomBatch(6, program.inputDim(), 23);

    McEngine engine(program, config, batchedEngineConfig(2));
    const auto fixed =
        engine.classifyBatchDetailed(xs.data(), 6, program.inputDim());

    McAdaptiveOptions opts;
    opts.enabled = false;
    McEngine engine2(program, config, batchedEngineConfig(2));
    const auto off = engine2.classifyBatchAdaptive(
        xs.data(), 6, program.inputDim(), opts);

    EXPECT_EQ(off.predicted, fixed.predicted);
    ASSERT_EQ(off.probs.size(), fixed.probs.size());
    for (std::size_t i = 0; i < fixed.probs.size(); ++i)
        EXPECT_EQ(off.probs[i], fixed.probs[i]) << "prob " << i;
    ASSERT_EQ(off.sampleProbs.size(), fixed.sampleProbs.size());
    for (std::size_t i = 0; i < fixed.sampleProbs.size(); ++i)
        EXPECT_EQ(off.sampleProbs[i], fixed.sampleProbs[i])
            << "sample prob " << i;
    for (const int achieved : off.achieved)
        EXPECT_EQ(achieved, config.mcSamples);
    for (const auto reason : off.exitReason)
        EXPECT_EQ(reason, McExitReason::Budget);
    EXPECT_DOUBLE_EQ(off.meanRounds,
                     static_cast<double>(config.mcSamples));
}

TEST(AdaptiveMc, EarlyExitOffIgnoresDeadline)
{
    // With early exit off the whole budget is one increment, so an
    // already-expired deadline (and the chunk size) must not cut it
    // short: the session passes deadline-bearing options on every
    // call, fixed-T passes included.
    const auto config = smallConfig(8);
    const auto program = mlpProgram(config, 19);
    const std::size_t count = 5, dim = program.inputDim();
    const auto xs = randomBatch(count, dim, 43);

    McAdaptiveOptions off;
    off.enabled = false;
    off.chunk = 2;
    McEngine engine(program, config, batchedEngineConfig(2));
    const auto plain =
        engine.classifyBatchAdaptive(xs.data(), count, dim, off);
    off.deadlineSeconds = 1e-9;
    McEngine rushed_engine(program, config, batchedEngineConfig(2));
    const auto rushed =
        rushed_engine.classifyBatchAdaptive(xs.data(), count, dim, off);

    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(rushed.achieved[i], config.mcSamples) << "image " << i;
        EXPECT_EQ(rushed.exitReason[i], McExitReason::Budget)
            << "image " << i;
    }
    EXPECT_EQ(rushed.predicted, plain.predicted);
    EXPECT_EQ(rushed.probs, plain.probs);
    EXPECT_EQ(rushed.sampleProbs, plain.sampleProbs);
    EXPECT_DOUBLE_EQ(rushed.meanRounds,
                     static_cast<double>(config.mcSamples));
}

TEST(AdaptiveMc, BitIdenticalAcrossThreadCounts)
{
    const auto config = smallConfig(24);
    const auto program = mlpProgram(config, 11);
    const std::size_t count = 7;
    const auto xs = randomBatch(count, program.inputDim(), 29);

    McAdaptiveOptions opts;
    opts.chunk = 3;
    opts.test.confidence = 0.99;

    McBatchResult results[3];
    const std::size_t thread_counts[3] = {1, 2, 5};
    for (int i = 0; i < 3; ++i) {
        McEngine engine(program, config,
                        batchedEngineConfig(thread_counts[i]));
        results[i] = engine.classifyBatchAdaptive(
            xs.data(), count, program.inputDim(), opts);
    }

    for (int i = 1; i < 3; ++i) {
        EXPECT_EQ(results[i].predicted, results[0].predicted)
            << "threads=" << thread_counts[i];
        EXPECT_EQ(results[i].achieved, results[0].achieved)
            << "threads=" << thread_counts[i];
        EXPECT_EQ(results[i].exitReason, results[0].exitReason)
            << "threads=" << thread_counts[i];
        ASSERT_EQ(results[i].probs.size(), results[0].probs.size());
        for (std::size_t j = 0; j < results[0].probs.size(); ++j)
            EXPECT_EQ(results[i].probs[j], results[0].probs[j])
                << "threads=" << thread_counts[i] << " prob " << j;
        ASSERT_EQ(results[i].sampleProbs.size(),
                  results[0].sampleProbs.size());
        for (std::size_t j = 0; j < results[0].sampleProbs.size(); ++j)
            EXPECT_EQ(results[i].sampleProbs[j],
                      results[0].sampleProbs[j])
                << "threads=" << thread_counts[i];
    }
}

TEST(AdaptiveMc, BitIdenticalAcrossBatchCompositions)
{
    // An image's adaptive result depends only on its own row: serving
    // it alone, in a sub-batch, or in the full batch yields the exact
    // same probabilities, achieved rounds and exit reason. (Rounds are
    // seeded by GLOBAL index and weight draws are batch-independent,
    // so neighbours — present or already retired — are invisible.)
    const auto config = smallConfig(16);
    const auto program = mlpProgram(config, 13);
    const std::size_t count = 6;
    const std::size_t dim = program.inputDim();
    const std::size_t out_dim = program.outputDim();
    const auto xs = randomBatch(count, dim, 31);

    McAdaptiveOptions opts;
    opts.chunk = 2;
    opts.test.confidence = 0.99;

    McEngine engine(program, config, batchedEngineConfig(2));
    const auto full = engine.classifyBatchAdaptive(xs.data(), count,
                                                   dim, opts);

    // Sub-batch: images 2..5 on a fresh engine.
    McEngine sub_engine(program, config, batchedEngineConfig(2));
    const auto sub = sub_engine.classifyBatchAdaptive(
        xs.data() + 2 * dim, count - 2, dim, opts);
    for (std::size_t i = 0; i < count - 2; ++i) {
        const std::size_t image = i + 2;
        EXPECT_EQ(sub.predicted[i], full.predicted[image]);
        EXPECT_EQ(sub.achieved[i], full.achieved[image]);
        EXPECT_EQ(sub.exitReason[i], full.exitReason[image]);
        for (std::size_t c = 0; c < out_dim; ++c)
            EXPECT_EQ(sub.probs[i * out_dim + c],
                      full.probs[image * out_dim + c])
                << "image " << image << " class " << c;
    }

    // Singleton batches.
    for (std::size_t image = 0; image < count; ++image) {
        McEngine one_engine(program, config, batchedEngineConfig(1));
        const auto one = one_engine.classifyBatchAdaptive(
            xs.data() + image * dim, 1, dim, opts);
        EXPECT_EQ(one.predicted[0], full.predicted[image]);
        EXPECT_EQ(one.achieved[0], full.achieved[image]);
        for (std::size_t c = 0; c < out_dim; ++c)
            EXPECT_EQ(one.probs[c], full.probs[image * out_dim + c])
                << "image " << image << " class " << c;
    }
}

TEST(AdaptiveMc, RetainedSamplesMatchFixedTStreams)
{
    // The eps-stream pin: whatever rounds an image DOES run under
    // early exit carry the exact per-sample distributions of the
    // fixed-T run at the same seeds — retirement of neighbours never
    // perturbs a survivor's stream.
    const auto config = smallConfig(16);
    const auto program = mlpProgram(config, 17);
    const std::size_t count = 5;
    const std::size_t dim = program.inputDim();
    const std::size_t out_dim = program.outputDim();
    const auto xs = randomBatch(count, dim, 37);

    McEngine fixed_engine(program, config, batchedEngineConfig(2));
    const auto fixed =
        fixed_engine.classifyBatchDetailed(xs.data(), count, dim);

    McAdaptiveOptions opts;
    opts.chunk = 2;
    opts.test.confidence = 0.95; // eager exits -> plenty of retirement
    McEngine engine(program, config, batchedEngineConfig(2));
    const auto adaptive =
        engine.classifyBatchAdaptive(xs.data(), count, dim, opts);

    const std::size_t samples =
        static_cast<std::size_t>(config.mcSamples);
    for (std::size_t image = 0; image < count; ++image) {
        const int achieved = adaptive.achieved[image];
        ASSERT_LE(achieved, config.mcSamples);
        for (int s = 0; s < achieved; ++s) {
            for (std::size_t c = 0; c < out_dim; ++c) {
                const std::size_t at =
                    (image * samples + static_cast<std::size_t>(s)) *
                        out_dim +
                    c;
                EXPECT_EQ(adaptive.sampleProbs[at],
                          fixed.sampleProbs[at])
                    << "image " << image << " sample " << s
                    << " class " << c;
            }
        }
        // Rows past the achieved count stay zeroed.
        for (std::size_t s = static_cast<std::size_t>(achieved);
             s < samples; ++s)
            for (std::size_t c = 0; c < out_dim; ++c)
                EXPECT_EQ(
                    adaptive.sampleProbs[(image * samples + s) *
                                             out_dim +
                                         c],
                    0.0f);
    }
}

TEST(AdaptiveMc, StatisticallyEquivalentBelowBudgetOnSynthMnist)
{
    // The headline guarantee: at budget T=32 on a trained synth-MNIST
    // model, early exit must match fixed-T accuracy within tolerance
    // while spending strictly fewer rounds on average.
    data::SynthMnistConfig synth;
    synth.trainCount = 240;
    synth.testCount = 120;
    synth.seed = 41;
    const auto ds = data::makeSynthMnist(synth);

    Rng rng(43);
    bnn::BayesianMlp net({data::kMnistPixels, 16, 10}, rng, -3.0f);
    bnn::BnnTrainConfig train_cfg;
    train_cfg.epochs = 2;
    train_cfg.seed = 47;
    bnn::trainBnn(net, ds.train.view(), train_cfg);

    const auto config = smallConfig(32);
    const auto program = compile(net, config);
    const auto view = ds.test.view();

    McEngine fixed_engine(program, config, batchedEngineConfig(0, 53));
    const auto fixed = fixed_engine.classifyBatchDetailed(
        view.features, view.count, view.dim, /*keep_sample_probs=*/false);

    McAdaptiveOptions opts; // defaults: confidence 0.999, minSamples 4
    McEngine engine(program, config, batchedEngineConfig(0, 53));
    const auto adaptive = engine.classifyBatchAdaptive(
        view.features, view.count, view.dim, opts,
        /*keep_sample_probs=*/false);

    std::size_t fixed_correct = 0, adaptive_correct = 0;
    for (std::size_t i = 0; i < view.count; ++i) {
        const auto label = static_cast<std::size_t>(view.labels[i]);
        fixed_correct += fixed.predicted[i] == label;
        adaptive_correct += adaptive.predicted[i] == label;
    }
    const double fixed_acc =
        static_cast<double>(fixed_correct) / view.count;
    const double adaptive_acc =
        static_cast<double>(adaptive_correct) / view.count;

    EXPECT_LT(adaptive.meanRounds, 32.0) << "no image exited early";
    EXPECT_NEAR(adaptive_acc, fixed_acc, 0.05);
    for (std::size_t i = 0; i < view.count; ++i) {
        EXPECT_GE(adaptive.achieved[i], opts.test.minSamples);
        EXPECT_LE(adaptive.achieved[i], 32);
    }
}

TEST(AdaptiveMc, RequiresBatchedRoundsBackend)
{
    const auto config = smallConfig(8);
    const auto program = mlpProgram(config, 7);
    const auto xs = randomBatch(2, program.inputDim(), 23);

    McEngineConfig mc;
    mc.backendId = "functional";
    McEngine engine(program, config, mc);
    // Earlier tests leave the global pool's workers running. A forked
    // death-test child inherits none of them, so fatal()'s exit-time
    // pool teardown can block on a mutex a worker held at the fork;
    // re-executing the binary for the child avoids that.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH((void)engine.classifyBatchAdaptive(
                     xs.data(), 2, program.inputDim(),
                     McAdaptiveOptions{}),
                 "batched-rounds backend");
}

// ------------------------------------------------------ serving layer

namespace
{

serve::InferenceSession::Builder
adaptiveBuilder(const AcceleratorConfig &config,
                const serve::SessionOptions::AdaptivePolicy &policy,
                std::uint64_t seed = 211)
{
    return std::move(serve::InferenceSession::Builder()
                         .program(mlpProgram(config, 7))
                         .accelerator(config)
                         .mode(serve::ExecMode::Throughput)
                         .grng(grngId())
                         .seed(seed)
                         .adaptive(policy));
}

} // anonymous namespace

TEST(AdaptiveSession, ReportsAchievedRoundsAndExitReasons)
{
    const auto config = smallConfig(24);
    serve::SessionOptions::AdaptivePolicy policy;
    policy.enabled = true;
    policy.confidence = 0.99;
    auto session = adaptiveBuilder(config, policy).build();

    const auto xs = randomBatch(8, session->inputDim(), 59);
    const auto result = session->run(
        serve::InferenceRequest::borrow(xs.data(), 8,
                                        session->inputDim()));

    ASSERT_EQ(result.predictions.size(), 8u);
    EXPECT_EQ(result.mcSamples, 24);
    double mean = 0.0;
    for (const auto &p : result.predictions) {
        EXPECT_GE(p.achievedSamples, policy.minSamples);
        EXPECT_LE(p.achievedSamples, 24);
        if (p.achievedSamples < 24)
            EXPECT_NE(p.exitReason, McExitReason::Budget);
        else
            EXPECT_EQ(p.exitReason, McExitReason::Budget);
        mean += p.achievedSamples;
        // The uncertainty decoration derives from the achieved rows.
        EXPECT_GE(p.mutualInformation, 0.0);
        EXPECT_LE(p.mutualInformation, p.entropy + 1e-9);
    }
    mean /= 8.0;
    EXPECT_DOUBLE_EQ(result.meanRounds, mean);
    EXPECT_LT(result.meanRounds, 24.0) << "no image exited early";
}

TEST(AdaptiveSession, SubmitMatchesRunBitExactly)
{
    // Coalesced async serving under a fixed threshold must reproduce
    // the synchronous result bit for bit — the micro-batching
    // invisibility contract extends to the adaptive path.
    const auto config = smallConfig(16);
    serve::SessionOptions::AdaptivePolicy policy;
    policy.enabled = true;
    policy.chunk = 2;
    auto sync_session = adaptiveBuilder(config, policy).build();
    auto async_session = adaptiveBuilder(config, policy).build();

    const std::size_t dim = sync_session->inputDim();
    const auto xs = randomBatch(6, dim, 61);

    const auto sync_result = sync_session->run(
        serve::InferenceRequest::borrow(xs.data(), 6, dim));

    std::vector<serve::ResultHandle> handles;
    for (std::size_t i = 0; i < 6; ++i)
        handles.push_back(async_session->submit(
            serve::InferenceRequest::copy(xs.data() + i * dim, 1,
                                          dim)));
    for (std::size_t i = 0; i < 6; ++i) {
        auto r = handles[i].get();
        ASSERT_EQ(r.predictions.size(), 1u);
        const auto &got = r.predictions[0];
        const auto &want = sync_result.predictions[i];
        EXPECT_EQ(got.predicted, want.predicted) << "image " << i;
        EXPECT_EQ(got.achievedSamples, want.achievedSamples)
            << "image " << i;
        EXPECT_EQ(got.exitReason, want.exitReason) << "image " << i;
        ASSERT_EQ(got.probs.size(), want.probs.size());
        for (std::size_t c = 0; c < want.probs.size(); ++c)
            EXPECT_EQ(got.probs[c], want.probs[c])
                << "image " << i << " class " << c;
    }
}

TEST(AdaptiveSession, DisabledPolicyMatchesDefaultSessionBitExactly)
{
    // adaptive.enabled = false must leave the serving output exactly
    // what a session without the policy produces.
    const auto config = smallConfig(8);
    auto plain = std::move(serve::InferenceSession::Builder()
                               .program(mlpProgram(config, 7))
                               .accelerator(config)
                               .mode(serve::ExecMode::Throughput)
                               .grng(grngId())
                               .seed(211))
                     .build();
    serve::SessionOptions::AdaptivePolicy off;
    off.enabled = false;
    auto disabled = adaptiveBuilder(config, off).build();

    const auto xs = randomBatch(5, plain->inputDim(), 67);
    const auto want = plain->run(serve::InferenceRequest::borrow(
        xs.data(), 5, plain->inputDim()));
    const auto got = disabled->run(serve::InferenceRequest::borrow(
        xs.data(), 5, disabled->inputDim()));

    ASSERT_EQ(got.predictions.size(), want.predictions.size());
    for (std::size_t i = 0; i < want.predictions.size(); ++i) {
        EXPECT_EQ(got.predictions[i].predicted,
                  want.predictions[i].predicted);
        EXPECT_EQ(got.predictions[i].achievedSamples, 8);
        for (std::size_t c = 0; c < want.predictions[i].probs.size();
             ++c)
            EXPECT_EQ(got.predictions[i].probs[c],
                      want.predictions[i].probs[c])
                << "image " << i << " class " << c;
    }
}

TEST(AdaptiveSession, DeadlineStopsSamplingWithDeadlineReason)
{
    // An already-expired deadline: every image stops at the first
    // chunk boundary and reports the anytime exit.
    const auto config = smallConfig(32);
    serve::SessionOptions::AdaptivePolicy policy;
    policy.enabled = true;
    policy.chunk = 2;
    policy.minSamples = 16; // keep the convergence exit out of reach
    policy.confidence = 0.999999;
    policy.deadlineSeconds = 1e-12;
    auto session = adaptiveBuilder(config, policy).build();

    const auto xs = randomBatch(4, session->inputDim(), 71);
    const auto result = session->run(
        serve::InferenceRequest::borrow(xs.data(), 4,
                                        session->inputDim()));
    for (const auto &p : result.predictions) {
        EXPECT_EQ(p.exitReason, McExitReason::Deadline);
        EXPECT_EQ(p.achievedSamples, policy.chunk);
        // The running mean is still a usable posterior.
        float mass = 0.0f;
        for (const float v : p.probs)
            mass += v;
        EXPECT_NEAR(mass, 1.0f, 1e-4f);
    }
    EXPECT_DOUBLE_EQ(result.meanRounds,
                     static_cast<double>(policy.chunk));
}

TEST(AdaptiveSession, ExitReasonNames)
{
    EXPECT_STREQ(serve::exitReasonName(McExitReason::Budget),
                 "budget");
    EXPECT_STREQ(serve::exitReasonName(McExitReason::Converged),
                 "converged");
    EXPECT_STREQ(serve::exitReasonName(McExitReason::Decided),
                 "decided");
    EXPECT_STREQ(serve::exitReasonName(McExitReason::Deadline),
                 "deadline");
}

TEST(AdaptiveSessionDeathTest, BuilderRejectsInvalidPolicies)
{
    const auto config = smallConfig(8);
    serve::SessionOptions::AdaptivePolicy on;
    on.enabled = true;

    // Adaptive needs the batched-rounds throughput path.
    EXPECT_DEATH((void)serve::InferenceSession::Builder()
                     .program(mlpProgram(config, 7))
                     .accelerator(config)
                     .mode(serve::ExecMode::Fidelity)
                     .adaptive(on)
                     .build(),
                 "Throughput mode");

    serve::SessionOptions::AdaptivePolicy bad = on;
    bad.confidence = 1.5;
    EXPECT_DEATH((void)adaptiveBuilder(config, bad).build(),
                 "confidence");
    bad = on;
    bad.minSamples = 0;
    EXPECT_DEATH((void)adaptiveBuilder(config, bad).build(),
                 "minSamples");
    bad = on;
    bad.chunk = 0;
    EXPECT_DEATH((void)adaptiveBuilder(config, bad).build(), "chunk");
}
