/**
 * @file
 * Tests for the batched SIMD training path (bnn/bnn_trainer.hh):
 * finite-difference gradient checks of the minibatch backward for both
 * estimators, trajectory parity of the batched engine at batch size 1
 * against the per-sample reference trainer, bit-identity of batched
 * training across thread counts and kernel tiers, the trainer's cached
 * per-step parameter planes against a freshly built trainer at every
 * step, the KL of its step against the net's own klDivergence, the
 * in-place segmented Adam step against the historical
 * gather/step/scatter reference, pool-invariance of the parallel
 * evaluator, and the quantization-aware fine-tuning accuracy pin
 * against post-hoc quantization on the compiled accelerator program.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "accel/config.hh"
#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "bnn/bayesian_mlp.hh"
#include "bnn/bnn_trainer.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "data/synth_mnist.hh"

using namespace vibnn;
namespace k = vibnn::accel::kernels;

namespace
{

/** Small Gaussian-blob classification set: `classes` clusters in
 *  dimension `dim`, labels by cluster. */
struct Blobs
{
    std::size_t dim;
    std::vector<float> features;
    std::vector<int> labels;

    nn::DataView
    view() const
    {
        nn::DataView v;
        v.count = labels.size();
        v.dim = dim;
        v.features = features.data();
        v.labels = labels.data();
        return v;
    }
};

Blobs
makeBlobs(std::size_t count, std::size_t dim, int classes,
          std::uint64_t seed)
{
    Rng rng(seed);
    Blobs b;
    b.dim = dim;
    b.features.resize(count * dim);
    b.labels.resize(count);
    std::vector<float> centers(
        static_cast<std::size_t>(classes) * dim);
    for (auto &c : centers)
        c = static_cast<float>(rng.uniform(-1.5, 1.5));
    for (std::size_t i = 0; i < count; ++i) {
        const int cls = static_cast<int>(i % classes);
        b.labels[i] = cls;
        for (std::size_t d = 0; d < dim; ++d)
            b.features[i * dim + d] =
                centers[static_cast<std::size_t>(cls) * dim + d] +
                static_cast<float>(rng.gaussian(0.0, 0.35));
    }
    return b;
}

std::vector<float>
flatParams(const bnn::BayesianMlp &net)
{
    std::vector<float> flat;
    net.gatherParams(flat);
    return flat;
}

bool
bitsEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Central finite differences of the fixed-eps loss surface against
 *  the analytic minibatch gradients, on a sampled subset of one
 *  parameter tensor; asserts small relative L2 error. */
void
checkGradientTensor(bnn::BnnBatchTrainer &engine, const nn::DataView &data,
                    const std::vector<std::size_t> &idx, float *params,
                    const float *analytic, std::size_t count,
                    const char *what)
{
    Rng pick(977);
    const std::size_t probes = std::min<std::size_t>(count, 24);
    std::vector<std::size_t> which(count);
    std::iota(which.begin(), which.end(), 0);
    pick.shuffle(which);

    const float h = 2e-3f;
    double num2 = 0.0, ana2 = 0.0, diff2 = 0.0;
    for (std::size_t p = 0; p < probes; ++p) {
        const std::size_t i = which[p];
        const float saved = params[i];
        params[i] = saved + h;
        engine.refreshParams();
        const double lp =
            engine.forwardLoss(data, idx.data(), idx.size());
        params[i] = saved - h;
        engine.refreshParams();
        const double lm =
            engine.forwardLoss(data, idx.data(), idx.size());
        params[i] = saved;
        const double num = (lp - lm) / (2.0 * h);
        const double ana = analytic[i];
        num2 += num * num;
        ana2 += ana * ana;
        diff2 += (num - ana) * (num - ana);
    }
    engine.refreshParams();
    const double rel =
        std::sqrt(diff2) / std::max(std::sqrt(ana2), 1e-4);
    EXPECT_LT(rel, 5e-2) << what << " |num|=" << std::sqrt(num2)
                         << " |ana|=" << std::sqrt(ana2);
}

void
runGradCheck(bnn::BnnEstimator estimator)
{
    const auto blobs = makeBlobs(10, 6, 3, 41);
    const auto data = blobs.view();
    Rng rng(17);
    bnn::BayesianMlp net({6, 5, 3}, rng, /*rho_init=*/-2.0f);

    bnn::BnnBatchedTrainConfig cfg;
    cfg.estimator = estimator;
    cfg.seed = 5;
    bnn::BnnBatchTrainer engine(net, cfg);

    std::vector<std::size_t> idx = {0, 3, 5, 8};
    engine.zeroGrads();
    engine.forwardBackward(data, idx.data(), idx.size());

    const auto &grads = engine.gradients();
    auto &layers = net.layers();
    for (std::size_t l = 0; l < layers.size(); ++l) {
        checkGradientTensor(engine, data, idx,
                            layers[l].muWeight().data().data(),
                            grads[l].muWeight.data().data(),
                            layers[l].muWeight().size(), "muWeight");
        checkGradientTensor(engine, data, idx,
                            layers[l].rhoWeight().data().data(),
                            grads[l].rhoWeight.data().data(),
                            layers[l].rhoWeight().size(), "rhoWeight");
        checkGradientTensor(engine, data, idx,
                            layers[l].muBias().data(),
                            grads[l].muBias.data(),
                            layers[l].muBias().size(), "muBias");
        checkGradientTensor(engine, data, idx,
                            layers[l].rhoBias().data(),
                            grads[l].rhoBias.data(),
                            layers[l].rhoBias().size(), "rhoBias");
    }
}

} // namespace

TEST(BatchedGradients, MatchFiniteDifferencesLocalReparam)
{
    runGradCheck(bnn::BnnEstimator::LocalReparam);
}

TEST(BatchedGradients, MatchFiniteDifferencesDirectSample)
{
    runGradCheck(bnn::BnnEstimator::DirectWeightSample);
}

TEST(BatchedTrainer, BatchOneLrtMatchesPerSampleTrajectory)
{
    // At batch size 1 with hostRngEps the batched engine consumes
    // exactly the per-sample trainer's random stream (same shuffle,
    // same eps draws in the same order), so the loss trajectories must
    // agree up to the GEMM's different (but fixed) float summation
    // order.
    const auto blobs = makeBlobs(40, 8, 3, 71);
    const auto data = blobs.view();

    Rng ra(7);
    bnn::BayesianMlp netA({8, 7, 3}, ra, -2.0f);
    Rng rb(7);
    bnn::BayesianMlp netB({8, 7, 3}, rb, -2.0f);
    ASSERT_TRUE(bitsEqual(flatParams(netA), flatParams(netB)));

    bnn::BnnTrainConfig ref;
    ref.epochs = 2;
    ref.batchSize = 1;
    ref.seed = 3;
    ref.useLocalReparameterization = true;
    const auto histA = trainBnn(netA, data, ref);

    bnn::BnnBatchedTrainConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 1;
    cfg.seed = 3;
    cfg.estimator = bnn::BnnEstimator::LocalReparam;
    cfg.hostRngEps = true;
    const auto histB = trainBnnBatched(netB, data, cfg);

    ASSERT_EQ(histA.trainLoss.size(), histB.trainLoss.size());
    EXPECT_NEAR(histA.trainLoss[0], histB.trainLoss[0],
                1e-3 * std::abs(histA.trainLoss[0]));
    EXPECT_NEAR(histA.trainLoss[1], histB.trainLoss[1],
                5e-2 * std::abs(histA.trainLoss[1]));

    const auto pa = flatParams(netA);
    const auto pb = flatParams(netB);
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < pa.size(); ++i)
        max_abs = std::max(max_abs, std::fabs(pa[i] - pb[i]));
    EXPECT_LT(max_abs, 1e-2f);
}

TEST(BatchedTrainer, BitIdenticalAcrossThreadCounts)
{
    const auto blobs = makeBlobs(30, 8, 3, 91);
    const auto data = blobs.view();

    auto run = [&](ThreadPool *pool) {
        Rng rng(13);
        bnn::BayesianMlp net({8, 10, 3}, rng, -2.0f);
        bnn::BnnBatchedTrainConfig cfg;
        cfg.epochs = 2;
        cfg.batchSize = 8; // 30 % 8 != 0: tail minibatch exercised
        cfg.seed = 29;
        cfg.pool = pool;
        const auto hist = trainBnnBatched(net, data, cfg);
        return std::make_pair(flatParams(net), hist.trainLoss);
    };

    const auto serial = run(nullptr);
    for (const std::size_t workers : {1u, 2u, 5u}) {
        ThreadPool pool(workers);
        const auto sharded = run(&pool);
        EXPECT_TRUE(bitsEqual(sharded.first, serial.first))
            << "workers=" << workers;
        EXPECT_EQ(sharded.second, serial.second)
            << "workers=" << workers;
    }
}

TEST(BatchedTrainer, BitIdenticalAcrossKernelTiers)
{
    const auto blobs = makeBlobs(24, 9, 3, 61);
    const auto data = blobs.view();

    auto run = [&](const k::KernelOps *ops,
                   bnn::BnnEstimator estimator) {
        Rng rng(19);
        bnn::BayesianMlp net({9, 11, 3}, rng, -2.0f);
        bnn::BnnBatchedTrainConfig cfg;
        cfg.epochs = 2;
        cfg.batchSize = 7;
        cfg.seed = 23;
        cfg.estimator = estimator;
        cfg.kernels = ops;
        trainBnnBatched(net, data, cfg);
        return flatParams(net);
    };

    for (const auto estimator : {bnn::BnnEstimator::LocalReparam,
                                 bnn::BnnEstimator::DirectWeightSample}) {
        const auto ref = run(&k::scalarKernels(), estimator);
        for (const k::KernelOps *ops : k::availableKernels())
            EXPECT_TRUE(bitsEqual(run(ops, estimator), ref))
                << ops->name;
    }
}

TEST(BatchedTrainer, CachedPlanesMatchAFreshTrainerAtEveryStep)
{
    // The trainer reads sigma, sigma^2 and dsigma/drho from planes it
    // refreshes after each step. At every step of a long-lived trainer
    // its gradients and KL must equal, bit for bit, those of a trainer
    // freshly built on a copy of the current parameters and fed the
    // same eps.
    const auto blobs = makeBlobs(24, 7, 3, 131);
    const auto data = blobs.view();
    std::vector<std::size_t> order(data.count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    constexpr std::size_t kBatch = 6;

    auto gradsEqual = [](const std::vector<bnn::VariationalGradients> &a,
                         const std::vector<bnn::VariationalGradients> &b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t l = 0; l < a.size(); ++l) {
            if (!bitsEqual(a[l].muWeight.data(), b[l].muWeight.data()) ||
                !bitsEqual(a[l].rhoWeight.data(), b[l].rhoWeight.data()) ||
                !bitsEqual(a[l].muBias, b[l].muBias) ||
                !bitsEqual(a[l].rhoBias, b[l].rhoBias))
                return false;
        }
        return true;
    };

    for (const auto estimator : {bnn::BnnEstimator::LocalReparam,
                                 bnn::BnnEstimator::DirectWeightSample}) {
        Rng init(83);
        bnn::BayesianMlp net({7, 9, 3}, init, -2.0f);
        bnn::BnnBatchedTrainConfig cfg;
        cfg.estimator = estimator;
        cfg.seed = 89;
        bnn::BnnBatchTrainer engine(net, cfg);
        Rng eps(97);

        for (std::size_t step = 0; step < data.count / kBatch; ++step) {
            const std::size_t *idx = order.data() + step * kBatch;
            bnn::BayesianMlp fresh_net = net;
            bnn::BnnBatchTrainer fresh(fresh_net, cfg);
            Rng fresh_eps = eps;

            engine.zeroGrads();
            fresh.zeroGrads();
            const double loss =
                engine.forwardBackward(data, idx, kBatch, &eps);
            EXPECT_EQ(loss,
                      fresh.forwardBackward(data, idx, kBatch, &fresh_eps))
                << "step " << step;
            EXPECT_TRUE(gradsEqual(engine.gradients(), fresh.gradients()))
                << "forwardBackward, step " << step;

            const double kl = engine.applyKlAndStep(kBatch, data.count);
            EXPECT_EQ(kl, fresh.applyKlAndStep(kBatch, data.count))
                << "step " << step;
            EXPECT_TRUE(gradsEqual(engine.gradients(), fresh.gradients()))
                << "applyKlAndStep, step " << step;
        }
    }
}

TEST(BatchedTrainer, KlMatchesNetKlDivergence)
{
    // applyKlAndStep's KL comes from the kernel layer's KL op over the
    // cached sigma planes; it must equal, bit for bit, the net's own
    // klDivergence (KlSum over softplus(rho)) taken before the step.
    const auto blobs = makeBlobs(27, 7, 3, 151);
    const auto data = blobs.view();
    std::vector<std::size_t> order(data.count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    constexpr std::size_t kBatch = 9;

    for (const auto estimator : {bnn::BnnEstimator::LocalReparam,
                                 bnn::BnnEstimator::DirectWeightSample}) {
        Rng init(157);
        bnn::BayesianMlp net({7, 13, 11, 3}, init, -3.0f);
        bnn::BnnBatchedTrainConfig cfg;
        cfg.estimator = estimator;
        cfg.seed = 163;
        cfg.priorSigma = 0.2f;
        bnn::BnnBatchTrainer engine(net, cfg);
        for (std::size_t step = 0; step < data.count / kBatch; ++step) {
            engine.zeroGrads();
            engine.forwardBackward(data, order.data() + step * kBatch,
                                   kBatch, nullptr);
            const double before = net.klDivergence(cfg.priorSigma);
            const double kl = engine.applyKlAndStep(kBatch, data.count);
            EXPECT_EQ(std::memcmp(&kl, &before, sizeof kl), 0)
                << "step " << step << ": " << kl << " vs " << before;
        }
    }
}

TEST(TrainBnn, InPlaceAdamMatchesGatherScatterReference)
{
    // The historical trainer gathered params/grads into flat copies,
    // stepped those, and scattered back each minibatch. The in-place
    // segmented sweep must produce the bit-identical trajectory.
    const auto blobs = makeBlobs(26, 7, 3, 51);
    const auto data = blobs.view();

    Rng ra(31);
    bnn::BayesianMlp netA({7, 6, 3}, ra, -2.0f);
    Rng rb(31);
    bnn::BayesianMlp netB({7, 6, 3}, rb, -2.0f);

    bnn::BnnTrainConfig cfg;
    cfg.epochs = 3;
    cfg.batchSize = 5;
    cfg.seed = 37;
    const auto hist = trainBnn(netA, data, cfg);

    // Reference: the pre-refactor loop, reproduced verbatim.
    std::vector<double> refLoss;
    {
        Rng rng(cfg.seed);
        nn::AdamOptimizer optimizer(cfg.learningRate);
        bnn::BnnWorkspace ws = netB.makeWorkspace();
        std::vector<float> params, grads;
        std::vector<std::size_t> order(data.count);
        std::iota(order.begin(), order.end(), 0);
        for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
            rng.shuffle(order);
            double epoch_loss = 0.0;
            std::size_t seen = 0;
            for (std::size_t start = 0; start < data.count;
                 start += cfg.batchSize) {
                const std::size_t end =
                    std::min(start + cfg.batchSize, data.count);
                netB.zeroGrads(ws);
                for (std::size_t s = start; s < end; ++s) {
                    const std::size_t i = order[s];
                    epoch_loss += netB.trainSample(
                        data.sample(i),
                        static_cast<std::size_t>(data.labels[i]), ws,
                        rng, cfg.useLocalReparameterization);
                }
                seen += end - start;
                const float kl_scale = cfg.klWeight *
                    static_cast<float>(end - start) /
                    static_cast<float>(data.count);
                const double kl =
                    netB.accumulateKl(ws, cfg.priorSigma, kl_scale);
                epoch_loss += kl * (end - start) / data.count;
                netB.gatherParams(params);
                netB.gatherGrads(ws, grads);
                optimizer.step(params.data(), grads.data(),
                               params.size());
                netB.scatterParams(params);
            }
            refLoss.push_back(epoch_loss /
                              static_cast<double>(seen));
        }
    }

    EXPECT_EQ(hist.trainLoss, refLoss);
    EXPECT_TRUE(bitsEqual(flatParams(netA), flatParams(netB)));
}

TEST(EvaluateBnn, PoolInvariantAccuracy)
{
    const auto blobs = makeBlobs(36, 8, 3, 81);
    const auto data = blobs.view();
    Rng rng(43);
    bnn::BayesianMlp net({8, 9, 3}, rng, -2.0f);

    const double serial =
        evaluateBnnAccuracy(net, data, /*mc_samples=*/4, /*seed=*/7);
    for (const std::size_t workers : {1u, 3u, 6u}) {
        ThreadPool pool(workers);
        EXPECT_EQ(evaluateBnnAccuracy(net, data, 4, 7, &pool), serial)
            << "workers=" << workers;
    }
}

TEST(BatchedTrainer, DirectEstimatorLearnsWithTailBatch)
{
    const auto blobs = makeBlobs(45, 10, 3, 111);
    const auto data = blobs.view();
    Rng rng(53);
    bnn::BayesianMlp net({10, 12, 3}, rng, -3.0f);

    bnn::BnnBatchedTrainConfig cfg;
    cfg.epochs = 12;
    cfg.batchSize = 8; // 45 % 8 != 0
    cfg.learningRate = 5e-3f;
    cfg.seed = 59;
    cfg.estimator = bnn::BnnEstimator::DirectWeightSample;
    cfg.evalSet = &data;
    cfg.evalSamples = 8;
    const auto hist = trainBnnBatched(net, data, cfg);

    EXPECT_LT(hist.trainLoss.back(), hist.trainLoss.front());
    EXPECT_GT(hist.evalAccuracy.back(), 0.8);
}

TEST(Qat, CompiledProgramAccuracyAtLeastPostHoc)
{
    // Fine-tuning through the eq-(15) grids must not lose accuracy
    // against quantizing the float-trained net post hoc — measured on
    // the actual compiled program, batched executor, shared seeds. An
    // aggressive 5-bit deployment makes the post-hoc loss visible.
    data::SynthMnistConfig synth;
    synth.trainCount = 200;
    synth.testCount = 150;
    synth.seed = 211;
    const auto ds = data::makeSynthMnist(synth);
    const auto train = ds.train.view();
    const auto test = ds.test.view();

    Rng rng(67);
    bnn::BayesianMlp net({data::kMnistPixels, 32, 10}, rng, -4.0f);

    bnn::BnnBatchedTrainConfig pre;
    pre.epochs = 6;
    pre.batchSize = 16;
    pre.learningRate = 2e-3f;
    pre.seed = 73;
    trainBnnBatched(net, train, pre);

    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.bits = 5;
    config.mcSamples = 16;

    bnn::BayesianMlp tuned = net; // fine-tune a copy
    bnn::BnnBatchedTrainConfig qat;
    qat.epochs = 4;
    qat.batchSize = 16;
    qat.learningRate = 5e-4f;
    qat.seed = 79;
    qat.qatActivation = config.activationFormat();
    qat.qatWeight = config.weightFormat();
    qat.qatEps = config.epsFormat();
    qatFineTune(tuned, train, qat);

    auto acceleratorAccuracy = [&](const bnn::BayesianMlp &model) {
        const auto program = accel::compile(model, config);
        accel::McEngineConfig mc;
        mc.seedBase = 401;
        mc.backendId = "batched";
        mc.schedule = accel::McSchedule::PerRound;
        accel::McEngine engine(program, config, mc);
        const auto result = engine.classifyBatchDetailed(
            test.features, test.count, test.dim, false);
        const auto &preds = result.predicted;
        std::size_t correct = 0;
        for (std::size_t i = 0; i < test.count; ++i)
            correct += preds[i] ==
                static_cast<std::size_t>(test.labels[i]);
        return static_cast<double>(correct) /
            static_cast<double>(test.count);
    };

    const double posthoc = acceleratorAccuracy(net);
    const double finetuned = acceleratorAccuracy(tuned);
    EXPECT_GE(finetuned, posthoc)
        << "post-hoc=" << posthoc << " qat=" << finetuned;
    EXPECT_GT(finetuned, 0.5);
}
