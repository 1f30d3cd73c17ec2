/**
 * @file
 * Tests for the RNN extension: BPTT gradients against numerical
 * differentiation, gradient-clip mechanics, the synthetic sequence
 * task, the VariationalMatrix primitive, and Bayesian-RNN training
 * (direct Bayes-by-Backprop estimator with per-sequence weight
 * samples).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bnn/bayesian_rnn.hh"
#include "bnn/variational_matrix.hh"
#include "common/rng.hh"
#include "data/sequences.hh"
#include "nn/rnn.hh"

using namespace vibnn;

namespace
{

nn::RnnConfig
tinyConfig()
{
    nn::RnnConfig config;
    config.inputDim = 3;
    config.hiddenDim = 5;
    config.numClasses = 2;
    config.seqLen = 4;
    return config;
}

std::vector<float>
randomSequence(const nn::RnnConfig &config, Rng &rng)
{
    std::vector<float> xs(config.flatDim());
    for (auto &v : xs)
        v = static_cast<float>(rng.uniform(-1, 1));
    return xs;
}

} // namespace

TEST(ElmanRnn, BpttGradientsMatchNumerical)
{
    const auto config = tinyConfig();
    Rng rng(3);
    nn::ElmanRnn net(config, rng);
    Rng data(5);
    const auto xs = randomSequence(config, data);
    const std::size_t target = 1;

    auto ws = net.makeWorkspace();
    net.zeroGrads(ws);
    net.trainSequence(xs.data(), target, ws);
    std::vector<float> grads;
    net.gatherGrads(ws, grads);

    std::vector<float> params;
    net.gatherParams(params);
    ASSERT_EQ(grads.size(), params.size());

    auto loss_at = [&](const std::vector<float> &p) {
        net.scatterParams(p);
        auto w2 = net.makeWorkspace();
        std::vector<float> logits(net.outputDim());
        net.forward(xs.data(), logits.data(), w2);
        float mx = logits[0];
        for (float v : logits)
            mx = std::max(mx, v);
        double denom = 0.0;
        for (float v : logits)
            denom += std::exp(static_cast<double>(v - mx));
        return -(logits[target] - mx - std::log(denom));
    };

    const float h = 1e-3f;
    std::vector<float> probe(params);
    for (std::size_t i = 0; i < params.size(); i += 3) {
        probe[i] = params[i] + h;
        const double up = loss_at(probe);
        probe[i] = params[i] - h;
        const double dn = loss_at(probe);
        probe[i] = params[i];
        EXPECT_NEAR(grads[i], (up - dn) / (2 * h), 2e-2f)
            << "param " << i;
    }
    net.scatterParams(params);
}

TEST(ElmanRnn, ParamRoundTrip)
{
    const auto config = tinyConfig();
    Rng rng(7);
    nn::ElmanRnn net(config, rng);
    std::vector<float> params;
    net.gatherParams(params);
    EXPECT_EQ(params.size(), net.paramCount());
    std::vector<float> mutated(params);
    for (auto &p : mutated)
        p += 0.5f;
    net.scatterParams(mutated);
    std::vector<float> back;
    net.gatherParams(back);
    for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_FLOAT_EQ(back[i], params[i] + 0.5f);
}

TEST(ElmanRnn, GradientNormAndScale)
{
    nn::RnnGradients grads;
    grads.resize(tinyConfig());
    grads.zero();
    EXPECT_DOUBLE_EQ(grads.norm(), 0.0);
    grads.wx.at(0, 0) = 3.0f;
    grads.bh[0] = 4.0f;
    EXPECT_DOUBLE_EQ(grads.norm(), 5.0);
    grads.scale(0.5f);
    EXPECT_DOUBLE_EQ(grads.norm(), 2.5);
}

TEST(SequenceTask, ShapesAndDeterminism)
{
    data::SequenceTaskConfig config;
    config.trainCount = 50;
    config.testCount = 20;
    config.seed = 11;
    const auto a = data::makeSequenceTask(config);
    EXPECT_EQ(a.train.count(), 50u);
    EXPECT_EQ(a.test.count(), 20u);
    EXPECT_EQ(a.train.dim, config.seqLen * config.featDim);
    for (int label : a.train.labels) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label, static_cast<int>(config.classes));
    }
    const auto b = data::makeSequenceTask(config);
    EXPECT_EQ(a.train.features, b.train.features); // seeded determinism
    config.seed = 12;
    const auto c = data::makeSequenceTask(config);
    EXPECT_NE(a.train.features, c.train.features);
}

TEST(SequenceTask, AllClassesRepresented)
{
    data::SequenceTaskConfig config;
    config.trainCount = 300;
    config.seed = 13;
    const auto dataset = data::makeSequenceTask(config);
    const auto hist = data::classHistogram(dataset.train);
    ASSERT_EQ(hist.size(), config.classes);
    for (std::size_t count : hist)
        EXPECT_GT(count, 50u); // roughly balanced
}

TEST(ElmanRnn, LearnsSequenceTask)
{
    data::SequenceTaskConfig task;
    task.trainCount = 300;
    task.testCount = 150;
    task.seed = 17;
    const auto dataset = data::makeSequenceTask(task);

    nn::RnnConfig config;
    config.inputDim = task.featDim;
    config.hiddenDim = 24;
    config.numClasses = task.classes;
    config.seqLen = task.seqLen;

    Rng rng(19);
    nn::ElmanRnn net(config, rng);
    nn::TrainConfig tc;
    tc.epochs = 15;
    tc.batchSize = 16;
    tc.learningRate = 3e-3f;
    tc.seed = 23;
    const auto history = trainRnn(net, dataset.train.view(), tc);

    EXPECT_LT(history.trainLoss.back(), history.trainLoss.front());
    EXPECT_GE(evaluateAccuracy(net, dataset.test.view()), 0.85);
}

TEST(VariationalMatrix, ZeroEpsIsMean)
{
    Rng rng(29);
    bnn::VariationalMatrix block(4, 3, rng, 0.5f);
    nn::Matrix w, eps;
    auto zero = []() { return 0.0; };
    block.sample(w, eps, zero);
    for (std::size_t i = 0; i < block.count(); ++i)
        EXPECT_FLOAT_EQ(w.data()[i], block.mu().data()[i]);
}

TEST(VariationalMatrix, KlZeroAtPriorPoint)
{
    Rng rng(31);
    bnn::VariationalMatrix block(3, 3, rng, 0.5f);
    const float prior = 0.4f;
    const float rho = std::log(std::exp(prior) - 1.0f);
    block.mu().fill(0.0f);
    block.rho().fill(rho);
    EXPECT_NEAR(block.klDivergence(prior), 0.0, 1e-6);
    block.mu().data()[0] = 0.2f;
    EXPECT_GT(block.klDivergence(prior), 0.0);
}

TEST(VariationalMatrix, KlGradientMatchesNumerical)
{
    Rng rng(37);
    bnn::VariationalMatrix block(3, 2, rng, 0.5f);
    nn::Matrix g_mu(3, 2), g_rho(3, 2);
    const float prior = 0.5f;
    EXPECT_EQ(block.klValueAndGrad(prior, 1.0f, g_mu, g_rho),
              block.klDivergence(prior));

    const float h = 1e-3f;
    for (std::size_t i = 0; i < block.count(); ++i) {
        float &mu = block.mu().data()[i];
        const float keep = mu;
        mu = keep + h;
        const double up = block.klDivergence(prior);
        mu = keep - h;
        const double dn = block.klDivergence(prior);
        mu = keep;
        EXPECT_NEAR(g_mu.data()[i], (up - dn) / (2 * h), 1e-2f);
    }
    for (std::size_t i = 0; i < block.count(); ++i) {
        float &rho = block.rho().data()[i];
        const float keep = rho;
        rho = keep + h;
        const double up = block.klDivergence(prior);
        rho = keep - h;
        const double dn = block.klDivergence(prior);
        rho = keep;
        EXPECT_NEAR(g_rho.data()[i], (up - dn) / (2 * h), 1e-2f);
    }
}

TEST(BayesianRnn, MeanForwardMatchesZeroEpsSample)
{
    const auto config = tinyConfig();
    Rng rng(41);
    bnn::BayesianRnn net(config, rng);
    auto ws = net.makeWorkspace();
    Rng data(43);
    const auto xs = randomSequence(config, data);

    std::vector<float> mean(net.outputDim()), sampled(net.outputDim());
    net.meanForward(xs.data(), mean.data(), ws);
    auto zero = []() { return 0.0; };
    net.sampledForward(xs.data(), sampled.data(), ws, zero);
    for (std::size_t i = 0; i < mean.size(); ++i)
        EXPECT_NEAR(mean[i], sampled[i], 1e-5f);
}

TEST(BayesianRnn, TrainSequenceGradientsMatchNumerical)
{
    const auto config = tinyConfig();
    Rng rng(47);
    bnn::BayesianRnn net(config, rng, -1.0f);
    Rng data(53);
    const auto xs = randomSequence(config, data);
    const std::size_t target = 0;
    const std::uint64_t eps_seed = 59;

    auto ws = net.makeWorkspace();
    net.zeroGrads(ws);
    {
        Rng eps_rng(eps_seed);
        net.trainSequence(xs.data(), target, ws, eps_rng);
    }
    std::vector<float> grads;
    net.gatherGrads(ws, grads);

    std::vector<float> params;
    net.gatherParams(params);
    ASSERT_EQ(grads.size(), params.size());

    // Replaying the same eps seed makes the sampled loss a
    // deterministic function of the parameters.
    auto loss_at = [&](const std::vector<float> &p) {
        net.scatterParams(p);
        auto w2 = net.makeWorkspace();
        std::vector<float> logits(net.outputDim());
        Rng eps_rng(eps_seed);
        auto eps = [&]() { return eps_rng.gaussian(); };
        net.sampledForward(xs.data(), logits.data(), w2, eps);
        float mx = logits[0];
        for (float v : logits)
            mx = std::max(mx, v);
        double denom = 0.0;
        for (float v : logits)
            denom += std::exp(static_cast<double>(v - mx));
        return -(logits[target] - mx - std::log(denom));
    };

    const float h = 1e-3f;
    std::vector<float> probe(params);
    for (std::size_t i = 0; i < params.size(); i += 7) {
        probe[i] = params[i] + h;
        const double up = loss_at(probe);
        probe[i] = params[i] - h;
        const double dn = loss_at(probe);
        probe[i] = params[i];
        EXPECT_NEAR(grads[i], (up - dn) / (2 * h), 2e-2f)
            << "param " << i;
    }
    net.scatterParams(params);
}

TEST(BayesianRnn, McPredictIsDistribution)
{
    const auto config = tinyConfig();
    Rng rng(61);
    bnn::BayesianRnn net(config, rng);
    auto ws = net.makeWorkspace();
    Rng data(67);
    const auto xs = randomSequence(config, data);

    std::vector<float> probs(net.outputDim());
    Rng eps_rng(71);
    auto eps = [&]() { return eps_rng.gaussian(); };
    net.mcPredict(xs.data(), 16, probs.data(), ws, eps);
    double total = 0.0;
    for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(BayesianRnn, LearnsSequenceTask)
{
    data::SequenceTaskConfig task;
    task.trainCount = 300;
    task.testCount = 150;
    task.seed = 73;
    const auto dataset = data::makeSequenceTask(task);

    nn::RnnConfig config;
    config.inputDim = task.featDim;
    config.hiddenDim = 24;
    config.numClasses = task.classes;
    config.seqLen = task.seqLen;

    Rng rng(79);
    bnn::BayesianRnn net(config, rng, -4.0f);
    bnn::BnnTrainConfig cfg;
    cfg.epochs = 15;
    cfg.batchSize = 16;
    cfg.learningRate = 3e-3f;
    cfg.priorSigma = 0.5f;
    cfg.klWeight = 0.2f;
    cfg.evalSamples = 8;
    cfg.seed = 83;
    const auto history = trainBrnn(net, dataset.train.view(), cfg);

    EXPECT_LT(history.trainLoss.back(), history.trainLoss.front());
    EXPECT_GE(evaluateBrnnAccuracy(net, dataset.test.view(), 8, 89),
              0.8);
}

TEST(BayesianRnn, KlDecreasesWithTraining)
{
    // With a KL term in the objective, sigma contracts toward the
    // prior's pull; the KL should not blow up during training.
    data::SequenceTaskConfig task;
    task.trainCount = 100;
    task.testCount = 10;
    task.seed = 97;
    const auto dataset = data::makeSequenceTask(task);

    nn::RnnConfig config;
    config.inputDim = task.featDim;
    config.hiddenDim = 12;
    config.numClasses = task.classes;
    config.seqLen = task.seqLen;

    Rng rng(101);
    bnn::BayesianRnn net(config, rng, -4.0f);
    const double kl_before = net.klDivergence(0.5f);

    bnn::BnnTrainConfig cfg;
    cfg.epochs = 5;
    cfg.batchSize = 16;
    cfg.learningRate = 3e-3f;
    cfg.priorSigma = 0.5f;
    cfg.klWeight = 1.0f;
    cfg.seed = 103;
    trainBrnn(net, dataset.train.view(), cfg);

    const double kl_after = net.klDivergence(0.5f);
    EXPECT_TRUE(std::isfinite(kl_after));
    // rho starts at -4 (sigma ~ 0.018), far below prior 0.5, so the KL
    // pull should *reduce* the divergence as sigma grows toward it.
    EXPECT_LT(kl_after, kl_before);
}
