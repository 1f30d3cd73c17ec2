/**
 * @file
 * Tests for the Bayesian core: variational layer gradients (direct and
 * LRT estimators against numerical differentiation with frozen eps),
 * the closed-form KL and its gradient, Bayes-by-Backprop training
 * behaviour, and the MC-ensemble predictions of paper equation (6).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bnn/bayesian_mlp.hh"
#include "bnn/bnn_trainer.hh"
#include "common/rng.hh"
#include "data/tabular.hh"
#include "nn/activations.hh"

using namespace vibnn;
using namespace vibnn::bnn;

TEST(VariationalDense, SigmaIsSoftplus)
{
    EXPECT_NEAR(VariationalDense::sigmaOf(0.0f), std::log(2.0f), 1e-6f);
    EXPECT_GT(VariationalDense::sigmaOf(-5.0f), 0.0f);
    EXPECT_NEAR(VariationalDense::sigmaOf(10.0f), 10.0f, 1e-3f);
}

TEST(VariationalDense, SampleForwardUsesEps)
{
    Rng rng(3);
    VariationalDense layer(2, 1, rng, -2.0f);
    VariationalScratch scratch;
    const float x[2] = {1.0f, 2.0f};
    float out_zero, out_big;

    auto zero_eps = [] { return 0.0; };
    layer.sampleForward(x, &out_zero, scratch, zero_eps);
    float expected = layer.muBias()[0];
    for (int c = 0; c < 2; ++c)
        expected += layer.muWeight().at(0, c) * x[c];
    EXPECT_NEAR(out_zero, expected, 1e-5f);

    auto big_eps = [] { return 3.0; };
    layer.sampleForward(x, &out_big, scratch, big_eps);
    EXPECT_NE(out_zero, out_big);
}

TEST(VariationalDense, DirectGradientsMatchNumerical)
{
    Rng rng(5);
    VariationalDense layer(3, 2, rng, -1.0f);
    const float x[3] = {0.7f, -0.2f, 0.4f};

    // Freeze an eps draw, then check d(sum y^2/2)/d(mu, rho) against
    // finite differences re-using the same eps.
    VariationalScratch scratch;
    float y[2];
    Rng eps_rng(11);
    auto eps = [&eps_rng] { return eps_rng.gaussian(); };
    layer.sampleForward(x, y, scratch, eps);

    VariationalGradients grads;
    grads.resize(2, 3);
    grads.zero();
    layer.sampleBackward(x, y, scratch, grads, nullptr);

    auto loss_with_frozen_eps = [&]() {
        float out[2];
        std::size_t k = 0;
        // Replay eps from scratch in the same order the forward pass
        // consumed it: bias first, then the row's weights.
        std::vector<double> replay;
        for (std::size_t r = 0; r < 2; ++r) {
            replay.push_back(scratch.epsBias[r]);
            for (std::size_t c = 0; c < 3; ++c)
                replay.push_back(scratch.epsWeight.at(r, c));
        }
        auto frozen = [&replay, &k] { return replay[k++]; };
        VariationalScratch local;
        layer.sampleForward(x, out, local, frozen);
        float l = 0;
        for (float v : out)
            l += 0.5f * v * v;
        return l;
    };

    const float h = 1e-3f;
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            float &mu = layer.muWeight().at(r, c);
            const float saved = mu;
            mu = saved + h;
            const float up = loss_with_frozen_eps();
            mu = saved - h;
            const float down = loss_with_frozen_eps();
            mu = saved;
            EXPECT_NEAR(grads.muWeight.at(r, c), (up - down) / (2 * h),
                        2e-2f)
                << "mu(" << r << "," << c << ")";

            float &rho = layer.rhoWeight().at(r, c);
            const float saved_rho = rho;
            rho = saved_rho + h;
            const float up_r = loss_with_frozen_eps();
            rho = saved_rho - h;
            const float down_r = loss_with_frozen_eps();
            rho = saved_rho;
            EXPECT_NEAR(grads.rhoWeight.at(r, c),
                        (up_r - down_r) / (2 * h), 2e-2f)
                << "rho(" << r << "," << c << ")";
        }
    }
}

TEST(VariationalDense, LrtGradientsMatchNumerical)
{
    Rng rng(7);
    VariationalDense layer(3, 2, rng, -1.0f);
    const float x[3] = {0.5f, 0.9f, -0.6f};

    VariationalScratch scratch;
    float y[2];
    Rng eps_rng(13);
    layer.lrtForward(x, y, scratch, eps_rng);

    VariationalGradients grads;
    grads.resize(2, 3);
    grads.zero();
    layer.lrtBackward(x, y, scratch, grads, nullptr);

    // Finite differences with the same per-activation eps.
    auto loss_with_frozen_eps = [&]() {
        float out[2];
        for (std::size_t r = 0; r < 2; ++r) {
            float mean = layer.muBias()[r];
            const float sb =
                VariationalDense::sigmaOf(layer.rhoBias()[r]);
            float var = sb * sb;
            for (std::size_t c = 0; c < 3; ++c) {
                mean += layer.muWeight().at(r, c) * x[c];
                const float s =
                    VariationalDense::sigmaOf(layer.rhoWeight().at(r, c));
                var += s * s * x[c] * x[c];
            }
            out[r] = mean +
                std::sqrt(var) * scratch.activationEps[r];
        }
        float l = 0;
        for (float v : out)
            l += 0.5f * v * v;
        return l;
    };

    const float h = 1e-3f;
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            float &mu = layer.muWeight().at(r, c);
            float saved = mu;
            mu = saved + h;
            const float up = loss_with_frozen_eps();
            mu = saved - h;
            const float down = loss_with_frozen_eps();
            mu = saved;
            EXPECT_NEAR(grads.muWeight.at(r, c), (up - down) / (2 * h),
                        2e-2f);

            float &rho = layer.rhoWeight().at(r, c);
            saved = rho;
            rho = saved + h;
            const float up_r = loss_with_frozen_eps();
            rho = saved - h;
            const float down_r = loss_with_frozen_eps();
            rho = saved;
            EXPECT_NEAR(grads.rhoWeight.at(r, c),
                        (up_r - down_r) / (2 * h), 2e-2f);
        }
    }
}

TEST(VariationalDense, KlClosedFormMatchesNumericIntegral)
{
    // For a single weight, compare the closed form against numerical
    // integration of q log(q/p).
    Rng rng(17);
    VariationalDense layer(1, 1, rng, 0.5f);
    layer.muWeight().at(0, 0) = 0.7f;
    layer.muBias()[0] = 0.0f;
    layer.rhoBias()[0] = 0.5f;
    layer.muBias()[0] = -0.2f;

    const float prior_sigma = 0.8f;
    const double closed = layer.klDivergence(prior_sigma);

    auto kl_numeric = [prior_sigma](double mu, double sigma) {
        double kl = 0.0;
        const double dx = 0.001;
        for (double x = mu - 10 * sigma; x < mu + 10 * sigma; x += dx) {
            const double q = std::exp(-0.5 * (x - mu) * (x - mu) /
                                      (sigma * sigma)) /
                (sigma * std::sqrt(2 * M_PI));
            const double p =
                std::exp(-0.5 * x * x / (prior_sigma * prior_sigma)) /
                (prior_sigma * std::sqrt(2 * M_PI));
            if (q > 1e-300)
                kl += q * std::log(q / p) * dx;
        }
        return kl;
    };

    const double expected =
        kl_numeric(layer.muWeight().at(0, 0),
                   VariationalDense::sigmaOf(layer.rhoWeight().at(0, 0))) +
        kl_numeric(layer.muBias()[0],
                   VariationalDense::sigmaOf(layer.rhoBias()[0]));
    EXPECT_NEAR(closed, expected, 1e-3);
}

TEST(VariationalDense, KlGradientMatchesNumerical)
{
    Rng rng(19);
    VariationalDense layer(2, 2, rng, -0.5f);
    const float prior = 0.5f;

    VariationalGradients grads;
    grads.resize(2, 2);
    grads.zero();
    layer.klValueAndGrad(prior, 1.0f, grads);

    const float h = 1e-3f;
    float &mu = layer.muWeight().at(1, 0);
    float saved = mu;
    mu = saved + h;
    const double up = layer.klDivergence(prior);
    mu = saved - h;
    const double down = layer.klDivergence(prior);
    mu = saved;
    EXPECT_NEAR(grads.muWeight.at(1, 0), (up - down) / (2 * h), 1e-2);

    float &rho = layer.rhoWeight().at(0, 1);
    saved = rho;
    rho = saved + h;
    const double up_r = layer.klDivergence(prior);
    rho = saved - h;
    const double down_r = layer.klDivergence(prior);
    rho = saved;
    EXPECT_NEAR(grads.rhoWeight.at(0, 1), (up_r - down_r) / (2 * h),
                1e-2);
}

TEST(BayesianMlp, KlDecreasesTowardPrior)
{
    Rng rng(23);
    BayesianMlp net({4, 8, 2}, rng);
    const double kl_initial = net.klDivergence(0.1f);
    EXPECT_GT(kl_initial, 0.0);

    // Pulling mu toward 0 must reduce the KL.
    for (auto &layer : net.layers())
        for (auto &mu : layer.muWeight().data())
            mu *= 0.1f;
    EXPECT_LT(net.klDivergence(0.1f), kl_initial);
}

TEST(BayesianMlp, TrainsOnTabularTask)
{
    auto spec = data::retinopathySpec(77);
    spec.trainCount = 200;
    spec.testCount = 120;
    const auto ds = data::makeTabular(spec);

    Rng rng(29);
    BayesianMlp net({ds.train.dim, 24, 24,
                     static_cast<std::size_t>(ds.train.numClasses)},
                    rng);

    BnnTrainConfig config;
    config.epochs = 25;
    config.seed = 31;
    const auto history = trainBnn(net, ds.train.view(), config);
    EXPECT_LT(history.trainLoss.back(), history.trainLoss.front());

    const double acc = evaluateBnnAccuracy(net, ds.test.view(), 8, 99);
    EXPECT_GT(acc, 0.58); // well above the 50% base rate
}

TEST(BayesianMlp, DirectAndLrtBothLearn)
{
    // XOR with both estimators. The four points are replicated so the
    // likelihood outweighs the KL — with only 4 observations the exact
    // posterior (correctly) stays at the prior.
    std::vector<float> features;
    std::vector<int> labels;
    const float pts[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const int lab[4] = {0, 1, 1, 0};
    for (int rep = 0; rep < 50; ++rep) {
        for (int i = 0; i < 4; ++i) {
            features.push_back(pts[i][0]);
            features.push_back(pts[i][1]);
            labels.push_back(lab[i]);
        }
    }
    nn::DataView view{200, 2, features.data(), labels.data()};

    for (bool lrt : {true, false}) {
        Rng rng(37);
        BayesianMlp net({2, 12, 2}, rng, -4.0f);
        BnnTrainConfig config;
        config.epochs = 60;
        config.batchSize = 20;
        config.learningRate = 0.02f;
        config.useLocalReparameterization = lrt;
        config.priorSigma = 1.0f;
        config.seed = 41;
        trainBnn(net, view, config);
        const double acc = evaluateBnnAccuracy(net, view, 16, 43);
        EXPECT_GE(acc, 0.9) << "lrt=" << lrt;
    }
}

TEST(BayesianMlp, McPredictAveragesToDistribution)
{
    Rng rng(43);
    BayesianMlp net({3, 6, 3}, rng);
    const float x[3] = {0.2f, -0.1f, 0.5f};
    std::vector<float> probs(3);
    Rng eps_rng(47);
    auto eps = [&eps_rng] { return eps_rng.gaussian(); };
    net.mcPredict(x, 32, probs.data(), eps);
    float total = 0.0f;
    for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        total += p;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
}

TEST(BayesianMlp, PredictiveEntropyHigherOffDistribution)
{
    // Train on tight blobs; entropy far from the blobs must exceed
    // entropy at a blob center — the uncertainty signal BNNs exist for.
    Rng data_rng(53);
    std::vector<float> features;
    std::vector<int> labels;
    for (int i = 0; i < 300; ++i) {
        const int cls = i % 2;
        features.push_back(
            static_cast<float>(data_rng.gaussian() * 0.2 +
                               (cls ? 2.0 : -2.0)));
        features.push_back(static_cast<float>(data_rng.gaussian() * 0.2));
        labels.push_back(cls);
    }
    nn::DataView view{300, 2, features.data(), labels.data()};

    Rng rng(59);
    BayesianMlp net({2, 16, 2}, rng);
    BnnTrainConfig config;
    config.epochs = 80;
    config.seed = 61;
    config.priorSigma = 0.5f;
    trainBnn(net, view, config);

    Rng eps_rng(67);
    const float in_dist[2] = {2.0f, 0.0f};
    const float off_dist[2] = {0.0f, 8.0f};
    const double h_in = net.predictiveEntropy(in_dist, 64, eps_rng);
    const double h_off = net.predictiveEntropy(off_dist, 64, eps_rng);
    EXPECT_GT(h_off, h_in * 2.0);
}

TEST(BayesianMlp, ParamRoundTrip)
{
    Rng rng(71);
    BayesianMlp net({5, 7, 3}, rng);
    std::vector<float> flat;
    net.gatherParams(flat);
    EXPECT_EQ(flat.size(), net.paramCount());
    EXPECT_EQ(flat.size(), 2u * (5 * 7 + 7) + 2u * (7 * 3 + 3));
    net.scatterParams(flat);
    std::vector<float> again;
    net.gatherParams(again);
    EXPECT_EQ(flat, again);
}
