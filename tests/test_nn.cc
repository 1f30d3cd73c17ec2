/**
 * @file
 * Tests for the conventional-NN substrate: tensor kernels, dense layer
 * gradients (against numerical differentiation), activations, loss,
 * optimizers and end-to-end training convergence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/rng.hh"
#include "nn/activations.hh"
#include "nn/dense.hh"
#include "nn/loss.hh"
#include "nn/mlp.hh"
#include "nn/optimizer.hh"
#include "nn/tensor.hh"
#include "nn/trainer.hh"

using namespace vibnn;
using namespace vibnn::nn;

TEST(Tensor, MatVec)
{
    Matrix w(2, 3);
    w.at(0, 0) = 1;
    w.at(0, 1) = 2;
    w.at(0, 2) = 3;
    w.at(1, 0) = -1;
    w.at(1, 1) = 0;
    w.at(1, 2) = 1;
    const float x[3] = {1, 1, 2};
    const float b[2] = {0.5f, -0.5f};
    float out[2];
    matVec(w, x, b, out);
    EXPECT_FLOAT_EQ(out[0], 9.5f);
    EXPECT_FLOAT_EQ(out[1], 0.5f);
}

TEST(Tensor, MatTVecIsTranspose)
{
    Matrix w(2, 3);
    Rng rng(1);
    for (auto &v : w.data())
        v = static_cast<float>(rng.uniform(-1, 1));
    const float dy[2] = {0.7f, -0.3f};
    float dx[3];
    matTVec(w, dy, dx);
    for (int c = 0; c < 3; ++c) {
        EXPECT_NEAR(dx[c], w.at(0, c) * dy[0] + w.at(1, c) * dy[1],
                    1e-6f);
    }
}

TEST(Tensor, RankOneUpdate)
{
    Matrix w(2, 2);
    const float dy[2] = {1.0f, 2.0f};
    const float x[2] = {3.0f, 4.0f};
    rankOneUpdate(w, 0.5f, dy, x);
    EXPECT_FLOAT_EQ(w.at(0, 0), 1.5f);
    EXPECT_FLOAT_EQ(w.at(1, 1), 4.0f);
}

TEST(Tensor, Argmax)
{
    const float v[5] = {0.1f, 0.9f, 0.3f, 0.9f, 0.0f};
    EXPECT_EQ(argmax(v, 5), 1u); // first on ties
}

TEST(Activations, ReluForwardBackward)
{
    float v[4] = {-1.0f, 0.0f, 2.0f, -0.5f};
    float pre[4];
    std::copy(v, v + 4, pre);
    reluForward(v, 4);
    EXPECT_FLOAT_EQ(v[0], 0.0f);
    EXPECT_FLOAT_EQ(v[2], 2.0f);
    const float dy[4] = {1, 1, 1, 1};
    float dx[4];
    reluBackward(pre, dy, dx, 4);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
    EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

TEST(Activations, SoftmaxNormalizes)
{
    float v[3] = {1.0f, 2.0f, 3.0f};
    softmax(v, 3);
    EXPECT_NEAR(v[0] + v[1] + v[2], 1.0f, 1e-6f);
    EXPECT_GT(v[2], v[1]);
    // Stability with huge logits.
    float big[2] = {1000.0f, 1001.0f};
    softmax(big, 2);
    EXPECT_NEAR(big[0] + big[1], 1.0f, 1e-6f);
}

TEST(Activations, SoftplusAndLogistic)
{
    EXPECT_NEAR(softplus(0.0f), std::log(2.0f), 1e-6f);
    EXPECT_NEAR(softplus(30.0f), 30.0f, 1e-4f);
    EXPECT_NEAR(softplus(-30.0f), 0.0f, 1e-6f);
    EXPECT_NEAR(logistic(0.0f), 0.5f, 1e-7f);
    // logistic is the derivative of softplus.
    const float h = 1e-3f;
    for (float x : {-2.0f, -0.5f, 0.3f, 1.7f}) {
        const float numeric = (softplus(x + h) - softplus(x - h)) /
            (2.0f * h);
        EXPECT_NEAR(logistic(x), numeric, 1e-3f);
    }
}

namespace
{

std::uint32_t
floatBits(float x)
{
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

/** Whether softplusLogistic(x) is bitwise softplus(x), logistic(x). */
bool
pairMatches(float x)
{
    float sp = 0.0f, lg = 0.0f;
    softplusLogistic(x, sp, lg);
    return floatBits(sp) == floatBits(softplus(x)) &&
        floatBits(lg) == floatBits(logistic(x));
}

} // namespace

TEST(Activations, SoftplusLogisticMatchesSoftplusAndLogistic)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    for (const float x :
         {0.0f, -0.0f, 20.0f, -20.0f, std::nextafter(20.0f, inf),
          std::nextafter(20.0f, 0.0f), std::nextafter(-20.0f, -inf),
          std::nextafter(-20.0f, 0.0f), -88.0f, -104.0f, FLT_MAX,
          -FLT_MAX, inf, -inf, denorm, -denorm})
        EXPECT_TRUE(pairMatches(x)) << "x=" << x;

    // Every non-NaN bit pattern at a prime stride: both signs, every
    // exponent, and both sides of the +-20 switches.
    std::size_t checked = 0, mismatched = 0;
    for (std::uint64_t bits = 0; bits <= 0xffffffffu; bits += 997) {
        const auto b32 = static_cast<std::uint32_t>(bits);
        float x = 0.0f;
        std::memcpy(&x, &b32, sizeof x);
        if (std::isnan(x))
            continue;
        ++checked;
        if (!pairMatches(x) && mismatched++ == 0)
            ADD_FAILURE() << "first mismatch at x=" << x;
    }
    EXPECT_GT(checked, 4000000u);
    EXPECT_EQ(mismatched, 0u);
}

namespace
{

/** Distance between a and b in representable floats. */
std::int64_t
ulpDistance(float a, float b)
{
    const auto ordered = [](float x) {
        const std::int64_t mag = floatBits(x) & 0x7fffffffu;
        return (floatBits(x) >> 31) != 0 ? -mag : mag;
    };
    return std::llabs(ordered(a) - ordered(b));
}

} // namespace

TEST(Activations, SoftplusAndLogisticWithinOneUlpOfLongDouble)
{
    const auto softplus_ref = [](float x) {
        return static_cast<float>(
            std::log1p(std::exp(static_cast<long double>(x))));
    };
    const auto logistic_ref = [](float x) {
        return static_cast<float>(
            1.0L / (1.0L + std::exp(-static_cast<long double>(x))));
    };
    // Every float in [-20, 20] at a prime stride (both signs, every
    // exponent) ...
    const auto top = static_cast<std::int64_t>(floatBits(20.0f));
    std::size_t checked = 0;
    std::int64_t worst_sp = 0, worst_lg = 0;
    for (std::int64_t i = -top; i <= top; i += 4099) {
        const std::uint32_t bits = i < 0
            ? 0x80000000u | static_cast<std::uint32_t>(-i)
            : static_cast<std::uint32_t>(i);
        float x = 0.0f;
        std::memcpy(&x, &bits, sizeof x);
        worst_sp = std::max(worst_sp, ulpDistance(softplus(x),
                                                  softplus_ref(x)));
        worst_lg = std::max(worst_lg, ulpDistance(logistic(x),
                                                  logistic_ref(x)));
        ++checked;
    }
    EXPECT_GT(checked, 500000u);
    EXPECT_LE(worst_sp, 1);
    EXPECT_LE(worst_lg, 1);

    // ... then e^x below the -20 switch down to float underflow ...
    for (float x = -20.0f; x > -104.0f;
         x = std::nextafter(x * 1.0009f, -200.0f)) {
        const float exp_ref =
            static_cast<float>(std::exp(static_cast<long double>(x)));
        EXPECT_LE(ulpDistance(softplus(x), exp_ref), 1) << "x=" << x;
        EXPECT_LE(ulpDistance(logistic(x), logistic_ref(x)), 1)
            << "x=" << x;
    }
    // ... and x itself above +20.
    for (float x = std::nextafter(20.0f, 30.0f); x < 1e30f; x *= 1.37f) {
        EXPECT_EQ(floatBits(softplus(x)), floatBits(x)) << "x=" << x;
        EXPECT_LE(ulpDistance(logistic(x), logistic_ref(x)), 1)
            << "x=" << x;
    }
}

TEST(Activations, SoftplusAndLogisticSpecialValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(softplus(inf), inf);
    EXPECT_EQ(logistic(inf), 1.0f);
    EXPECT_EQ(floatBits(softplus(-inf)), floatBits(0.0f));
    EXPECT_EQ(floatBits(logistic(-inf)), floatBits(0.0f));
    EXPECT_EQ(softplus(FLT_MAX), FLT_MAX);
    EXPECT_EQ(softplus(-FLT_MAX), 0.0f);
    EXPECT_EQ(logistic(0.0f), 0.5f);
    EXPECT_EQ(logistic(-0.0f), 0.5f);
    // Below float underflow e^x is 0; just above it, the least
    // subnormal.
    EXPECT_EQ(softplus(-104.0f), 0.0f);
    EXPECT_EQ(softplus(-103.2f), std::numeric_limits<float>::denorm_min());
    for (const float x : {nan, -nan}) {
        EXPECT_TRUE(std::isnan(softplus(x)));
        EXPECT_TRUE(std::isnan(logistic(x)));
        float sp = 0.0f, lg = 0.0f;
        softplusLogistic(x, sp, lg);
        EXPECT_TRUE(std::isnan(sp));
        EXPECT_TRUE(std::isnan(lg));
    }
}

TEST(Loss, CrossEntropyGradient)
{
    float logits[4] = {0.2f, -0.4f, 1.1f, 0.3f};
    float grad[4];
    const double loss = softmaxCrossEntropy(logits, 4, 2, grad);
    EXPECT_GT(loss, 0.0);
    // Gradient sums to zero (softmax simplex constraint).
    EXPECT_NEAR(grad[0] + grad[1] + grad[2] + grad[3], 0.0f, 1e-6f);
    EXPECT_LT(grad[2], 0.0f); // target gradient negative
}

TEST(Dense, GradientsMatchNumerical)
{
    Rng rng(5);
    DenseLayer layer(4, 3, rng);
    const float x[4] = {0.5f, -0.3f, 0.8f, 0.1f};

    // Loss = sum of squares of outputs / 2; dL/dy = y.
    auto loss_of = [&]() {
        float out[3];
        layer.forward(x, out);
        float l = 0;
        for (float v : out)
            l += v * v * 0.5f;
        return l;
    };

    float out[3];
    layer.forward(x, out);
    DenseGradients grads;
    grads.resize(3, 4);
    grads.zero();
    float dx[4];
    layer.backward(x, out, grads, dx);

    const float h = 1e-3f;
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            const float saved = layer.weight().at(r, c);
            layer.weight().at(r, c) = saved + h;
            const float up = loss_of();
            layer.weight().at(r, c) = saved - h;
            const float down = loss_of();
            layer.weight().at(r, c) = saved;
            EXPECT_NEAR(grads.weight.at(r, c), (up - down) / (2 * h),
                        2e-2f);
        }
    }
}

TEST(Optimizer, SgdConvergesOnQuadratic)
{
    // Minimize f(p) = (p - 3)^2.
    float p = 0.0f;
    SgdOptimizer opt(0.1f, 0.9f);
    for (int i = 0; i < 200; ++i) {
        const float g = 2.0f * (p - 3.0f);
        opt.step(&p, &g, 1);
    }
    EXPECT_NEAR(p, 3.0f, 1e-3f);
}

TEST(Optimizer, AdamConvergesOnQuadratic)
{
    float p[2] = {-4.0f, 7.0f};
    AdamOptimizer opt(0.05f);
    for (int i = 0; i < 2000; ++i) {
        const float g[2] = {2.0f * (p[0] - 1.0f), 2.0f * (p[1] + 2.0f)};
        opt.step(p, g, 2);
    }
    EXPECT_NEAR(p[0], 1.0f, 1e-2f);
    EXPECT_NEAR(p[1], -2.0f, 1e-2f);
}

TEST(Mlp, ParamRoundTrip)
{
    Rng rng(7);
    Mlp net({4, 8, 3}, rng);
    std::vector<float> flat;
    net.gatherParams(flat);
    EXPECT_EQ(flat.size(), net.paramCount());
    EXPECT_EQ(flat.size(), 4u * 8 + 8 + 8 * 3 + 3);
    auto modified = flat;
    for (auto &v : modified)
        v += 1.0f;
    net.scatterParams(modified);
    std::vector<float> back;
    net.gatherParams(back);
    for (std::size_t i = 0; i < flat.size(); ++i)
        EXPECT_FLOAT_EQ(back[i], flat[i] + 1.0f);
}

TEST(Mlp, LearnsXor)
{
    Rng rng(11);
    Mlp net({2, 8, 2}, rng);
    std::vector<float> features = {0, 0, 0, 1, 1, 0, 1, 1};
    std::vector<int> labels = {0, 1, 1, 0};
    DataView view{4, 2, features.data(), labels.data()};

    TrainConfig config;
    config.epochs = 300;
    config.batchSize = 4;
    config.learningRate = 0.02f;
    config.seed = 3;
    trainMlp(net, view, config);
    EXPECT_EQ(evaluateAccuracy(net, view), 1.0);
}

TEST(Mlp, DropoutStillLearns)
{
    Rng rng(13);
    Mlp net({2, 32, 2}, rng, 0.3f);
    std::vector<float> features = {0, 0, 0, 1, 1, 0, 1, 1};
    std::vector<int> labels = {0, 1, 1, 0};
    DataView view{4, 2, features.data(), labels.data()};

    TrainConfig config;
    config.epochs = 600;
    config.batchSize = 4;
    config.learningRate = 0.02f;
    config.seed = 5;
    trainMlp(net, view, config);
    EXPECT_GE(evaluateAccuracy(net, view), 0.75);
}

TEST(Mlp, TrainingReducesLoss)
{
    Rng rng(17);
    Mlp net({8, 16, 4}, rng);

    // Linearly separable blobs.
    Rng data_rng(19);
    std::vector<float> features;
    std::vector<int> labels;
    for (int i = 0; i < 400; ++i) {
        const int cls = i % 4;
        for (int d = 0; d < 8; ++d) {
            features.push_back(
                static_cast<float>(data_rng.gaussian() * 0.3 +
                                   (d == cls ? 2.0 : 0.0)));
        }
        labels.push_back(cls);
    }
    DataView view{400, 8, features.data(), labels.data()};

    TrainConfig config;
    config.epochs = 30;
    config.learningRate = 3e-3f;
    config.seed = 7;
    const auto history = trainMlp(net, view, config);
    EXPECT_LT(history.trainLoss.back(), history.trainLoss.front() * 0.5);
    EXPECT_GT(evaluateAccuracy(net, view), 0.95);
}
