/**
 * @file
 * Tests for the VibnnSystem facade: the full train -> quantize ->
 * simulate -> estimate flow a downstream user runs.
 */

#include <gtest/gtest.h>

#include "core/vibnn.hh"
#include "data/tabular.hh"

using namespace vibnn;
using namespace vibnn::core;

namespace
{

data::Dataset
smallDataset()
{
    auto spec = data::retinopathySpec(4242);
    spec.trainCount = 220;
    spec.testCount = 120;
    return data::makeTabular(spec);
}

VibnnSystem
smallSystem(const data::Dataset &ds, const std::string &grng = "rlf")
{
    bnn::BnnTrainConfig tc;
    tc.epochs = 18;
    tc.seed = 5;
    accel::AcceleratorConfig ac;
    ac.peSets = 2;
    ac.pesPerSet = 8;
    ac.mcSamples = 8;
    return VibnnSystem::train(ds, {24, 24}, tc, ac, grng);
}

} // anonymous namespace

TEST(VibnnSystem, TrainedSystemBeatsChance)
{
    const auto ds = smallDataset();
    const auto sys = smallSystem(ds);
    const double sw = sys.softwareAccuracy(ds.test.view(), 8, 11);
    EXPECT_GT(sw, 0.55);
}

TEST(VibnnSystem, HardwareTracksSoftware)
{
    // Table 6/7's claim: the 8-bit hardware path loses very little
    // accuracy relative to the float software BNN.
    const auto ds = smallDataset();
    const auto sys = smallSystem(ds);
    const double sw = sys.softwareAccuracy(ds.test.view(), 8, 11);
    const double hw = sys.hardwareAccuracy(ds.test.view());
    EXPECT_GT(hw, sw - 0.08);
}

TEST(VibnnSystem, BothGrngsWork)
{
    const auto ds = smallDataset();
    for (const std::string grng : {"rlf", "bnnwallace"}) {
        const auto sys = smallSystem(ds, grng);
        const double hw = sys.hardwareAccuracy(ds.test.view());
        EXPECT_GT(hw, 0.5) << grng;
    }
}

TEST(VibnnSystem, TimingSimulation)
{
    const auto ds = smallDataset();
    const auto sys = smallSystem(ds);
    const auto stats = sys.simulateTiming(ds.test.view(), 3);
    EXPECT_EQ(stats.images, 3u);
    EXPECT_GT(stats.totalCycles, 0u);
    EXPECT_GT(stats.cyclesPerPass(), 0.0);
}

TEST(VibnnSystem, SimulatorAndFunctionalAgree)
{
    const auto ds = smallDataset();
    const auto sys = smallSystem(ds);
    auto sim = sys.makeExecutor("simulator");
    auto fun = sys.makeExecutor("functional");
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(sim->runPass(ds.test.sample(i)),
                  fun->runPass(ds.test.sample(i)));
    }
}

TEST(VibnnSystem, ResourceEstimateIsPopulated)
{
    const auto ds = smallDataset();
    const auto sys = smallSystem(ds);
    const auto estimate = sys.resourceEstimate();
    EXPECT_GT(estimate.total().alms, 0.0);
    EXPECT_GT(estimate.fmaxMhz, 0.0);
    EXPECT_GT(estimate.powerMw, 0.0);

    const auto perf = sys.performance(300.0);
    EXPECT_GT(perf.imagesPerSecond, 0.0);
    EXPECT_GT(perf.imagesPerJoule, 0.0);
}

TEST(VibnnSystem, QuantizedImageMatchesConfig)
{
    const auto ds = smallDataset();
    const auto sys = smallSystem(ds);
    // Three dense ops plus the output staging op.
    EXPECT_EQ(sys.program().ops.size(), 4u);
    EXPECT_EQ(sys.program().bankInputSizes().size(), 3u);
    EXPECT_EQ(sys.program().activationFormat.totalBits(),
              sys.config().bits);
}

TEST(VibnnSystem, ClassifyBatchMatchesFunctionalSerial)
{
    // classifyBatch rides McEngine, whose per-unit streams differ from
    // the functional runner's single stream — but with sigma frozen
    // out both reduce to the same deterministic quantized network, so
    // predictions and probabilities must agree exactly, for any
    // thread count.
    const auto ds = smallDataset();
    auto sys = smallSystem(ds);
    for (auto &layer : sys.network().layers()) {
        for (auto &rho : layer.rhoWeight().data())
            rho = -40.0f;
        for (auto &rho : layer.rhoBias())
            rho = -40.0f;
    }
    const core::VibnnSystem frozen(sys.network(), sys.config(),
                                   sys.grngId());

    const std::size_t count = 6;
    nn::DataView few = ds.test.view();
    few.count = count;

    auto runner = frozen.makeExecutor("functional");
    std::vector<std::size_t> serial(count);
    for (std::size_t i = 0; i < count; ++i)
        serial[i] = runner->classify(few.sample(i));

    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const auto batch = frozen.classifyBatch(few, threads);
        ASSERT_EQ(batch.size(), count);
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(batch[i], serial[i])
                << "threads=" << threads << " image " << i;
    }
}

namespace
{

bnn::BayesianConvNet
tinyCnn(std::uint64_t seed)
{
    nn::ConvNetConfig cfg;
    cfg.inChannels = 1;
    cfg.imageHeight = 8;
    cfg.imageWidth = 8;
    cfg.blocks = {{3, 3, 1, 1, true, 2}, {4, 3, 1, 1, true, 2}};
    cfg.denseHidden = {12};
    cfg.numClasses = 4;
    Rng rng(seed);
    return bnn::BayesianConvNet(cfg, rng, -2.0f);
}

accel::AcceleratorConfig
cnnAccelConfig()
{
    accel::AcceleratorConfig ac;
    ac.peSets = 2;
    ac.pesPerSet = 4;
    ac.mcSamples = 2;
    return ac;
}

} // anonymous namespace

TEST(VibnnSystem, WrapsConvolutionalNetworks)
{
    const auto net = tinyCnn(7);
    const core::VibnnSystem sys(net, cnnAccelConfig());
    EXPECT_TRUE(sys.isConvolutional());
    EXPECT_EQ(sys.program().inputDim(), 64u);
    EXPECT_EQ(sys.program().outputDim(), 4u);
    EXPECT_EQ(sys.convNetwork().outputDim(), 4u);

    // The full deployment surface works on the CNN program.
    auto sim = sys.makeExecutor("simulator");
    auto fun = sys.makeExecutor("functional");
    std::vector<float> x(64, 0.4f);
    ASSERT_EQ(sim->runPass(x.data()), fun->runPass(x.data()));
    EXPECT_GT(sim->stats().totalCycles, 0u);

    const auto estimate = sys.resourceEstimate();
    EXPECT_GT(estimate.total().alms, 0.0);
}

TEST(VibnnSystem, CnnTimingReportsPerOpCycles)
{
    const auto net = tinyCnn(11);
    const core::VibnnSystem sys(net, cnnAccelConfig());

    std::vector<float> image(64, 0.25f);
    std::vector<int> label(1, 0);
    nn::DataView view;
    view.count = 1;
    view.dim = 64;
    view.features = image.data();
    view.labels = label.data();

    const auto stats = sys.simulateTiming(view, 2);
    EXPECT_EQ(stats.images, 2u);
    ASSERT_EQ(stats.opCycles.size(), sys.program().ops.size());
    // Conv ops dominate: positions x bank passes each.
    EXPECT_GT(stats.opCycles[0], stats.opCycles[5]);
}
