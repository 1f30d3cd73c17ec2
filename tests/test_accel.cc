/**
 * @file
 * Tests for the accelerator: quantization, datapath kernel arithmetic,
 * RAM port budgets, cycle accounting, the constraint system of
 * equations (14)/(15), and — the load-bearing one — bit-exact
 * equivalence between the cycle-level simulator and the fast
 * functional path across geometries.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/config.hh"
#include "accel/functional.hh"
#include "accel/program.hh"
#include "accel/ram.hh"
#include "accel/simulator.hh"
#include "bnn/bayesian_mlp.hh"
#include "grng/registry.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

bnn::BayesianMlp
makeNet(const std::vector<std::size_t> &sizes, std::uint64_t seed)
{
    Rng rng(seed);
    return bnn::BayesianMlp(sizes, rng);
}

} // anonymous namespace

TEST(Config, FormatDerivation)
{
    AcceleratorConfig config;
    config.bits = 8;
    EXPECT_EQ(config.activationFormat().name(), "Q8.4");
    EXPECT_EQ(config.weightFormat().name(), "Q8.6");
    EXPECT_EQ(config.epsFormat().name(), "Q8.5");
    config.bits = 4;
    EXPECT_EQ(config.activationFormat().name(), "Q4.1");
    EXPECT_EQ(config.weightFormat().name(), "Q4.2");
}

TEST(Config, ValidateAcceptsPaperGeometry)
{
    AcceleratorConfig config; // 16 x 8 x 8, B = 8
    config.validate({784, 200, 200, 10});
}

TEST(Config, ValidateRejectsOversizedWord)
{
    AcceleratorConfig config;
    config.bits = 16;
    config.pesPerSet = 16; // word = 16*16*16 = 4096 > MaxWS
    EXPECT_DEATH(config.validate({784, 200, 10}), "15b|fatal|MaxWS");
}

TEST(Config, ValidateRejectsUndrainableWrites)
{
    AcceleratorConfig config;
    config.peSets = 16;
    config.pesPerSet = 8;
    // Min layer input 64 -> 8 chunks < 16 sets.
    EXPECT_DEATH(config.validate({64, 64, 10}), "drain|14a");
}

TEST(Quantization, ShapesAndRanges)
{
    auto net = makeNet({6, 5, 3}, 3);
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    const auto program = compile(net, config);
    ASSERT_EQ(program.ops.size(), 3u); // dense, dense, output
    const auto &bank = program.ops[0].bank;
    EXPECT_EQ(bank.inDim, 6u);
    EXPECT_EQ(bank.outDim, 5u);
    EXPECT_EQ(bank.muWeight.size(), 30u);
    for (auto v : bank.muWeight) {
        EXPECT_GE(v, program.weightFormat.rawMin());
        EXPECT_LE(v, program.weightFormat.rawMax());
    }
    // Sigma is non-negative by construction (softplus).
    for (auto v : bank.sigmaWeight)
        EXPECT_GE(v, 0);
    EXPECT_EQ(program.bankInputSizes(), (std::vector<std::size_t>{6, 5}));
    EXPECT_EQ(program.outputDim(), 3u);
}

TEST(DatapathKernel, SampleWeightMath)
{
    const AcceleratorConfig config;
    const DatapathKernel kernel(config.activationFormat(),
                                config.weightFormat(), config.epsFormat());

    // mu = 1.0 (raw 64 in Q8.6), sigma = 0.5 (raw 32), eps = 1.0
    // (raw 32 in Q8.5): w = 1.0 + 0.5 = 1.5 -> raw 96.
    EXPECT_EQ(kernel.sampleWeight(64, 32, 32), 96);
    // eps = -1.0: w = 0.5 -> raw 32.
    EXPECT_EQ(kernel.sampleWeight(64, 32, -32), 32);
    // Saturation: mu at rail stays at rail with positive eps.
    EXPECT_EQ(kernel.sampleWeight(127, 64, 127),
              kernel.weight.rawMax());
}

TEST(DatapathKernel, FinishNeuronReluAndRequant)
{
    const AcceleratorConfig config;
    const DatapathKernel kernel(config.activationFormat(),
                                config.weightFormat(), config.epsFormat());

    // Accumulator carries frac = 6 + 4 = 10 bits. acc = 1.0 -> 1024.
    // bias = 0.5 (raw 32 in Q8.6) -> aligned 512. Sum = 1536 -> 1.5.
    // Requant to Q8.4: 1536 >> 6 = 24 (= 1.5 * 16).
    EXPECT_EQ(kernel.finishNeuron(1024, 32), 24);
    // Negative pre-activation clamps to zero in hidden layers...
    EXPECT_EQ(kernel.finishNeuron(-2048, 0), 0);
    // ...but passes through (floored) in the output layer.
    EXPECT_EQ(kernel.finishOutputNeuron(-2048, 0), -32);
}

TEST(DualPortRam, PortBudgetEnforced)
{
    DualPortRam ram("test", 4, 2);
    ram.beginCycle();
    ram.read(0);
    EXPECT_DEATH(ram.read(1), "oversubscribed");
}

TEST(DualPortRam, WritePortSeparateFromRead)
{
    DualPortRam ram("test", 4, 2);
    ram.beginCycle();
    ram.read(0);
    ram.write(1, {5, 6}); // 1R + 1W is legal
    ram.beginCycle();
    ram.write(2, {7, 8});
    EXPECT_DEATH(ram.write(3, {9, 10}), "oversubscribed");
}

TEST(DualPortRam, DataRoundTrip)
{
    DualPortRam ram("test", 4, 3);
    ram.beginCycle();
    ram.write(2, {1, 2, 3});
    ram.beginCycle();
    EXPECT_EQ(ram.read(2), (RamWord{1, 2, 3}));
    EXPECT_EQ(ram.totalReads(), 1u);
    EXPECT_EQ(ram.totalWrites(), 1u);
}

/** Simulator == functional path, bit for bit, across geometries. */
struct GeometryCase
{
    std::vector<std::size_t> layers;
    int pe_sets;
    int pes_per_set;
    int bits;
};

class SimFunctionalEquivalence
    : public ::testing::TestWithParam<GeometryCase>
{
};

TEST_P(SimFunctionalEquivalence, BitExact)
{
    const auto &param = GetParam();
    auto net = makeNet(param.layers, 11);
    AcceleratorConfig config;
    config.peSets = param.pe_sets;
    config.pesPerSet = param.pes_per_set;
    config.bits = param.bits;
    const auto program = compile(net, config);

    auto gen_a = grng::makeGenerator("rlf", 99);
    auto gen_b = grng::makeGenerator("rlf", 99);
    Simulator sim(program, config, gen_a.get());
    FunctionalRunner fun(program, config, gen_b.get());

    Rng input_rng(13);
    std::vector<float> x(param.layers.front());
    for (int image = 0; image < 4; ++image) {
        for (auto &v : x)
            v = static_cast<float>(input_rng.uniform(0.0, 1.0));
        const auto a = sim.runPass(x.data());
        const auto b = fun.runPass(x.data());
        ASSERT_EQ(a, b) << "image " << image;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SimFunctionalEquivalence,
    ::testing::Values(
        GeometryCase{{32, 16, 4}, 2, 4, 8},
        GeometryCase{{64, 24, 8}, 2, 8, 8},
        GeometryCase{{100, 40, 10}, 4, 4, 8},
        GeometryCase{{48, 20, 6}, 1, 8, 6},
        GeometryCase{{80, 32, 10}, 2, 8, 10}));

TEST(Simulator, BnnWallaceGrngAlsoBitExact)
{
    auto net = makeNet({40, 16, 4}, 17);
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = compile(net, config);

    auto gen_a = grng::makeGenerator("bnnwallace", 7);
    auto gen_b = grng::makeGenerator("bnnwallace", 7);
    Simulator sim(program, config, gen_a.get());
    FunctionalRunner fun(program, config, gen_b.get());

    std::vector<float> x(40, 0.25f);
    EXPECT_EQ(sim.runPass(x.data()), fun.runPass(x.data()));
}

TEST(Simulator, CycleCountMatchesAnalyticModel)
{
    auto net = makeNet({784, 200, 200, 10}, 19);
    AcceleratorConfig config; // paper geometry
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 3);
    Simulator sim(program, config, gen.get());
    std::vector<float> x(784, 0.5f);
    sim.runPass(x.data());

    // Analytic: per layer, rounds*(chunks + 5-cycle drain), plus tail
    // writes for the live sets of the final round, plus 2 sync.
    // L1: 2*(98+5) + 9 + 2 = 217 (round 1 covers neurons 128..199 ->
    //     9 live sets); L2: 2*(25+5) + 9 + 2 = 71; L3: 1*(25+5) + 2 +
    //     2 = 34 (10 outputs -> 2 live sets).
    const auto &stats = sim.stats();
    EXPECT_EQ(stats.opCycles[0], 217u);
    EXPECT_EQ(stats.opCycles[1], 71u);
    EXPECT_EQ(stats.opCycles[2], 34u);
    EXPECT_EQ(stats.totalCycles, 322u);
}

TEST(Simulator, GrnConsumptionMatchesLanes)
{
    auto net = makeNet({32, 16, 4}, 23);
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 3);
    Simulator sim(program, config, gen.get());
    std::vector<float> x(32, 0.1f);
    sim.runPass(x.data());

    // Every chunk cycle consumes M*N eps: layer1 2 rounds * 8 chunks,
    // layer2 1 round * 4 chunks -> 20 chunk cycles * 32 lanes.
    EXPECT_EQ(sim.stats().grnSamples, 20u * 32u);
}

TEST(Simulator, UtilizationInUnitRange)
{
    auto net = makeNet({784, 200, 200, 10}, 29);
    AcceleratorConfig config;
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 5);
    Simulator sim(program, config, gen.get());
    std::vector<float> x(784, 0.3f);
    sim.runPass(x.data());
    const double util = sim.stats().utilization(config.totalPes(),
                                                config.peInputs());
    EXPECT_GT(util, 0.5);
    EXPECT_LE(util, 1.0);
}

TEST(Simulator, ZeroSigmaIsDeterministic)
{
    // With sigma = 0 everywhere the accelerator must be a plain
    // quantized MLP: two different GRNGs give identical outputs.
    auto net = makeNet({16, 8, 3}, 31);
    for (auto &layer : net.layers()) {
        for (auto &rho : layer.rhoWeight().data())
            rho = -40.0f; // sigma ~ 0, quantizes to raw 0
        for (auto &rho : layer.rhoBias())
            rho = -40.0f;
    }
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    const auto program = compile(net, config);

    auto gen_a = grng::makeGenerator("rlf", 1);
    auto gen_b = grng::makeGenerator("ziggurat", 999);
    Simulator sim_a(program, config, gen_a.get());
    Simulator sim_b(program, config, gen_b.get());
    std::vector<float> x(16, 0.5f);
    EXPECT_EQ(sim_a.runPass(x.data()), sim_b.runPass(x.data()));
}

TEST(Simulator, TinyNetworkHandComputed)
{
    // 2-input, 1-output network with sigma=0: y = relu-free output of
    // w.x + b on the fixed-point grid, checked by hand.
    Rng rng(37);
    bnn::BayesianMlp net({2, 1}, rng);
    net.layers()[0].muWeight().at(0, 0) = 0.5f;
    net.layers()[0].muWeight().at(0, 1) = -0.25f;
    net.layers()[0].muBias()[0] = 0.125f;
    for (auto &rho : net.layers()[0].rhoWeight().data())
        rho = -40.0f;
    net.layers()[0].rhoBias()[0] = -40.0f;

    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 1;
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 1);
    FunctionalRunner fun(program, config, gen.get());

    // x = (1.0, 0.5): y = 0.5 - 0.125 + 0.125 = 0.5 -> Q8.4 raw 8.
    const float x[2] = {1.0f, 0.5f};
    const auto out = fun.runPass(x);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 8);
}

TEST(Simulator, ClassifyAveragesMcSamples)
{
    auto net = makeNet({16, 12, 3}, 41);
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    config.mcSamples = 4;
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 9);
    Simulator sim(program, config, gen.get());
    std::vector<float> x(16, 0.4f);
    std::vector<float> probs(3);
    const std::size_t cls = sim.classify(x.data(), probs.data());
    EXPECT_LT(cls, 3u);
    float total = 0;
    for (float p : probs)
        total += p;
    EXPECT_NEAR(total, 1.0f, 1e-5f);
    EXPECT_EQ(sim.stats().images, 4u); // one pass per MC sample
}

TEST(Functional, QuantizedTracksFloatWhenSigmaSmall)
{
    // An 8-bit quantized mean-path must stay close to the float mean
    // forward for in-range activations.
    auto net = makeNet({24, 12, 4}, 43);
    for (auto &layer : net.layers()) {
        for (auto &rho : layer.rhoWeight().data())
            rho = -40.0f;
        for (auto &rho : layer.rhoBias())
            rho = -40.0f;
    }
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 3);
    FunctionalRunner fun(program, config, gen.get());

    Rng input_rng(47);
    std::vector<float> x(24);
    for (auto &v : x)
        v = static_cast<float>(input_rng.uniform(0.0, 1.0));
    std::vector<float> float_logits(4);
    net.meanForward(x.data(), float_logits.data());
    const auto raw = fun.runPass(x.data());
    for (std::size_t i = 0; i < 4; ++i) {
        const double hw = program.activationFormat.toReal(raw[i]);
        EXPECT_NEAR(hw, float_logits[i], 0.5) << "logit " << i;
    }
}
