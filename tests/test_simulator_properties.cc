/**
 * @file
 * Property-style sweeps over the accelerator simulator: cycle-count
 * closed form, traffic accounting identities, determinism, and
 * behaviour across bit widths, geometries and GRNG choices. These
 * complement test_accel.cc's pointwise checks with invariants that
 * must hold over the whole configuration space.
 */

#include <gtest/gtest.h>

#include "accel/functional.hh"
#include "accel/simulator.hh"
#include "bnn/bayesian_mlp.hh"
#include "grng/registry.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

struct Sweep
{
    std::vector<std::size_t> layers;
    int peSets;
    int pesPerSet;
    int bits;
    std::string grng;
};

std::vector<Sweep>
sweepCases()
{
    return {
        {{32, 16, 4}, 2, 4, 8, "rlf"},
        {{32, 16, 4}, 2, 4, 8, "bnnwallace"},
        {{32, 16, 4}, 2, 4, 8, "ziggurat"},
        {{64, 32, 8}, 2, 8, 6, "rlf"},
        {{64, 32, 8}, 2, 8, 10, "rlf"},
        {{64, 32, 8}, 2, 8, 12, "rlf"},
        {{100, 50, 25, 5}, 4, 4, 8, "rlf"},
        {{40, 10}, 1, 4, 8, "rlf"},       // single layer
        {{48, 96, 6}, 2, 4, 8, "rlf"},    // expanding hidden layer
    };
}

/** Closed-form cycle count the controller must achieve. */
std::uint64_t
analyticCycles(const std::vector<std::size_t> &layers, int t_sets,
               int s_pes)
{
    const int m = t_sets * s_pes;
    const int n = s_pes;
    std::uint64_t cycles = 0;
    for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
        const std::size_t in = layers[l], out = layers[l + 1];
        const std::size_t rounds = (out + m - 1) / m;
        const std::size_t chunks = (in + n - 1) / n;
        cycles += rounds * (chunks + 5);
        // Tail writes: live sets of the final round.
        const std::size_t first = (rounds - 1) * m;
        std::size_t live_sets = 0;
        for (int t = 0; t < t_sets; ++t) {
            if (first + static_cast<std::size_t>(t) * s_pes < out)
                ++live_sets;
        }
        cycles += live_sets + 2;
    }
    return cycles;
}

} // anonymous namespace

class SimulatorSweep : public ::testing::TestWithParam<Sweep>
{
  protected:
    void
    SetUp() override
    {
        const auto &p = GetParam();
        Rng rng(77);
        net_ = std::make_unique<bnn::BayesianMlp>(p.layers, rng);
        config_.peSets = p.peSets;
        config_.pesPerSet = p.pesPerSet;
        config_.bits = p.bits;
        program_ = compile(*net_, config_);
        input_.resize(p.layers.front());
        Rng in_rng(5);
        for (auto &v : input_)
            v = static_cast<float>(in_rng.uniform());
    }

    std::unique_ptr<bnn::BayesianMlp> net_;
    AcceleratorConfig config_;
    QuantizedProgram program_;
    std::vector<float> input_;
};

TEST_P(SimulatorSweep, CycleCountMatchesClosedForm)
{
    auto gen = grng::makeGenerator(GetParam().grng, 3);
    Simulator sim(program_, config_, gen.get());
    sim.runPass(input_.data());
    EXPECT_EQ(sim.stats().totalCycles,
              analyticCycles(GetParam().layers, config_.peSets,
                             config_.pesPerSet));
}

TEST_P(SimulatorSweep, FunctionalBitExact)
{
    auto gen_a = grng::makeGenerator(GetParam().grng, 11);
    auto gen_b = grng::makeGenerator(GetParam().grng, 11);
    Simulator sim(program_, config_, gen_a.get());
    FunctionalRunner fun(program_, config_, gen_b.get());
    for (int pass = 0; pass < 3; ++pass)
        ASSERT_EQ(sim.runPass(input_.data()), fun.runPass(input_.data()))
            << "pass " << pass;
}

TEST_P(SimulatorSweep, DeterministicGivenSeed)
{
    auto gen_a = grng::makeGenerator(GetParam().grng, 13);
    auto gen_b = grng::makeGenerator(GetParam().grng, 13);
    Simulator sim_a(program_, config_, gen_a.get());
    Simulator sim_b(program_, config_, gen_b.get());
    EXPECT_EQ(sim_a.runPass(input_.data()),
              sim_b.runPass(input_.data()));
}

TEST_P(SimulatorSweep, TrafficAccountingIdentities)
{
    auto gen = grng::makeGenerator(GetParam().grng, 17);
    Simulator sim(program_, config_, gen.get());
    sim.runPass(input_.data());
    const auto &stats = sim.stats();

    // One IFMem read and 2*T WPMem reads per chunk cycle; M*N eps per
    // chunk cycle; MACs = eps (every sampled weight is multiplied).
    std::uint64_t chunk_cycles = 0;
    const int m = config_.totalPes();
    const int n = config_.peInputs();
    for (std::size_t l = 0; l + 1 < GetParam().layers.size(); ++l) {
        const std::size_t in = GetParam().layers[l];
        const std::size_t out = GetParam().layers[l + 1];
        chunk_cycles += ((out + m - 1) / m) * ((in + n - 1) / n);
    }
    EXPECT_EQ(stats.ifmemReads, chunk_cycles);
    EXPECT_EQ(stats.wpmemReads,
              chunk_cycles * 2 * static_cast<std::uint64_t>(
                                     config_.peSets));
    EXPECT_EQ(stats.grnSamples,
              chunk_cycles * static_cast<std::uint64_t>(m) * n);
    EXPECT_EQ(stats.macs, stats.grnSamples);
}

TEST_P(SimulatorSweep, OutputsOnActivationGrid)
{
    auto gen = grng::makeGenerator(GetParam().grng, 19);
    Simulator sim(program_, config_, gen.get());
    const auto out = sim.runPass(input_.data());
    EXPECT_EQ(out.size(), GetParam().layers.back());
    for (auto raw : out) {
        EXPECT_GE(raw, program_.activationFormat.rawMin());
        EXPECT_LE(raw, program_.activationFormat.rawMax());
    }
}

TEST_P(SimulatorSweep, UtilizationBounded)
{
    auto gen = grng::makeGenerator(GetParam().grng, 23);
    Simulator sim(program_, config_, gen.get());
    sim.runPass(input_.data());
    const double u = sim.stats().utilization(config_.totalPes(),
                                             config_.peInputs());
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SimulatorSweep, ::testing::ValuesIn(sweepCases()),
    [](const ::testing::TestParamInfo<Sweep> &info) {
        const auto &p = info.param;
        std::string name;
        for (auto l : p.layers)
            name += std::to_string(l) + "_";
        name += "T" + std::to_string(p.peSets) + "S" +
            std::to_string(p.pesPerSet) + "B" + std::to_string(p.bits) +
            "_" + p.grng;
        for (auto &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

TEST(SimulatorEdge, McSamplesScaleImages)
{
    Rng rng(31);
    bnn::BayesianMlp net({16, 8, 2}, rng);
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    config.mcSamples = 7;
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 3);
    Simulator sim(program, config, gen.get());
    std::vector<float> x(16, 0.5f);
    sim.classify(x.data());
    EXPECT_EQ(sim.stats().images, 7u);
    const double per_pass = sim.stats().cyclesPerPass();
    sim.classify(x.data());
    EXPECT_DOUBLE_EQ(sim.stats().cyclesPerPass(), per_pass);
}

TEST(SimulatorEdge, RepeatedPassesAccumulateStats)
{
    Rng rng(37);
    bnn::BayesianMlp net({16, 8, 2}, rng);
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 3);
    Simulator sim(program, config, gen.get());
    std::vector<float> x(16, 0.5f);
    sim.runPass(x.data());
    const auto cycles_one = sim.stats().totalCycles;
    sim.runPass(x.data());
    EXPECT_EQ(sim.stats().totalCycles, 2 * cycles_one);
}

TEST(SimulatorEdge, InputOutsideRangeSaturates)
{
    Rng rng(41);
    bnn::BayesianMlp net({8, 4, 2}, rng);
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    const auto program = compile(net, config);
    auto gen = grng::makeGenerator("rlf", 3);
    FunctionalRunner fun(program, config, gen.get());
    std::vector<float> x(8, 1e6f); // saturates the activation grid
    const auto out = fun.runPass(x.data());
    for (auto raw : out) {
        EXPECT_GE(raw, program.activationFormat.rawMin());
        EXPECT_LE(raw, program.activationFormat.rawMax());
    }
}
