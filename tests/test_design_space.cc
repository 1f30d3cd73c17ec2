/**
 * @file
 * Tests for the design-space explorer: the analytic cycle model must be
 * cycle-exact against the simulator, the constraint checker must accept
 * the paper's configuration and reject the violations the paper's
 * equations describe, and the Pareto frontier must be a genuine
 * non-dominated set.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accel/design_space.hh"
#include "accel/simulator.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/rng.hh"
#include "grng/registry.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

struct Geometry
{
    int peSets, pesPerSet;
    std::vector<std::size_t> layers;
};

} // namespace

class CyclePredictionSweep : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CyclePredictionSweep, AnalyticModelIsCycleExact)
{
    const auto &geo = GetParam();
    AcceleratorConfig config;
    config.peSets = geo.peSets;
    config.pesPerSet = geo.pesPerSet;
    config.bits = 8;
    config.mcSamples = 1;

    Rng rng(11);
    bnn::BayesianMlp net(geo.layers, rng);
    const auto program = compile(net, config);

    auto gen = grng::makeGenerator("rlf", 3);
    Simulator sim(program, config, gen.get());

    std::vector<float> x(geo.layers.front());
    Rng data(13);
    for (auto &v : x)
        v = static_cast<float>(data.uniform(0, 1));
    sim.runPass(x.data());

    EXPECT_EQ(sim.stats().totalCycles,
              predictPassCycles(geo.layers, config))
        << "T=" << geo.peSets << " S=N=" << geo.pesPerSet;

    // And it stays exact over multiple passes (no hidden state).
    sim.runPass(x.data());
    EXPECT_EQ(sim.stats().totalCycles,
              2 * predictPassCycles(geo.layers, config));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CyclePredictionSweep,
    ::testing::Values(
        Geometry{2, 4, {32, 24, 16, 6}},
        Geometry{4, 8, {64, 48, 32, 10}},
        Geometry{2, 4, {30, 22, 7}},       // ragged rounds and chunks
        Geometry{1, 8, {17, 9, 3}},        // single set
        Geometry{8, 8, {128, 100, 10}},    // multi-round output layer
        Geometry{16, 8, {784, 200, 200, 10}}), // the paper's geometry
    [](const ::testing::TestParamInfo<Geometry> &info) {
        const auto &g = info.param;
        return "t" + std::to_string(g.peSets) + "s" +
               std::to_string(g.pesPerSet) + "l" +
               std::to_string(g.layers.front()) + "x" +
               std::to_string(g.layers.size());
    });

TEST(Constraints, PaperConfigurationIsFeasible)
{
    AcceleratorConfig config; // defaults = paper: 16 x 8 x 8, B=8
    const std::vector<std::size_t> layers{784, 200, 200, 10};
    EXPECT_EQ(checkConstraints(config, layers), "");
}

TEST(Constraints, WordSizeViolationDetected)
{
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 16; // B*N*S = 8*16*16 = 2048 > 1024
    config.bits = 8;
    const std::vector<std::size_t> layers{784, 200, 10};
    const auto reason = checkConstraints(config, layers);
    EXPECT_NE(reason.find("15b"), std::string::npos) << reason;
}

TEST(Constraints, WriteDrainViolationDetected)
{
    AcceleratorConfig config;
    config.peSets = 64; // min layer in = 64 -> chunks = 8 < 64
    config.pesPerSet = 8;
    const std::vector<std::size_t> layers{784, 64, 10};
    const auto reason = checkConstraints(config, layers);
    EXPECT_NE(reason.find("14a"), std::string::npos) << reason;
}

TEST(Constraints, BitWidthRangeEnforced)
{
    AcceleratorConfig config;
    config.bits = 1;
    const std::vector<std::size_t> layers{784, 200, 10};
    EXPECT_NE(checkConstraints(config, layers), "");
    config.bits = 17;
    EXPECT_NE(checkConstraints(config, layers), "");
}

TEST(Explorer, EnumeratesAllCandidates)
{
    ExplorerOptions options;
    options.peSetChoices = {4, 16};
    options.peSizeChoices = {8};
    options.bitChoices = {4, 8};
    const std::vector<std::size_t> layers{784, 200, 200, 10};
    const auto points = exploreDesignSpace(layers, options);
    EXPECT_EQ(points.size(), 4u);
    for (const auto &p : points) {
        if (p.feasible) {
            EXPECT_GT(p.imagesPerSecond, 0.0);
            EXPECT_GT(p.imagesPerJoule, 0.0);
            EXPECT_GT(p.cyclesPerPass, 0u);
            EXPECT_GT(p.utilization, 0.0);
            EXPECT_LE(p.utilization, 1.0);
        } else {
            EXPECT_FALSE(p.reason.empty());
        }
    }
}

TEST(Explorer, PaperGeometryHasHighUtilization)
{
    ExplorerOptions options;
    options.peSetChoices = {16};
    options.peSizeChoices = {8};
    options.bitChoices = {8};
    const std::vector<std::size_t> layers{784, 200, 200, 10};
    const auto points = exploreDesignSpace(layers, options);
    ASSERT_EQ(points.size(), 1u);
    ASSERT_TRUE(points[0].feasible);
    // 784-200-200-10 on 16x8x8 keeps the array mostly busy; padding
    // waste comes from the ragged 200/128 rounds and the 10-wide
    // output layer.
    EXPECT_GT(points[0].utilization, 0.5);
}

TEST(Explorer, MoreParallelismMeansFewerCycles)
{
    const std::vector<std::size_t> layers{784, 200, 200, 10};
    AcceleratorConfig small;
    small.peSets = 4;
    small.pesPerSet = 8;
    AcceleratorConfig large;
    large.peSets = 16;
    large.pesPerSet = 8;
    EXPECT_LT(predictPassCycles(layers, large),
              predictPassCycles(layers, small));
}

TEST(Explorer, ParetoFrontierIsNonDominated)
{
    ExplorerOptions options;
    options.peSetChoices = {2, 4, 8, 16, 32};
    options.peSizeChoices = {4, 8};
    options.bitChoices = {8};
    const std::vector<std::size_t> layers{784, 200, 200, 10};
    const auto points = exploreDesignSpace(layers, options);
    const auto frontier = paretoFrontier(points);
    ASSERT_FALSE(frontier.empty());

    // Sorted by ALMs.
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_LE(points[frontier[i - 1]].estimate.total().alms,
                  points[frontier[i]].estimate.total().alms);
    }
    // No frontier point dominated by any feasible point.
    for (std::size_t fi : frontier) {
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (j == fi || !points[j].feasible)
                continue;
            const bool dominates =
                points[j].imagesPerSecond >=
                    points[fi].imagesPerSecond &&
                points[j].estimate.total().alms <=
                    points[fi].estimate.total().alms &&
                (points[j].imagesPerSecond >
                     points[fi].imagesPerSecond ||
                 points[j].estimate.total().alms <
                     points[fi].estimate.total().alms);
            EXPECT_FALSE(dominates)
                << "frontier point " << fi << " dominated by " << j;
        }
    }
    // Along the frontier, more ALMs must buy more throughput.
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GT(points[frontier[i]].imagesPerSecond,
                  points[frontier[i - 1]].imagesPerSecond);
    }
}
