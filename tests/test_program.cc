/**
 * @file
 * Tests for the QuantizedProgram IR and its compile-and-execute
 * pipeline: the compiler front-ends for MLP and CNN models and for a
 * single conv layer, bit-exact equivalence of the two executors on
 * multi-op CNN and one-conv programs, the per-position
 * fresh-weight-sample semantics of ConvLowered ops, the analytic cycle
 * model, McEngine thread-count invariance on CNN programs, and the
 * empty-program fatal contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "accel/config.hh"
#include "accel/design_space.hh"
#include "accel/functional.hh"
#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "accel/simulator.hh"
#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/rng.hh"
#include "grng/registry.hh"
#include "nn/cnn.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

/** A small conv-pool-conv-pool-dense topology on 1x8x8 inputs: the
 *  LeNet shape at test scale. */
nn::ConvNetConfig
tinyCnnTopology()
{
    nn::ConvNetConfig cfg;
    cfg.inChannels = 1;
    cfg.imageHeight = 8;
    cfg.imageWidth = 8;
    cfg.blocks = {
        {/*outChannels=*/3, /*kernel=*/3, /*stride=*/1, /*pad=*/1,
         /*pool=*/true, /*poolWindow=*/2}, // 1x8x8 -> 3x8x8 -> 3x4x4
        {/*outChannels=*/4, /*kernel=*/3, /*stride=*/1, /*pad=*/1,
         /*pool=*/true, /*poolWindow=*/2}, // -> 4x4x4 -> 4x2x2
    };
    cfg.denseHidden = {12};
    cfg.numClasses = 4;
    return cfg;
}

AcceleratorConfig
tinyConfig(int mc_samples = 1)
{
    AcceleratorConfig config;
    // Smallest conv bank input is patchSize = 1*3*3 = 9 -> 3 chunks of
    // 4, so T = 2 satisfies the write-drain condition.
    config.peSets = 2;
    config.pesPerSet = 4;
    config.bits = 8;
    config.mcSamples = mc_samples;
    return config;
}

bnn::BayesianConvNet
tinyCnn(std::uint64_t seed, float rho_init = -2.0f)
{
    Rng rng(seed);
    return bnn::BayesianConvNet(tinyCnnTopology(), rng, rho_init);
}

std::vector<float>
randomImage(std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> x(dim);
    for (auto &v : x)
        v = static_cast<float>(rng.uniform(0, 1));
    return x;
}

} // namespace

TEST(ProgramCompile, MlpProgramShape)
{
    Rng rng(3);
    bnn::BayesianMlp net({32, 16, 4}, rng);
    AcceleratorConfig config = tinyConfig();
    const auto program = compile(net, config);

    ASSERT_EQ(program.ops.size(), 3u); // dense, dense, output
    EXPECT_EQ(program.ops[0].kind, OpKind::Dense);
    EXPECT_TRUE(program.ops[0].relu);
    EXPECT_EQ(program.ops[1].kind, OpKind::Dense);
    EXPECT_FALSE(program.ops[1].relu);
    EXPECT_EQ(program.ops[2].kind, OpKind::Output);
    EXPECT_EQ(program.inputDim(), 32u);
    EXPECT_EQ(program.outputDim(), 4u);
}

TEST(ProgramCompile, CnnProgramShape)
{
    auto net = tinyCnn(5);
    AcceleratorConfig config = tinyConfig();
    const auto program = compile(net, config);

    // conv pool conv pool flatten dense dense output
    const OpKind expected[] = {OpKind::ConvLowered, OpKind::Pool,
                               OpKind::ConvLowered, OpKind::Pool,
                               OpKind::Flatten,     OpKind::Dense,
                               OpKind::Dense,       OpKind::Output};
    ASSERT_EQ(program.ops.size(), 8u);
    for (std::size_t i = 0; i < program.ops.size(); ++i)
        EXPECT_EQ(program.ops[i].kind, expected[i]) << "op " << i;
    EXPECT_EQ(program.inputDim(), 64u);
    EXPECT_EQ(program.outputDim(), 4u);
    // Hidden dense keeps ReLU, classifier does not.
    EXPECT_TRUE(program.ops[5].relu);
    EXPECT_FALSE(program.ops[6].relu);
    // Sizes chain.
    EXPECT_EQ(program.ops[0].outSize, 3u * 8 * 8);
    EXPECT_EQ(program.ops[1].outSize, 3u * 4 * 4);
    EXPECT_EQ(program.ops[3].outSize, 4u * 2 * 2);
    EXPECT_EQ(program.ops[5].inSize, 16u);
}

TEST(ProgramCompile, SingleConvProgramShape)
{
    // compile(layer) emits exactly the ConvLowered op that
    // compile(BayesianConvNet) emits for the same layer, then Output.
    auto net = tinyCnn(3);
    AcceleratorConfig config = tinyConfig();
    const auto whole = compile(net, config);
    const auto single =
        compile(net.convLayers().front(), config, /*relu=*/false);

    ASSERT_EQ(single.ops.size(), 2u);
    const auto &conv = single.ops[0];
    const auto &reference = whole.ops[0];
    EXPECT_EQ(conv.kind, OpKind::ConvLowered);
    EXPECT_EQ(conv.label, reference.label);
    EXPECT_EQ(conv.inSize, reference.inSize);
    EXPECT_EQ(conv.outSize, reference.outSize);
    EXPECT_FALSE(conv.relu);
    EXPECT_EQ(conv.bank.muWeight, reference.bank.muWeight);
    EXPECT_EQ(conv.bank.sigmaWeight, reference.bank.sigmaWeight);
    EXPECT_EQ(conv.bank.muBias, reference.bank.muBias);
    EXPECT_EQ(conv.bank.sigmaBias, reference.bank.sigmaBias);
    EXPECT_EQ(single.ops[1].kind, OpKind::Output);
    EXPECT_EQ(single.outputDim(), reference.outSize);
}

TEST(ProgramExecution, CnnSimulatorAndFunctionalBitExact)
{
    // The acceptance-criterion test: a whole conv-pool-conv-pool-dense
    // program classifies on both executors with bit-identical outputs.
    auto net = tinyCnn(13);
    AcceleratorConfig config = tinyConfig();
    const auto program = compile(net, config);

    for (const std::string grng_id : {"rlf", "bnnwallace"}) {
        auto gen_a = grng::makeGenerator(grng_id, 55);
        auto gen_b = grng::makeGenerator(grng_id, 55);
        Simulator sim(program, config, gen_a.get());
        FunctionalRunner fun(program, config, gen_b.get());

        for (int image = 0; image < 3; ++image) {
            const auto x =
                randomImage(program.inputDim(), 17 + image);
            for (int pass = 0; pass < 2; ++pass) {
                const auto a = sim.runPass(x.data());
                const auto b = fun.runPass(x.data());
                ASSERT_EQ(a, b) << grng_id << " image " << image
                                << " pass " << pass;
            }
        }
    }
}

TEST(ProgramExecution, PerOpCycleAccounting)
{
    auto net = tinyCnn(19);
    AcceleratorConfig config = tinyConfig();
    const auto program = compile(net, config);

    auto gen = grng::makeGenerator("rlf", 23);
    Simulator sim(program, config, gen.get());
    const auto x = randomImage(program.inputDim(), 29);
    sim.runPass(x.data());

    const auto &stats = sim.stats();
    ASSERT_EQ(stats.opCycles.size(), program.ops.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const auto &op = program.ops[i];
        if (op.isCompute() || op.kind == OpKind::Pool)
            EXPECT_GT(stats.opCycles[i], 0u) << "op " << i;
        else
            EXPECT_EQ(stats.opCycles[i], 0u) << "op " << i;
        sum += stats.opCycles[i];
    }
    EXPECT_EQ(sum, stats.totalCycles);
}

TEST(ProgramExecution, CycleCountMatchesAnalyticProgramModel)
{
    auto net = tinyCnn(31);
    AcceleratorConfig config = tinyConfig();
    const auto program = compile(net, config);

    auto gen = grng::makeGenerator("rlf", 37);
    Simulator sim(program, config, gen.get());
    const auto x = randomImage(program.inputDim(), 41);
    sim.runPass(x.data());
    EXPECT_EQ(sim.stats().totalCycles,
              predictProgramCycles(program, config));
    sim.runPass(x.data());
    EXPECT_EQ(sim.stats().totalCycles,
              2 * predictProgramCycles(program, config));
}

TEST(ProgramExecution, ConvOpDrawsFreshSamplesPerPosition)
{
    // The ConvLowered semantics: every output position re-samples the
    // filter bank. With a constant input map every position sees the
    // identical patch, so any spread across positions can only come
    // from fresh eps draws.
    auto net = tinyCnn(43, /*rho_init=*/-1.0f);
    AcceleratorConfig config = tinyConfig();
    // Single-op program: just the first conv + output staging.
    const auto single =
        compile(net.convLayers().front(), config, /*relu=*/true);
    const auto &conv = single.ops.front();
    ASSERT_EQ(conv.kind, OpKind::ConvLowered);

    auto gen = grng::makeGenerator("rlf", 47);
    Simulator sim(single, config, gen.get());
    std::vector<float> x(single.inputDim(), 0.5f);
    const auto raw = sim.runPass(x.data());

    // Interior positions (the border sees zero padding): same patch,
    // fresh samples -> not all equal.
    const std::size_t w = conv.conv.outWidth();
    std::vector<std::int64_t> interior;
    for (std::size_t y = 1; y + 1 < conv.conv.outHeight(); ++y)
        for (std::size_t xp = 1; xp + 1 < w; ++xp)
            interior.push_back(raw[y * w + xp]); // channel 0 plane
    ASSERT_GT(interior.size(), 4u);
    const bool all_equal = std::all_of(
        interior.begin(), interior.end(),
        [&](std::int64_t v) { return v == interior.front(); });
    EXPECT_FALSE(all_equal)
        << "positions shared a weight sample (no fresh eps per position)";

    // And the eps consumption is exactly one per lane per chunk cycle
    // per position: positions * rounds * chunks * M * N.
    const int m = config.totalPes();
    const int n = config.peInputs();
    const std::size_t rounds =
        (conv.bank.outDim + m - 1) / static_cast<std::size_t>(m);
    const std::size_t chunks =
        (conv.bank.inDim + n - 1) / static_cast<std::size_t>(n);
    EXPECT_EQ(sim.stats().grnSamples,
              conv.conv.positions() * rounds * chunks *
                  static_cast<std::uint64_t>(m) * n);
}

TEST(ProgramExecution, SigmaZeroCnnIsDeterministic)
{
    // With sigma frozen out, the program is a plain quantized CNN: two
    // different GRNGs must agree exactly, and pooling on the raw grid
    // must match pooling semantics (monotone max).
    auto net = tinyCnn(53, /*rho_init=*/-40.0f);
    AcceleratorConfig config = tinyConfig();
    const auto program = compile(net, config);

    auto gen_a = grng::makeGenerator("rlf", 1);
    auto gen_b = grng::makeGenerator("ziggurat", 999);
    Simulator sim_a(program, config, gen_a.get());
    Simulator sim_b(program, config, gen_b.get());
    const auto x = randomImage(program.inputDim(), 59);
    EXPECT_EQ(sim_a.runPass(x.data()), sim_b.runPass(x.data()));
}

TEST(ProgramExecution, McEngineCnnThreadCountInvariance)
{
    auto net = tinyCnn(73);
    AcceleratorConfig config = tinyConfig(/*mc_samples=*/4);
    const auto program = compile(net, config);
    const auto x = randomImage(program.inputDim(), 79);

    McBatchResult results[3];
    const std::size_t thread_counts[3] = {1, 2, 5};
    for (int i = 0; i < 3; ++i) {
        McEngineConfig mc;
        mc.threads = thread_counts[i];
        mc.seedBase = 83;
        McEngine engine(program, config, mc);
        results[i] =
            engine.classifyBatchDetailed(x.data(), 1, program.inputDim());
    }
    for (int i = 1; i < 3; ++i) {
        EXPECT_EQ(results[i].predicted, results[0].predicted);
        ASSERT_EQ(results[i].sampleProbs.size(),
                  results[0].sampleProbs.size());
        for (std::size_t j = 0; j < results[0].sampleProbs.size(); ++j)
            EXPECT_EQ(results[i].sampleProbs[j],
                      results[0].sampleProbs[j])
                << "threads=" << thread_counts[i] << " sample prob "
                << j;
        ASSERT_EQ(results[i].probs.size(), results[0].probs.size());
        for (std::size_t c = 0; c < results[0].probs.size(); ++c)
            EXPECT_EQ(results[i].probs[c], results[0].probs[c])
                << "threads=" << thread_counts[i] << " class " << c;
    }
}

TEST(ProgramExecution, PatchWiderThanMapsStillBitExact)
{
    // A kernel overhanging a small padded input makes patchSize (36)
    // exceed both the op's input (16) and output (8) windows: the
    // simulator's IFMem must still hold the staged patch, and the two
    // executors must still agree (regression for the IFMem sizing).
    nn::ConvSpec spec;
    spec.inChannels = 4;
    spec.inHeight = 2;
    spec.inWidth = 2;
    spec.outChannels = 2;
    spec.kernel = 3;
    spec.stride = 1;
    spec.pad = 1;
    ASSERT_TRUE(spec.valid());
    ASSERT_GT(spec.patchSize(), spec.inputSize());

    AcceleratorConfig config = tinyConfig();
    Rng rng(101);
    bnn::VariationalConv2d layer(spec, rng, -2.0f);

    const auto program = compile(layer, config, /*relu=*/true);

    auto gen_a = grng::makeGenerator("rlf", 103);
    auto gen_b = grng::makeGenerator("rlf", 103);
    Simulator sim(program, config, gen_a.get());
    FunctionalRunner fun(program, config, gen_b.get());
    const auto x = randomImage(spec.inputSize(), 107);
    EXPECT_EQ(sim.runPass(x.data()), fun.runPass(x.data()));
}

TEST(ProgramValidation, EmptyProgramIsFatal)
{
    QuantizedProgram program;
    EXPECT_DEATH(program.inputDim(), "no ops");
    EXPECT_DEATH(program.outputDim(), "no ops");
    AcceleratorConfig config = tinyConfig();
    EXPECT_DEATH(validateProgram(program, config), "no ops");
}

TEST(ProgramValidation, DrainConstraintAppliesToConvBanks)
{
    // The write-drain condition ranges over every compute op: a conv
    // bank whose patch is too small for the PE-set count must be
    // rejected even when the dense head is wide enough.
    auto net = tinyCnn(89);
    AcceleratorConfig config;
    config.peSets = 16; // conv1 patch 9 -> 3 chunks < 16 sets
    config.pesPerSet = 4;
    EXPECT_DEATH(compile(net, config), "drain|14a");
}

TEST(ProgramValidation, ChainMismatchIsFatal)
{
    Rng rng(97);
    bnn::BayesianMlp net({16, 8, 4}, rng);
    AcceleratorConfig config = tinyConfig();
    auto program = compile(net, config);
    program.ops[1].inSize = 9; // break the op chain
    EXPECT_DEATH(validateProgram(program, config), "chain");
}
