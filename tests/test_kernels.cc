/**
 * @file
 * Tests for the SIMD kernel layer (accel/kernels/): bit-exactness of
 * every available dispatch tier against the scalar reference — and of
 * the scalar reference against the DatapathKernel / FixedPointFormat
 * arithmetic it mirrors — across registered fixed-point formats, odd
 * and prime sizes that exercise tail lanes, and saturation at the grid
 * bounds; the fused WeightGenerator::sampleBlockFused path against the
 * classic sampleBlock staging path; activation-range saturation of the
 * int32-narrowed batched path; and thread-count invariance (1/2/5
 * runners) plus tile-size invariance of the intra-pass parallel
 * BatchedRunner on synth images; the training step's plane op
 * (softplus / logistic) and KL op, bit-exact on every tier over the
 * switch points, the exp clamp, infinities, NaNs and subnormals; the
 * f32 training entries on fixed-seed generated shapes, the tile edges
 * and the training shapes; and the avx512 tier's dispatch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "accel/batched_runner.hh"
#include "accel/config.hh"
#include "accel/kernels/kernels.hh"
#include "accel/program.hh"
#include "accel/weight_generator.hh"
#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fixed/fixed_point.hh"
#include "grng/lfsr.hh"
#include "grng/registry.hh"
#include "grng/rlf.hh"
#include "grng/wallace.hh"

using namespace vibnn;
using namespace vibnn::accel;
namespace k = vibnn::accel::kernels;

namespace
{

/** The fixed-point grids the datapath registers across the bit-length
 *  sweep (Figure 18): activation Q(B, B-4), weight Q(B, B-2), eps
 *  Q(8, 5), plus wider formats that defeat the int16/int32 SIMD fast
 *  paths so their fallbacks are exercised too. */
const fixed::FixedPointFormat kFormats[] = {
    {8, 5},  {8, 4},   {8, 6},  {6, 3},   {4, 0},
    {12, 8}, {16, 10}, {16, 0}, {24, 16}, {32, 24},
};

std::vector<double>
probeValues(const fixed::FixedPointFormat &fmt, std::uint64_t seed,
            std::size_t count)
{
    Rng rng(seed);
    std::vector<double> values;
    // Ties (k + 0.5 LSBs), the largest double below one half, the
    // saturation bounds and beyond, and zero: the rounding edge cases
    // `round half away from zero` has to get right.
    const double res = fmt.resolution();
    values.insert(values.end(),
                  {0.0, 0.5 * res, -0.5 * res, 1.5 * res, -2.5 * res,
                   0.49999999999999994 * res, -0.49999999999999994 * res,
                   fmt.realMax(), fmt.realMin(), fmt.realMax() + 7.3,
                   fmt.realMin() - 7.3, fmt.realMax() * 2.5,
                   fmt.realMin() * 2.5});
    while (values.size() < count)
        values.push_back((rng.uniform() * 2.0 - 1.0) *
                         (fmt.realMax() * 1.25));
    return values;
}

/** Weight/activation raws uniform over the format's full raw range. */
std::vector<std::int32_t>
randomRaws(const fixed::FixedPointFormat &fmt, std::uint64_t seed,
           std::size_t count)
{
    Rng rng(seed);
    const auto lo = fmt.rawMin();
    const auto span =
        static_cast<std::uint64_t>(fmt.rawMax() - fmt.rawMin() + 1);
    std::vector<std::int32_t> raws(count);
    for (auto &r : raws)
        r = static_cast<std::int32_t>(
            lo + static_cast<std::int64_t>(rng.uniformInt(span)));
    return raws;
}

AcceleratorConfig
smallConfig(int mc_samples = 1)
{
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = mc_samples;
    return config;
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

/** Drive one full round on a fresh stream and return the raw batch
 *  outputs. */
std::vector<std::int64_t>
roundOutputs(BatchedRunner &runner, const std::vector<float> &xs,
             std::size_t count, std::size_t dim, std::uint64_t seed)
{
    auto gen = grng::makeGenerator("rlf", seed);
    runner.setGenerator(gen.get());
    std::vector<std::int64_t> out(count * runner.program().outputDim());
    runner.runRoundBatch(xs.data(), count, dim, out.data());
    return out;
}

} // namespace

TEST(KernelDispatch, ScalarTierAlwaysAvailableAndActiveTierListed)
{
    const auto tiers = k::availableKernels();
    ASSERT_FALSE(tiers.empty());
    EXPECT_STREQ(tiers.front()->name, "scalar");
    EXPECT_NE(k::kernelsByName("scalar"), nullptr);
    EXPECT_EQ(k::kernelsByName("no-such-tier"), nullptr);

    bool active_listed = false;
    for (const auto *tier : tiers)
        active_listed |= std::string(tier->name) == k::activeKernelName();
    EXPECT_TRUE(active_listed)
        << "active tier " << k::activeKernelName()
        << " missing from availableKernels()";
}

TEST(KernelDispatch, Avx512ListedExactlyWhenCpuReportsAllFourFeatures)
{
    bool cpu_avx512 = false;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    cpu_avx512 = __builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw");
#endif
    const auto tiers = k::availableKernels();
    EXPECT_EQ(k::kernelsByName("avx512") != nullptr, cpu_avx512);
    if (cpu_avx512) {
        EXPECT_STREQ(tiers.back()->name, "avx512") << "widest tier last";
    }
    // The widest tier is active unless VIBNN_KERNELS names another.
    const char *requested = std::getenv("VIBNN_KERNELS");
    EXPECT_STREQ(k::activeKernelName(), requested && *requested
                                            ? requested
                                            : tiers.back()->name);
}

TEST(KernelDispatch, Avx512RunsTheAvx2InferenceEntries)
{
    const k::KernelOps *avx512 = k::kernelsByName("avx512");
    if (!avx512)
        GTEST_SKIP() << "this CPU has no avx512 tier";
    const k::KernelOps *avx2 = k::kernelsByName("avx2");
    ASSERT_NE(avx2, nullptr);
    EXPECT_EQ(avx512->quantizeDouble, avx2->quantizeDouble);
    EXPECT_EQ(avx512->quantizeFloat, avx2->quantizeFloat);
    EXPECT_EQ(avx512->sampleWeights, avx2->sampleWeights);
    EXPECT_EQ(avx512->packInt16, avx2->packInt16);
    EXPECT_EQ(avx512->gemmBatch, avx2->gemmBatch);
    EXPECT_EQ(avx512->rlfCycleCounts, avx2->rlfCycleCounts);
    EXPECT_EQ(avx512->wallacePass, avx2->wallacePass);
    // Adam is memory-bound: the tier keeps the avx2 step.
    EXPECT_EQ(avx512->adamStepF32, avx2->adamStepF32);
}

TEST(KernelQuantize, MatchesFromRealAcrossFormatsAndTiers)
{
    for (const auto &fmt : kFormats) {
        // Prime count: every tier gets a ragged tail.
        const auto values = probeValues(fmt, 101 + fmt.totalBits(), 257);
        const std::size_t n = values.size();
        std::vector<float> floats(values.begin(), values.end());

        std::vector<std::int32_t> got(n);
        for (const auto *tier : k::availableKernels()) {
            tier->quantizeDouble(values.data(), got.data(), n,
                                 fmt.fracBits(),
                                 static_cast<std::int32_t>(fmt.rawMin()),
                                 static_cast<std::int32_t>(fmt.rawMax()));
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], fmt.fromReal(values[i]))
                    << tier->name << " " << fmt.name() << " value "
                    << values[i];

            tier->quantizeFloat(floats.data(), got.data(), n,
                                fmt.fracBits(),
                                static_cast<std::int32_t>(fmt.rawMin()),
                                static_cast<std::int32_t>(fmt.rawMax()));
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i],
                          fmt.fromReal(static_cast<double>(floats[i])))
                    << tier->name << " " << fmt.name() << " float value "
                    << floats[i];
        }
    }
}

TEST(KernelSampleWeights, MatchesDatapathKernelAcrossFormatsAndTiers)
{
    const fixed::FixedPointFormat eps_formats[] = {{8, 5}, {16, 10}};
    for (const auto &wfmt : kFormats) {
        for (const auto &efmt : eps_formats) {
            // Prime count for tail lanes. Wide formats push the
            // sigma*eps bound past int32 and exercise the SIMD tiers'
            // scalar fallback branch.
            const std::size_t n = 131;
            const auto mu = randomRaws(wfmt, 7, n);
            const auto sigma = randomRaws(wfmt, 11, n);
            const auto eps = randomRaws(efmt, 13, n);

            DatapathKernel kernel({8, 4}, wfmt, efmt);
            k::SampleParams params;
            params.epsShift = efmt.fracBits();
            params.wMin = static_cast<std::int32_t>(wfmt.rawMin());
            params.wMax = static_cast<std::int32_t>(wfmt.rawMax());
            params.sigmaAbsMax = -wfmt.rawMin();
            params.epsAbsMax = -efmt.rawMin();

            std::vector<std::int32_t> got(n);
            for (const auto *tier : k::availableKernels()) {
                tier->sampleWeights(mu.data(), sigma.data(), eps.data(),
                                    got.data(), n, params);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(got[i], kernel.sampleWeight(mu[i], sigma[i],
                                                          eps[i]))
                        << tier->name << " w=" << wfmt.name()
                        << " eps=" << efmt.name() << " i=" << i;
            }
        }
    }
}

TEST(KernelPack, PackInt16ExactOnOddSizes)
{
    Rng rng(5);
    for (const std::size_t n : {1u, 7u, 16u, 17u, 97u}) {
        std::vector<std::int32_t> in(n);
        for (auto &v : in)
            v = static_cast<std::int32_t>(
                    rng.uniformInt(std::uint64_t{65536})) -
                32768;
        std::vector<std::int16_t> got(n);
        for (const auto *tier : k::availableKernels()) {
            tier->packInt16(in.data(), got.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], static_cast<std::int16_t>(in[i]))
                    << tier->name << " n=" << n << " i=" << i;
        }
    }
}

namespace
{

/** Independent GEMM reference straight off DatapathKernel — pins the
 *  scalar kernel tier (and through it every SIMD tier) to the
 *  executor arithmetic, not just to itself. */
void
naiveGemm(const k::GemmArgs &a, const DatapathKernel &kernel,
          std::vector<std::int32_t> &out)
{
    for (std::size_t o = 0; o < a.outDim; ++o) {
        for (std::size_t b = 0; b < a.images; ++b) {
            std::int64_t acc = 0;
            for (std::size_t i = 0; i < a.inDim; ++i)
                acc += static_cast<std::int64_t>(
                           a.weights[o * a.ldw + i]) *
                    a.acts[b * a.lda + i];
            const std::int64_t v = a.finish.relu
                ? kernel.finishNeuron(acc, a.bias[o])
                : kernel.finishOutputNeuron(acc, a.bias[o]);
            out[o * a.outNeuronStride + b * a.outImageStride] =
                static_cast<std::int32_t>(v);
        }
    }
}

} // namespace

TEST(KernelGemm, MatchesDatapathFinishAcrossSizesTiersAndLayouts)
{
    // Odd/prime shapes exercise both the k tails (8/16-lane vectors)
    // and the image tails (4-image register tile).
    struct Shape
    {
        std::size_t inDim, outDim, images;
    };
    const Shape shapes[] = {
        {1, 1, 1},  {3, 2, 5},   {7, 5, 4},   {17, 3, 13},
        {31, 7, 6}, {97, 11, 9}, {128, 4, 8},
    };
    const fixed::FixedPointFormat act{8, 4}, weight{8, 6};
    DatapathKernel kernel(act, weight, {8, 5});

    for (const auto &shape : shapes) {
        for (const bool relu : {true, false}) {
            for (const bool neuron_major : {false, true}) {
                const std::size_t ldw = shape.inDim + 3; // padded strides
                const std::size_t lda = shape.inDim + 5;
                auto weights =
                    randomRaws(weight, 17 + shape.inDim,
                               shape.outDim * ldw);
                auto acts =
                    randomRaws(act, 19 + shape.images, shape.images * lda);
                auto bias = randomRaws(weight, 23, shape.outDim);

                k::GemmArgs args;
                args.weights = weights.data();
                args.ldw = ldw;
                args.acts = acts.data();
                args.lda = lda;
                args.bias = bias.data();
                args.inDim = shape.inDim;
                args.outDim = shape.outDim;
                args.images = shape.images;
                if (neuron_major) {
                    args.outNeuronStride = shape.images;
                    args.outImageStride = 1;
                } else {
                    args.outNeuronStride = 1;
                    args.outImageStride = shape.outDim;
                }
                args.finish.biasShift = act.fracBits();
                args.finish.outShift = weight.fracBits();
                args.finish.outMin =
                    static_cast<std::int32_t>(act.rawMin());
                args.finish.outMax =
                    static_cast<std::int32_t>(act.rawMax());
                args.finish.relu = relu;

                std::vector<std::int32_t> expected(shape.outDim *
                                                   shape.images);
                naiveGemm(args, kernel, expected);

                // 8-bit operands satisfy the int16 madd contract.
                std::vector<std::int16_t> w16(weights.size());
                std::vector<std::int16_t> a16(acts.size());
                k::scalarKernels().packInt16(weights.data(), w16.data(),
                                             weights.size());
                k::scalarKernels().packInt16(acts.data(), a16.data(),
                                             acts.size());

                std::vector<std::int32_t> got(expected.size());
                args.out = got.data();
                for (const auto *tier : k::availableKernels()) {
                    for (const bool use16 : {false, true}) {
                        args.weights16 = use16 ? w16.data() : nullptr;
                        args.acts16 = use16 ? a16.data() : nullptr;
                        std::fill(got.begin(), got.end(), -12345);
                        tier->gemmBatch(args);
                        ASSERT_EQ(got, expected)
                            << tier->name << " inDim=" << shape.inDim
                            << " images=" << shape.images
                            << " relu=" << relu << " use16=" << use16
                            << " neuronMajor=" << neuron_major;
                    }
                }
            }
        }
    }
}

TEST(KernelGemm, SaturatesOnActivationBoundsNotInt32)
{
    // Extreme operands drive the accumulator far past the activation
    // grid: the finish stage must clamp at the format bounds in every
    // tier (the int32 narrowing never truncates, it saturates).
    const fixed::FixedPointFormat act{8, 4}, weight{8, 6};
    DatapathKernel kernel(act, weight, {8, 5});
    const std::size_t in_dim = 33, images = 5;
    std::vector<std::int32_t> weights(in_dim, 127);  // rawMax
    std::vector<std::int32_t> acts(images * in_dim, 127);
    for (std::size_t i = 0; i < in_dim; i += 2)
        acts[in_dim + i] = -128; // one image swings negative
    std::vector<std::int32_t> bias = {-128};

    k::GemmArgs args;
    args.weights = weights.data();
    args.ldw = in_dim;
    args.acts = acts.data();
    args.lda = in_dim;
    args.bias = bias.data();
    args.inDim = in_dim;
    args.outDim = 1;
    args.images = images;
    args.outNeuronStride = 1;
    args.outImageStride = 1;
    args.finish.biasShift = act.fracBits();
    args.finish.outShift = weight.fracBits();
    args.finish.outMin = static_cast<std::int32_t>(act.rawMin());
    args.finish.outMax = static_cast<std::int32_t>(act.rawMax());

    std::vector<std::int32_t> expected(images);
    for (const bool relu : {true, false}) {
        args.finish.relu = relu;
        naiveGemm(args, kernel, expected);
        for (const auto v : expected) {
            ASSERT_GE(v, args.finish.outMin);
            ASSERT_LE(v, args.finish.outMax);
        }
        std::vector<std::int32_t> got(images);
        for (const auto *tier : k::availableKernels()) {
            args.out = got.data();
            tier->gemmBatch(args);
            ASSERT_EQ(got, expected) << tier->name << " relu=" << relu;
        }
    }
}

TEST(KernelFusedSampling, SampleBlockFusedMatchesStagedSampleBlock)
{
    // Crossing the 4096-eps ring boundary at a prime stride pins the
    // chunked fused path to the classic staged path on the identical
    // eps stream.
    const fixed::FixedPointFormat act{8, 4}, weight{8, 6}, eps{8, 5};
    DatapathKernel kernel(act, weight, eps);
    const std::size_t n = 10007;
    const auto mu = randomRaws(weight, 29, n);
    const auto sigma = randomRaws(weight, 31, n);

    auto gen_a = grng::makeGenerator("rlf", 77);
    WeightGenerator staged(kernel, gen_a.get());
    std::vector<std::int64_t> expected(n);
    staged.sampleBlock(mu.data(), sigma.data(), expected.data(), n);

    auto gen_b = grng::makeGenerator("rlf", 77);
    WeightGenerator fused(kernel, gen_b.get());
    std::vector<std::int32_t> got(n);
    fused.sampleBlockFused(mu.data(), sigma.data(), got.data(), n);

    EXPECT_EQ(staged.samplesDrawn(), fused.samplesDrawn());
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(static_cast<std::int64_t>(got[i]), expected[i])
            << "i=" << i;
}

TEST(KernelFusedSampling, EpsRingMatchesPerSampleConversion)
{
    // The vectorized refill conversion must reproduce the per-sample
    // fromReal stream exactly.
    const fixed::FixedPointFormat eps{8, 5};
    DatapathKernel kernel({8, 4}, {8, 6}, eps);
    auto gen = grng::makeGenerator("rlf", 99);
    WeightGenerator wg(kernel, gen.get());

    auto ref_gen = grng::makeGenerator("rlf", 99);
    std::vector<double> real(WeightGenerator::epsBlock);
    ref_gen->fill(real.data(), real.size());
    for (std::size_t i = 0; i < real.size(); ++i)
        ASSERT_EQ(wg.nextEpsRaw(), eps.fromReal(real[i])) << "i=" << i;
}

TEST(BatchedRunnerParallel, ThreadCountInvariantOnMlpAndCnn)
{
    const auto config = smallConfig();

    Rng mlp_rng(3);
    bnn::BayesianMlp mlp({24, 16, 4}, mlp_rng, /*rho_init=*/-2.0f);
    const auto mlp_program = compile(mlp, config);

    nn::ConvNetConfig cnn_cfg;
    cnn_cfg.inChannels = 1;
    cnn_cfg.imageHeight = 8;
    cnn_cfg.imageWidth = 8;
    cnn_cfg.blocks = {{/*outChannels=*/3, /*kernel=*/3, /*stride=*/1,
                       /*pad=*/1, /*pool=*/true, /*poolWindow=*/2}};
    cnn_cfg.denseHidden = {12};
    cnn_cfg.numClasses = 4;
    Rng cnn_rng(4);
    bnn::BayesianConvNet cnn(cnn_cfg, cnn_rng, /*rho_init=*/-2.0f);
    const auto cnn_program = compile(cnn, config);

    for (const auto *program : {&mlp_program, &cnn_program}) {
        const std::size_t dim = program->inputDim();
        const std::size_t count = 23; // odd: ragged shard boundaries
        const auto xs = randomBatch(count, dim, 55);

        auto idle = grng::makeGenerator("rlf", 1);
        BatchedRunner runner(*program, config, idle.get());
        const auto serial = roundOutputs(runner, xs, count, dim, 42);

        // 1/2/5 concurrent runners: a pool's parties() is workers + 1.
        for (const std::size_t workers : {0u, 1u, 4u}) {
            ThreadPool pool(workers);
            runner.setWorkPool(&pool);
            const auto parallel = roundOutputs(runner, xs, count, dim, 42);
            EXPECT_EQ(parallel, serial)
                << "workers=" << workers << " program input dim=" << dim;
            runner.setWorkPool(nullptr);
        }
    }
}

TEST(BatchedRunnerParallel, WideFormatsConstructAndRun)
{
    // The widest admissible grids (32-bit): the madd-eligibility bound
    // must be computed without overflowing (UBSan-enforced in the
    // sanitizer CI leg) and the round must still saturate on the
    // format, not on int32.
    // No AcceleratorConfig derives these formats, so the two-op
    // program (one dense bank, then output staging) is built by hand.
    QuantizedProgram program;
    program.activationFormat = {32, 28};
    program.weightFormat = {32, 30};
    program.epsFormat = {8, 5};
    QuantizedLayer layer;
    layer.inDim = 6;
    layer.outDim = 3;
    Rng rng(9);
    const auto wfmt = program.weightFormat;
    for (std::size_t i = 0; i < layer.inDim * layer.outDim; ++i) {
        layer.muWeight.push_back(static_cast<std::int32_t>(
            wfmt.fromReal(rng.uniform() * 2.0 - 1.0)));
        layer.sigmaWeight.push_back(static_cast<std::int32_t>(
            wfmt.fromReal(rng.uniform() * 0.25)));
    }
    for (std::size_t o = 0; o < layer.outDim; ++o) {
        layer.muBias.push_back(static_cast<std::int32_t>(
            wfmt.fromReal(rng.uniform() - 0.5)));
        layer.sigmaBias.push_back(0);
    }
    ProgramOp dense;
    dense.kind = OpKind::Dense;
    dense.inSize = layer.inDim;
    dense.outSize = layer.outDim;
    dense.relu = false;
    dense.bank = layer;
    dense.label = "dense0 6->3";
    program.ops.push_back(dense);
    ProgramOp output;
    output.kind = OpKind::Output;
    output.inSize = layer.outDim;
    output.outSize = layer.outDim;
    output.relu = false;
    output.label = "output 3";
    program.ops.push_back(output);

    auto config = smallConfig();
    config.peSets = 1;
    config.pesPerSet = 2;
    auto gen = grng::makeGenerator("rlf", 3);
    BatchedRunner runner(program, config, gen.get());
    const auto xs = randomBatch(5, layer.inDim, 21);
    const auto out = roundOutputs(runner, xs, 5, layer.inDim, 8);
    for (const auto v : out) {
        EXPECT_GE(v, program.activationFormat.rawMin());
        EXPECT_LE(v, program.activationFormat.rawMax());
    }
}

TEST(BatchedRunnerParallel, GemmTileDoesNotChangeResults)
{
    const auto config = smallConfig();
    Rng rng(6);
    bnn::BayesianMlp net({24, 16, 4}, rng, /*rho_init=*/-2.0f);
    const auto program = compile(net, config);
    const std::size_t count = 19;
    const auto xs = randomBatch(count, program.inputDim(), 77);

    auto idle = grng::makeGenerator("rlf", 1);
    BatchedRunner runner(program, config, idle.get());
    const auto reference =
        roundOutputs(runner, xs, count, program.inputDim(), 13);

    for (const char *tile : {"1", "3", "64"}) {
        ::setenv("VIBNN_GEMM_TILE", tile, 1);
        auto idle2 = grng::makeGenerator("rlf", 1);
        BatchedRunner tiled(program, config, idle2.get());
        ::unsetenv("VIBNN_GEMM_TILE");
        EXPECT_EQ(tiled.imageTile(),
                  static_cast<std::size_t>(std::atoi(tile)));
        const auto got =
            roundOutputs(tiled, xs, count, program.inputDim(), 13);
        EXPECT_EQ(got, reference) << "tile=" << tile;
    }
}

TEST(KernelRlf, CycleCountsMatchRlfLogicAcrossTiers)
{
    // The transposed lane-parallel RLF kernel against the per-lane
    // RlfLogic functional model: pre-mux counts, in-place plane/sum
    // updates, and head advance must all agree for every tier, for
    // full and partial bit-plane groups, across burst boundaries at
    // prime cycle counts (a resumed burst must continue the stream,
    // not restart it).
    const int length = 255; // taps {250, 252, 253} = {n-5, n-3, n-2}
    for (const int lanes : {5, 8, 16}) {
        const int groups = (lanes + 7) / 8;

        // Reference: one RlfLogic per lane.
        Rng seeder(1234 + lanes);
        std::vector<std::vector<std::uint8_t>> seeds;
        for (int lane = 0; lane < lanes; ++lane)
            seeds.push_back(grng::expandSeedBits(length, seeder.next()));

        for (const auto *tier : k::availableKernels()) {
            std::vector<grng::RlfLogic> ref;
            for (int lane = 0; lane < lanes; ++lane)
                ref.emplace_back(length, seeds[lane],
                                 grng::RlfUpdateMode::Combined);

            // Transposed state: plane g byte p bit j = lane 8g+j's
            // state bit p; padding columns stay zero.
            std::vector<std::uint8_t> planes(
                static_cast<std::size_t>(length) * groups, 0);
            std::vector<std::int32_t> sums(
                static_cast<std::size_t>(groups) * 8, 0);
            for (int lane = 0; lane < lanes; ++lane)
                for (int p = 0; p < length; ++p)
                    if (seeds[lane][p]) {
                        planes[static_cast<std::size_t>(lane / 8) *
                                   length +
                               p] |= static_cast<std::uint8_t>(
                            1u << (lane & 7));
                        ++sums[lane];
                    }

            k::RlfState st;
            st.planes = planes.data();
            st.sums = sums.data();
            st.length = length;
            st.groups = groups;
            st.head = 0;

            const std::size_t bursts[] = {97, 31, 1, 128};
            std::vector<std::int32_t> counts;
            for (const std::size_t cycles : bursts) {
                counts.assign(cycles * groups * 8, -1);
                tier->rlfCycleCounts(st, cycles, counts.data());
                for (std::size_t c = 0; c < cycles; ++c)
                    for (int lane = 0; lane < lanes; ++lane)
                        ASSERT_EQ(counts[c * groups * 8 + lane],
                                  ref[lane].step())
                            << tier->name << " lanes=" << lanes
                            << " cycle=" << c << " lane=" << lane;
            }
            // In-place state agrees too: head and per-lane sums.
            for (int lane = 0; lane < lanes; ++lane)
                EXPECT_EQ(sums[lane], ref[lane].sum())
                    << tier->name << " lane=" << lane;
            EXPECT_EQ(st.head, ref[0].head()) << tier->name;
        }
    }
}

TEST(KernelWallace, PassMatchesSequentialQuadsAcrossTiers)
{
    // The wallacePass kernel against the sequential quadruple walk:
    // identical pool mutation and output block for every tier,
    // including pool sizes with a non-multiple-of-16 quad count (the
    // AVX2 4-wide main loop plus scalar tail) and sizes below the
    // 4-wide threshold entirely.
    for (const std::size_t pool_size : {8u, 20u, 28u, 64u, 1024u}) {
        Rng rng(99 + pool_size);
        std::vector<double> init(pool_size);
        for (auto &x : init)
            x = rng.gaussian();
        // A handful of (offset, stride) draws, all coprime strides.
        for (int draw = 0; draw < 4; ++draw) {
            const std::size_t offset = rng.uniformInt(pool_size);
            std::size_t stride;
            do {
                stride = 1 + rng.uniformInt(pool_size - 1);
            } while (std::gcd(stride, pool_size) != 1);

            // Sequential reference.
            std::vector<double> ref_pool = init;
            std::vector<double> ref_out(4 * (pool_size / 4));
            {
                std::size_t pos = offset;
                auto advance = [&] {
                    const std::size_t at = pos;
                    pos += stride;
                    if (pos >= pool_size)
                        pos -= pool_size;
                    return at;
                };
                for (std::size_t q = 0; q < pool_size / 4; ++q) {
                    const std::size_t i0 = advance(), i1 = advance();
                    const std::size_t i2 = advance(), i3 = advance();
                    const auto y = grng::hadamardTransform4(
                        {ref_pool[i0], ref_pool[i1], ref_pool[i2],
                         ref_pool[i3]});
                    ref_pool[i0] = y[0];
                    ref_pool[i1] = y[1];
                    ref_pool[i2] = y[2];
                    ref_pool[i3] = y[3];
                    for (int j = 0; j < 4; ++j)
                        ref_out[4 * q + j] = y[j];
                }
            }

            for (const auto *tier : k::availableKernels()) {
                std::vector<double> pool = init;
                std::vector<double> out(ref_out.size(), 0.0);
                tier->wallacePass(pool.data(), pool_size, offset,
                                  stride, out.data());
                for (std::size_t i = 0; i < pool_size; ++i)
                    ASSERT_EQ(pool[i], ref_pool[i])
                        << tier->name << " pool=" << pool_size
                        << " slot=" << i;
                for (std::size_t i = 0; i < out.size(); ++i)
                    ASSERT_EQ(out[i], ref_out[i])
                        << tier->name << " pool=" << pool_size
                        << " out=" << i;
                // The nullable-out form mutates the pool identically.
                std::vector<double> pool2 = init;
                tier->wallacePass(pool2.data(), pool_size, offset,
                                  stride, nullptr);
                ASSERT_EQ(pool2, ref_pool) << tier->name;
            }
        }
    }
}

TEST(BatchedRunnerPooled, PhiloxRoundsMatchUnpooled)
{
    // A pooled runner shards each round's images across the work pool
    // and draws the round's weights serially before it; outputs must
    // be bit-identical to an unpooled runner for any pool size, and
    // the stream must stay aligned across consecutive rounds (round 2
    // of the pooled run matches round 2 of the unpooled run).
    const auto config = smallConfig();
    Rng rng(8);
    bnn::BayesianMlp net({24, 16, 4}, rng, /*rho_init=*/-2.0f);
    const auto program = compile(net, config);
    const std::size_t count = 9;
    const std::size_t dim = program.inputDim();
    const auto xs = randomBatch(count, dim, 31);

    auto run_rounds = [&](ThreadPool *pool) {
        auto gen = grng::makeGenerator("philox", 4242);
        BatchedRunner runner(program, config, gen.get());
        runner.setWorkPool(pool);
        std::vector<std::int64_t> out(
            2 * count * runner.program().outputDim());
        runner.runRoundBatch(xs.data(), count, dim, out.data());
        runner.runRoundBatch(xs.data(), count, dim,
                             out.data() +
                                 count * runner.program().outputDim());
        return out;
    };

    const auto serial = run_rounds(nullptr);
    for (const std::size_t workers : {1u, 4u}) {
        ThreadPool pool(workers);
        const auto pooled = run_rounds(&pool);
        EXPECT_EQ(pooled, serial) << "workers=" << workers;
    }
}

TEST(BatchedRunnerPooled, PhiloxRoundsMatchUnpooledMidStream)
{
    // A generator handed over after it has drawn: a pooled runner must
    // read the round from the generator's cursor, as an unpooled one
    // does, and leave the cursor past the round rather than rewinding
    // it — whether the hand-over is the constructor or setGenerator().
    const auto config = smallConfig();
    Rng rng(8);
    bnn::BayesianMlp net({24, 16, 4}, rng, /*rho_init=*/-2.0f);
    const auto program = compile(net, config);
    const std::size_t count = 9;
    const std::size_t dim = program.inputDim();
    const std::size_t out_dim = program.outputDim();
    const auto xs = randomBatch(count, dim, 31);

    auto run_rounds = [&](ThreadPool *pool, bool via_set_generator) {
        auto gen = grng::makeGenerator("philox", 4242);
        for (int i = 0; i < 1000; ++i)
            gen->next();
        auto placeholder = grng::makeGenerator("philox", 1);
        BatchedRunner runner(program, config,
                             via_set_generator ? placeholder.get()
                                               : gen.get());
        if (via_set_generator)
            runner.setGenerator(gen.get());
        runner.setWorkPool(pool);
        std::vector<std::int64_t> out(2 * count * out_dim);
        runner.runRoundBatch(xs.data(), count, dim, out.data());
        runner.runRoundBatch(xs.data(), count, dim,
                             out.data() + count * out_dim);
        return out;
    };

    for (const bool via_set_generator : {false, true}) {
        const auto serial = run_rounds(nullptr, via_set_generator);
        ThreadPool pool(4);
        EXPECT_EQ(run_rounds(&pool, via_set_generator), serial)
            << "via_set_generator=" << via_set_generator;
    }
}

namespace
{

std::vector<float>
randomFloats(std::size_t count, std::uint64_t seed, float scale = 1.0f)
{
    Rng rng(seed);
    std::vector<float> v(count);
    for (auto &x : v)
        x = static_cast<float>((rng.uniform() * 2.0 - 1.0) * scale);
    return v;
}

/** Bitwise equality (0.0 vs -0.0 and NaN payloads included). */
bool
bitsEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace

TEST(KernelGemmF32, BatchForwardTiersBitExact)
{
    // Shapes chosen to hit every code path: k below one SIMD step,
    // exact multiples, prime tails, and n not a multiple of the AVX2
    // 4-row blocking.
    const struct
    {
        std::size_t m, n, k;
    } shapes[] = {{1, 1, 1},   {3, 5, 7},   {4, 4, 8},  {5, 7, 131},
                  {2, 9, 16},  {7, 3, 33},  {1, 13, 257}};
    for (const auto &sh : shapes) {
        for (const bool with_bias : {false, true}) {
            const auto a = randomFloats(sh.m * sh.k, 11 + sh.k, 2.0f);
            const auto b = randomFloats(sh.n * sh.k, 23 + sh.n, 2.0f);
            const auto bias = randomFloats(sh.n, 37 + sh.m, 0.5f);
            k::GemmF32Args args;
            args.a = a.data();
            args.lda = sh.k;
            args.b = b.data();
            args.ldb = sh.k;
            args.ldc = sh.n;
            args.m = sh.m;
            args.n = sh.n;
            args.k = sh.k;
            args.bias = with_bias ? bias.data() : nullptr;

            std::vector<float> ref(sh.m * sh.n, 0.0f);
            args.c = ref.data();
            k::scalarKernels().gemmBatchF32(args);
            for (const k::KernelOps *ops : k::availableKernels()) {
                std::vector<float> out(sh.m * sh.n, -7.0f);
                args.c = out.data();
                ops->gemmBatchF32(args);
                EXPECT_TRUE(bitsEqual(out, ref))
                    << ops->name << " m=" << sh.m << " n=" << sh.n
                    << " k=" << sh.k << " bias=" << with_bias;
            }
        }
    }
}

TEST(KernelGemmF32, AtBAccumulateTiersBitExact)
{
    // lda/ldc 0 = packed. n = 6 and 10 leave rows beside the AVX2
    // 4-row tiles; k = 27 reaches its 16-wide, 8-wide and scalar
    // column paths, k = 200 the first two; (64, 10, 200) is the
    // training shape; lda > n is every pooled trainer shard's layout.
    const struct
    {
        std::size_t m, n, k, lda = 0, ldc = 0;
    } shapes[] = {{1, 1, 1},    {4, 5, 7},     {9, 3, 64},
                  {5, 8, 131},  {2, 17, 9},    {5, 6, 27},
                  {3, 6, 200},  {64, 10, 200}, {9, 6, 27, 11, 32}};
    for (const auto &sh : shapes) {
        const std::size_t lda = sh.lda ? sh.lda : sh.n;
        const std::size_t ldc = sh.ldc ? sh.ldc : sh.k;
        for (const bool with_sums : {false, true}) {
            const auto a = randomFloats(sh.m * lda, 101 + sh.n, 1.5f);
            const auto b = randomFloats(sh.m * sh.k, 211 + sh.k, 1.5f);
            // Accumulating entry point: seed c / colSums non-zero.
            const auto c0 = randomFloats(sh.n * ldc, 307, 0.25f);
            const auto s0 = randomFloats(sh.n, 401, 0.25f);
            k::GemmF32Args args;
            args.a = a.data();
            args.lda = lda;
            args.b = b.data();
            args.ldb = sh.k;
            args.ldc = ldc;
            args.m = sh.m;
            args.n = sh.n;
            args.k = sh.k;

            std::vector<float> ref = c0, refSums = s0;
            args.c = ref.data();
            args.colSums = with_sums ? refSums.data() : nullptr;
            k::scalarKernels().gemmAtBF32(args);
            for (const k::KernelOps *ops : k::availableKernels()) {
                std::vector<float> out = c0, sums = s0;
                args.c = out.data();
                args.colSums = with_sums ? sums.data() : nullptr;
                ops->gemmAtBF32(args);
                EXPECT_TRUE(bitsEqual(out, ref))
                    << ops->name << " m=" << sh.m << " n=" << sh.n
                    << " k=" << sh.k << " lda=" << lda << " ldc=" << ldc;
                if (with_sums) {
                    EXPECT_TRUE(bitsEqual(sums, refSums)) << ops->name;
                }
            }
        }
    }
}

TEST(KernelGemmF32, ABOverwriteTiersBitExact)
{
    // As above, with m = 7 and 10 leaving rows beside the AVX2 tiles.
    const struct
    {
        std::size_t m, n, k, lda = 0, ldc = 0;
    } shapes[] = {{1, 1, 1},    {3, 7, 5},     {6, 9, 64},
                  {5, 4, 131},  {2, 31, 3},    {7, 5, 27},
                  {7, 3, 200},  {64, 10, 200}, {7, 6, 27, 9, 30}};
    for (const auto &sh : shapes) {
        const std::size_t lda = sh.lda ? sh.lda : sh.n;
        const std::size_t ldc = sh.ldc ? sh.ldc : sh.k;
        const auto a = randomFloats(sh.m * lda, 501 + sh.n, 1.5f);
        const auto b = randomFloats(sh.n * sh.k, 601 + sh.k, 1.5f);
        k::GemmF32Args args;
        args.a = a.data();
        args.lda = lda;
        args.b = b.data();
        args.ldb = sh.k;
        args.ldc = ldc;
        args.m = sh.m;
        args.n = sh.n;
        args.k = sh.k;

        // c must be overwritten; the padding past k must not be.
        std::vector<float> ref(sh.m * ldc, 99.0f);
        args.c = ref.data();
        k::scalarKernels().gemmABF32(args);
        for (const k::KernelOps *ops : k::availableKernels()) {
            std::vector<float> out(sh.m * ldc, -99.0f);
            args.c = out.data();
            ops->gemmABF32(args);
            bool padding_kept = true;
            for (std::size_t i = 0; i < sh.m; ++i)
                for (std::size_t t = sh.k; t < ldc; ++t) {
                    padding_kept &= out[i * ldc + t] == -99.0f;
                    out[i * ldc + t] = 99.0f;
                }
            EXPECT_TRUE(padding_kept) << ops->name;
            EXPECT_TRUE(bitsEqual(out, ref))
                << ops->name << " m=" << sh.m << " n=" << sh.n
                << " k=" << sh.k << " lda=" << lda << " ldc=" << ldc;
        }
    }
}

TEST(KernelAdamF32, StepTiersBitExact)
{
    for (const std::size_t n : {1u, 7u, 8u, 64u, 131u}) {
        const auto p0 = randomFloats(n, 701 + n, 1.0f);
        const auto g = randomFloats(n, 801 + n, 0.1f);
        const auto m0 = randomFloats(n, 901 + n, 0.01f);
        auto v0 = randomFloats(n, 1001 + n, 0.01f);
        for (auto &v : v0)
            v = std::fabs(v); // second moments are non-negative
        k::AdamStepArgs args;
        args.lr = 3e-3f;
        args.bc1 = 1.0f - 0.9f * 0.9f;
        args.bc2 = 1.0f - 0.999f * 0.999f;
        args.gradScale = 1.0f / 3.0f;

        std::vector<float> pr = p0, mr = m0, vr = v0;
        k::scalarKernels().adamStepF32(pr.data(), g.data(), mr.data(),
                                       vr.data(), n, args);
        for (const k::KernelOps *ops : k::availableKernels()) {
            std::vector<float> p = p0, m = m0, v = v0;
            ops->adamStepF32(p.data(), g.data(), m.data(), v.data(), n,
                             args);
            EXPECT_TRUE(bitsEqual(p, pr)) << ops->name << " n=" << n;
            EXPECT_TRUE(bitsEqual(m, mr)) << ops->name << " n=" << n;
            EXPECT_TRUE(bitsEqual(v, vr)) << ops->name << " n=" << n;
        }
    }
}

namespace
{

enum class F32Gemm
{
    Batch,
    AtB,
    AB
};

/** One f32 GEMM call's shape; a leading dimension of 0 means packed. */
struct F32GemmCase
{
    F32Gemm which;
    std::size_t m, n, k;
    std::size_t lda = 0, ldb = 0, ldc = 0;
};

/**
 * Runs one f32 GEMM entry at `cs` on every available tier and on the
 * scalar reference, from the same C (and colSums) seed, with the bias
 * (gemmBatchF32) or column sums (gemmAtBF32), and expects the whole C
 * buffer, stride padding included, and the sums to match bitwise. Each
 * operand's rows and columns follow GemmF32Args.
 */
void
expectGemmF32TiersMatch(const F32GemmCase &cs, std::uint64_t seed)
{
    const bool fwd = cs.which == F32Gemm::Batch;
    const std::size_t a_cols = fwd ? cs.k : cs.n;
    const std::size_t b_rows = cs.which == F32Gemm::AtB ? cs.m : cs.n;
    const std::size_t c_rows = cs.which == F32Gemm::AtB ? cs.n : cs.m;
    const std::size_t c_cols = fwd ? cs.n : cs.k;
    k::GemmF32Args args;
    args.lda = std::max(cs.lda, a_cols);
    args.ldb = std::max(cs.ldb, cs.k);
    args.ldc = std::max(cs.ldc, c_cols);
    args.m = cs.m;
    args.n = cs.n;
    args.k = cs.k;
    const auto a = randomFloats(cs.m * args.lda, seed, 1.5f);
    const auto b = randomFloats(b_rows * args.ldb, seed + 1, 1.5f);
    const auto c0 = randomFloats(c_rows * args.ldc, seed + 2, 0.25f);
    const auto extra0 = randomFloats(cs.n, seed + 3, 0.5f);
    args.a = a.data();
    args.b = b.data();
    const auto run = [&](const k::KernelOps &ops, std::vector<float> &c,
                         std::vector<float> &extra) {
        args.c = c.data();
        args.bias = fwd ? extra.data() : nullptr;
        args.colSums = cs.which == F32Gemm::AtB ? extra.data() : nullptr;
        switch (cs.which) {
        case F32Gemm::Batch:
            ops.gemmBatchF32(args);
            break;
        case F32Gemm::AtB:
            ops.gemmAtBF32(args);
            break;
        case F32Gemm::AB:
            ops.gemmABF32(args);
            break;
        }
    };
    std::vector<float> ref = c0, ref_extra = extra0;
    run(k::scalarKernels(), ref, ref_extra);
    for (const k::KernelOps *ops : k::availableKernels()) {
        std::vector<float> out = c0, extra = extra0;
        run(*ops, out, extra);
        EXPECT_TRUE(bitsEqual(out, ref) && bitsEqual(extra, ref_extra))
            << ops->name << " entry=" << static_cast<int>(cs.which)
            << " m=" << cs.m << " n=" << cs.n << " k=" << cs.k
            << " lda=" << args.lda << " ldb=" << args.ldb
            << " ldc=" << args.ldc;
    }
}

} // namespace

TEST(KernelGemmF32, GeneratedShapesTiersBitExact)
{
    // Fixed-seed draws of m, n and k in [1, 300] with 0-7 floats of
    // stride padding per operand, for each of the three GEMM entries.
    Rng rng(20260);
    for (const F32Gemm which : {F32Gemm::Batch, F32Gemm::AtB, F32Gemm::AB}) {
        for (int draw = 0; draw < 8; ++draw) {
            F32GemmCase cs{which,
                           static_cast<std::size_t>(rng.uniformInt(1, 300)),
                           static_cast<std::size_t>(rng.uniformInt(1, 300)),
                           static_cast<std::size_t>(rng.uniformInt(1, 300))};
            const std::size_t a_cols =
                which == F32Gemm::Batch ? cs.k : cs.n;
            const std::size_t c_cols =
                which == F32Gemm::Batch ? cs.n : cs.k;
            cs.lda = a_cols + static_cast<std::size_t>(rng.uniformInt(0, 7));
            cs.ldb = cs.k + static_cast<std::size_t>(rng.uniformInt(0, 7));
            cs.ldc = c_cols + static_cast<std::size_t>(rng.uniformInt(0, 7));
            expectGemmF32TiersMatch(
                cs, 3000 + 10 * static_cast<unsigned>(draw));
        }
    }
}

TEST(KernelGemmF32, TileEdgeShapesTiersBitExact)
{
    // Forward: n = 13 walks the 8-, 4- and 1-row B tiles; odd m leaves
    // an A row without a partner. Backward: k = 59 walks the 32-, 16-
    // and 8-column C tiles, then the scalar tail; n or m = 4q + 3 leaves
    // rows beside the 4-row tiles.
    const F32GemmCase cases[] = {
        {F32Gemm::Batch, 5, 13, 59},  {F32Gemm::Batch, 1, 13, 16},
        {F32Gemm::Batch, 7, 13, 8},   {F32Gemm::Batch, 6, 12, 7},
        {F32Gemm::AtB, 5, 7, 59},     {F32Gemm::AtB, 9, 8, 59, 11, 61, 64},
        {F32Gemm::AtB, 3, 4, 56},     {F32Gemm::AB, 7, 5, 59},
        {F32Gemm::AB, 8, 9, 59, 12, 60, 63}, {F32Gemm::AB, 3, 2, 48},
    };
    std::uint64_t seed = 4000;
    for (const auto &cs : cases)
        expectGemmF32TiersMatch(cs, seed += 10);
}

TEST(KernelGemmF32, TrainingShapesTiersBitExact)
{
    // The 784-200-200-10 network's three layers, as the batched trainer
    // calls them: batch 64 and a ragged last minibatch of 63.
    const std::size_t layers[][2] = {{784, 200}, {200, 200}, {200, 10}};
    std::uint64_t seed = 5000;
    for (const std::size_t batch : {64u, 63u})
        for (const auto &layer : layers)
            for (const F32Gemm which :
                 {F32Gemm::Batch, F32Gemm::AtB, F32Gemm::AB})
                expectGemmF32TiersMatch(
                    {which, batch, layer[1], layer[0]}, seed += 10);
}

TEST(KernelTrainingOps, GeneratedLengthsTiersBitExact)
{
    // Adam, the plane op and the KL op on fixed-seed lengths in
    // [1, 300], each starting 0-15 floats past a 64-byte boundary.
    Rng rng(20261);
    const k::KlArgs kl = k::klArgs(0.25f, 1.0f / 64.0f);
    k::AdamStepArgs adam;
    adam.bc1 = 1.0f - 0.9f * 0.9f * 0.9f;
    adam.bc2 = 1.0f - 0.999f * 0.999f * 0.999f;
    adam.gradScale = 1.0f / 64.0f;
    for (int draw = 0; draw < 24; ++draw) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 300));
        const auto off = static_cast<std::size_t>(rng.uniformInt(0, 15));
        const std::uint64_t seed = 6000 + 10 * static_cast<unsigned>(draw);
        const auto rho = randomFloats(off + n, seed, 6.0f);
        const auto mu = randomFloats(off + n, seed + 1, 1.0f);
        const auto g = randomFloats(off + n, seed + 2, 0.1f);
        auto v0 = randomFloats(off + n, seed + 3, 0.01f);
        for (auto &v : v0)
            v = std::fabs(v);

        struct Out
        {
            std::vector<float> p, m, v, s, d, q, gm, gr;
            double acc = 0.0;
        };
        const auto run = [&](const k::KernelOps &ops) {
            Out o{mu, g, v0, rho, rho, rho, g, v0};
            ops.adamStepF32(o.p.data() + off, g.data() + off,
                            o.m.data() + off, o.v.data() + off, n, adam);
            ops.sigmaPlanes(rho.data() + off, o.s.data() + off,
                            o.d.data() + off, o.q.data() + off, n);
            o.acc = ops.klSumGrad(mu.data() + off, o.s.data() + off,
                                  o.d.data() + off, o.gm.data() + off,
                                  o.gr.data() + off, n, kl, 0.5);
            return o;
        };
        const Out ref = run(k::scalarKernels());
        for (const k::KernelOps *ops : k::availableKernels()) {
            const Out o = run(*ops);
            EXPECT_TRUE(bitsEqual(o.p, ref.p) && bitsEqual(o.m, ref.m) &&
                        bitsEqual(o.v, ref.v))
                << ops->name << " adam n=" << n << " off=" << off;
            EXPECT_TRUE(bitsEqual(o.s, ref.s) && bitsEqual(o.d, ref.d) &&
                        bitsEqual(o.q, ref.q))
                << ops->name << " planes n=" << n << " off=" << off;
            EXPECT_TRUE(bitsEqual(o.gm, ref.gm) && bitsEqual(o.gr, ref.gr) &&
                        std::memcmp(&o.acc, &ref.acc, sizeof o.acc) == 0)
                << ops->name << " kl n=" << n << " off=" << off;
        }
    }
}

namespace
{

/** Inputs of the plane and KL op pins: the +-20 switches and their
 *  neighbours, exp's float-underflow region (-88, -104), the exp clamp
 *  at -200 and its neighbours, the float extremes, infinities, NaNs of
 *  both signs and payloads, and subnormals. */
std::vector<float>
sigmaSpecials()
{
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    float payload_nan = 0.0f;
    const std::uint32_t nan_bits = 0xffc01234u;
    std::memcpy(&payload_nan, &nan_bits, sizeof payload_nan);
    return {0.0f,
            -0.0f,
            20.0f,
            -20.0f,
            std::nextafter(20.0f, inf),
            std::nextafter(20.0f, 0.0f),
            std::nextafter(-20.0f, -inf),
            std::nextafter(-20.0f, 0.0f),
            -88.0f,
            -104.0f,
            -200.0f,
            std::nextafter(-200.0f, -inf),
            std::nextafter(-200.0f, 0.0f),
            200.0f,
            FLT_MAX,
            -FLT_MAX,
            inf,
            -inf,
            std::numeric_limits<float>::quiet_NaN(),
            payload_nan,
            denorm,
            -denorm,
            FLT_MIN / 4.0f,
            -FLT_MIN / 4.0f,
            FLT_MIN,
            0.4142135f,
            -0.34657359f,
            1.0f};
}

/** Op inputs of length n: the specials, then uniform values in
 *  [-lo, hi] from `seed`. */
std::vector<float>
specialsThenUniform(std::size_t n, std::uint64_t seed, double lo, double hi)
{
    std::vector<float> v = sigmaSpecials();
    v.resize(std::max(n, v.size()));
    Rng rng(seed);
    for (std::size_t i = sigmaSpecials().size(); i < v.size(); ++i)
        v[i] = static_cast<float>(rng.uniform(lo, hi));
    v.resize(n);
    return v;
}

bool
doubleBitsEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

TEST(KernelSigmaPlanes, TiersBitExactOnSpecialsAndTails)
{
    // Prime sizes put every special in a vector lane and leave tails
    // of each length; 28 and 64 are whole vectors only.
    for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 28u, 31u, 64u, 131u}) {
        // Rotate the specials so each lands in a different lane.
        auto rho = specialsThenUniform(n + 3, 41 + n, -30.0, 30.0);
        std::rotate(rho.begin(), rho.begin() + static_cast<long>(n % 3),
                    rho.end());
        rho.resize(n);
        std::vector<float> sr(n), dr(n), qr(n);
        k::scalarKernels().sigmaPlanes(rho.data(), sr.data(), dr.data(),
                                       qr.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            float sp = 0.0f, lg = 0.0f;
            k::softplusLogistic(rho[i], sp, lg);
            EXPECT_TRUE(bitsEqual({sr[i], dr[i], qr[i]},
                                  {sp, lg, sp * sp}))
                << "scalar tier vs reference at rho=" << rho[i];
        }
        for (const k::KernelOps *ops : k::availableKernels()) {
            std::vector<float> s(n, -1.0f), d(n, -1.0f), q(n, -1.0f);
            ops->sigmaPlanes(rho.data(), s.data(), d.data(), q.data(), n);
            EXPECT_TRUE(bitsEqual(s, sr)) << ops->name << " n=" << n;
            EXPECT_TRUE(bitsEqual(d, dr)) << ops->name << " n=" << n;
            EXPECT_TRUE(bitsEqual(q, qr)) << ops->name << " n=" << n;
            // Without sigma^2 the other planes are the same.
            std::vector<float> s2(n), d2(n);
            ops->sigmaPlanes(rho.data(), s2.data(), d2.data(), nullptr, n);
            EXPECT_TRUE(bitsEqual(s2, sr)) << ops->name << " n=" << n;
            EXPECT_TRUE(bitsEqual(d2, dr)) << ops->name << " n=" << n;
        }
    }
}

TEST(KernelSigmaPlanes, NaNAndInfinitiesOnEveryTier)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // Each value at every lane position of a vector and in a tail.
    for (const k::KernelOps *ops : k::availableKernels()) {
        for (std::size_t at = 0; at < 9; ++at) {
            std::vector<float> rho(9, -5.0f), s(9), d(9);
            for (const float x : {nan, -nan, inf, -inf}) {
                rho[at] = x;
                ops->sigmaPlanes(rho.data(), s.data(), d.data(), nullptr, 9);
                if (std::isnan(x)) {
                    EXPECT_TRUE(std::isnan(s[at])) << ops->name;
                    EXPECT_TRUE(std::isnan(d[at])) << ops->name;
                } else if (x > 0.0f) {
                    EXPECT_EQ(s[at], inf) << ops->name;
                    EXPECT_EQ(d[at], 1.0f) << ops->name;
                } else {
                    EXPECT_EQ(s[at], 0.0f) << ops->name;
                    EXPECT_EQ(d[at], 0.0f) << ops->name;
                }
                for (std::size_t i = 0; i < 9; ++i)
                    if (i != at) {
                        EXPECT_FALSE(std::isnan(s[i])) << ops->name;
                    }
            }
        }
    }
}

TEST(KernelKlSumGrad, TiersBitExactAndEqualKlSumOrder)
{
    const float prior = 0.3f, scale = 0.0125f;
    const k::KlArgs args = k::klArgs(prior, scale);
    for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 28u, 31u, 64u, 131u}) {
        // sigma and dsigma as the trainer makes them (the plane op of
        // rho, specials included); mu specials in a shifted order.
        const auto rho = specialsThenUniform(n, 61 + n, -8.0, 3.0);
        auto mu = specialsThenUniform(n + 5, 71 + n, -1.0, 1.0);
        std::rotate(mu.begin(), mu.begin() + 5, mu.end());
        mu.resize(n);
        std::vector<float> sigma(n), dsigma(n);
        k::scalarKernels().sigmaPlanes(rho.data(), sigma.data(),
                                       dsigma.data(), nullptr, n);
        const auto gm0 = randomFloats(n, 81 + n, 0.5f);
        const auto gr0 = randomFloats(n, 91 + n, 0.5f);

        // KlSum's order: acc += term, one element at a time.
        double ref_acc = 1.25;
        std::vector<float> gmr = gm0, grr = gr0;
        for (std::size_t i = 0; i < n; ++i) {
            ref_acc += k::klTerm(mu[i], sigma[i], args);
            k::klGrad(mu[i], sigma[i], dsigma[i], gmr[i], grr[i], args);
        }
        for (const k::KernelOps *ops : k::availableKernels()) {
            std::vector<float> gm = gm0, gr = gr0;
            const double acc =
                ops->klSumGrad(mu.data(), sigma.data(), dsigma.data(),
                               gm.data(), gr.data(), n, args, 1.25);
            EXPECT_TRUE(doubleBitsEqual(acc, ref_acc))
                << ops->name << " n=" << n << ": " << acc << " vs "
                << ref_acc;
            EXPECT_TRUE(bitsEqual(gm, gmr)) << ops->name << " n=" << n;
            EXPECT_TRUE(bitsEqual(gr, grr)) << ops->name << " n=" << n;
        }
    }
}

TEST(KernelKlSumGrad, NaNInAnyLaneMakesTheSumNaN)
{
    const k::KlArgs args = k::klArgs(0.3f, 1.0f);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const k::KernelOps *ops : k::availableKernels()) {
        for (std::size_t at = 0; at < 9; ++at) {
            for (const bool in_mu : {false, true}) {
                std::vector<float> mu(9, 0.1f), sigma(9, 0.05f),
                    dsigma(9, 0.04f), gm(9, 0.0f), gr(9, 0.0f);
                (in_mu ? mu : sigma)[at] = nan;
                const double kl =
                    ops->klSumGrad(mu.data(), sigma.data(), dsigma.data(),
                                   gm.data(), gr.data(), 9, args, 0.0);
                EXPECT_TRUE(std::isnan(kl))
                    << ops->name << " at=" << at << " mu=" << in_mu;
            }
        }
        // sigma = 0 (rho far below -104): KL +inf, not NaN.
        std::vector<float> mu(5, 0.1f), sigma(5, 0.05f), dsigma(5, 0.0f),
            gm(5, 0.0f), gr(5, 0.0f);
        sigma[2] = 0.0f;
        EXPECT_EQ(ops->klSumGrad(mu.data(), sigma.data(), dsigma.data(),
                                 gm.data(), gr.data(), 5, args, 0.0),
                  std::numeric_limits<double>::infinity())
            << ops->name;
    }
}

TEST(KernelLn, WithinTenToTheMinus14OfStdLog)
{
    // Every positive float at a prime stride, subnormals included.
    std::size_t checked = 0;
    double worst = 0.0;
    for (std::uint32_t bits = 1; bits < 0x7f800000u; bits += 9973) {
        float x = 0.0f;
        std::memcpy(&x, &bits, sizeof x);
        const double want = std::log(static_cast<double>(x));
        const double got = k::ln(x);
        if (want != 0.0)
            worst = std::max(worst, std::fabs(got - want) / std::fabs(want));
        else
            EXPECT_EQ(got, 0.0);
        ++checked;
    }
    EXPECT_GT(checked, 200000u);
    EXPECT_LE(worst, 1e-14);
    for (const float x : {1.0f, std::nextafter(1.0f, 2.0f),
                          std::nextafter(1.0f, 0.0f), FLT_MAX, FLT_MIN,
                          std::numeric_limits<float>::denorm_min()}) {
        const double want = std::log(static_cast<double>(x));
        EXPECT_LE(std::fabs(k::ln(x) - want), 1e-14 * std::fabs(want))
            << "x=" << x;
    }
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(k::ln(0.0f), -inf);
    EXPECT_EQ(k::ln(-0.0f), -inf);
    EXPECT_EQ(k::ln(std::numeric_limits<float>::infinity()), inf);
    EXPECT_TRUE(std::isnan(k::ln(-1.0f)));
    EXPECT_TRUE(std::isnan(k::ln(-std::numeric_limits<float>::infinity())));
    EXPECT_TRUE(std::isnan(k::ln(std::numeric_limits<float>::quiet_NaN())));
}

TEST(KernelKlArgsDeathTest, RejectsANonPositivePriorOrInfiniteScale)
{
    EXPECT_DEATH(k::klArgs(0.0f, 1.0f), "KL prior sigma must be positive");
    EXPECT_DEATH(k::klArgs(-0.3f, 1.0f), "KL prior sigma must be positive");
    EXPECT_DEATH(k::klArgs(std::numeric_limits<float>::quiet_NaN(), 1.0f),
                 "KL prior sigma must be positive");
    EXPECT_DEATH(k::klArgs(0.3f, std::numeric_limits<float>::infinity()),
                 "KL gradient scale must be finite");
}
