/**
 * @file
 * Tests for the conv-on-accelerator lowering, run on one-conv programs
 * from compile(VariationalConv2d): with sigma = 0 the
 * simulator-executed conv layer must be bit-exact against a host
 * fixed-point reference built from the same DatapathKernel; the ReLU
 * clamp identity must hold on real data; the cycle accounting must
 * match the analytic model; and the sampled path must be an unbiased
 * spread around the deterministic output.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accel/config.hh"
#include "accel/design_space.hh"
#include "accel/program.hh"
#include "accel/simulator.hh"
#include "bnn/variational_conv.hh"
#include "common/rng.hh"
#include "grng/registry.hh"
#include "nn/conv.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

nn::ConvSpec
smallSpec()
{
    nn::ConvSpec s;
    s.inChannels = 1;
    s.inHeight = 6;
    s.inWidth = 6;
    s.outChannels = 2;
    s.kernel = 3;
    s.stride = 1;
    s.pad = 1;
    return s;
}

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.bits = 8;
    config.mcSamples = 1;
    return config;
}

/** Freeze the posterior at its mean: quantized sigma becomes 0. */
void
freezeSigma(bnn::VariationalConv2d &layer)
{
    layer.rhoWeight().fill(-20.0f);
    std::fill(layer.rhoBias().begin(), layer.rhoBias().end(), -20.0f);
}

/**
 * Host fixed-point reference: im2col, quantize patches on the
 * activation grid, accumulate mu_raw * x_raw, finish via the
 * DatapathKernel's hidden-layer path (bias + ReLU + requantize).
 */
std::vector<std::int64_t>
referenceFixedConv(const bnn::VariationalConv2d &layer,
                   const AcceleratorConfig &config, const float *x,
                   bool relu)
{
    const auto &spec = layer.spec();
    const auto program = compile(layer, config, relu);
    const DatapathKernel kernel(program.activationFormat,
                                program.weightFormat, program.epsFormat);
    const auto &ql = program.ops.front().bank;

    nn::Matrix patches;
    nn::im2col(spec, x, patches);
    const std::size_t positions = spec.positions();
    const std::size_t patch = spec.patchSize();

    std::vector<std::int64_t> out(spec.outputSize());
    for (std::size_t p = 0; p < positions; ++p) {
        std::vector<std::int64_t> xq(patch);
        for (std::size_t k = 0; k < patch; ++k) {
            xq[k] =
                program.activationFormat.fromReal(patches.at(p, k));
        }
        for (std::size_t oc = 0; oc < spec.outChannels; ++oc) {
            std::int64_t acc = 0;
            for (std::size_t k = 0; k < patch; ++k)
                acc += static_cast<std::int64_t>(
                           ql.muWeight[oc * patch + k]) *
                    xq[k];
            const std::int64_t bias = ql.muBias[oc];
            out[oc * positions + p] =
                relu ? kernel.finishNeuron(acc, bias)
                     : kernel.finishOutputNeuron(acc, bias);
        }
    }
    return out;
}

/** Real-valued view of a pass's raw activation-grid outputs. */
std::vector<float>
toReal(const QuantizedProgram &program,
       const std::vector<std::int64_t> &raw)
{
    std::vector<float> real(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        real[i] =
            static_cast<float>(program.activationFormat.toReal(raw[i]));
    }
    return real;
}

std::vector<float>
randomImage(const nn::ConvSpec &spec, Rng &rng)
{
    std::vector<float> x(spec.inputSize());
    for (auto &v : x)
        v = static_cast<float>(rng.uniform(0, 1));
    return x;
}

} // namespace

TEST(ConvLowering, SigmaZeroIsBitExactAgainstHostReference)
{
    const auto spec = smallSpec();
    const auto config = smallConfig();
    Rng rng(3);
    bnn::VariationalConv2d layer(spec, rng);
    freezeSigma(layer);
    // Inject a negative bias so some accumulators go negative and the
    // ReLU path is genuinely exercised.
    layer.muBias()[0] = -0.5f;

    auto gen = grng::makeGenerator("rlf", 7);
    Simulator runner(compile(layer, config, /*relu=*/true), config,
                     gen.get());

    Rng data(11);
    for (int trial = 0; trial < 4; ++trial) {
        const auto x = randomImage(spec, data);
        const auto hw = runner.runPass(x.data());
        const auto ref = referenceFixedConv(layer, config, x.data(),
                                            /*relu=*/true);
        ASSERT_EQ(hw.size(), ref.size());
        for (std::size_t i = 0; i < hw.size(); ++i)
            EXPECT_EQ(hw[i], ref[i]) << "trial " << trial << " at "
                                     << i;
    }
}

TEST(ConvLowering, NoReluPathMatchesOutputFinish)
{
    const auto spec = smallSpec();
    const auto config = smallConfig();
    Rng rng(13);
    bnn::VariationalConv2d layer(spec, rng);
    freezeSigma(layer);
    layer.muBias()[1] = -0.8f; // force negative outputs through

    auto gen = grng::makeGenerator("rlf", 17);
    Simulator runner(compile(layer, config, /*relu=*/false), config,
                     gen.get());

    Rng data(19);
    const auto x = randomImage(spec, data);
    const auto hw = runner.runPass(x.data());
    const auto ref =
        referenceFixedConv(layer, config, x.data(), /*relu=*/false);
    bool saw_negative = false;
    for (std::size_t i = 0; i < hw.size(); ++i) {
        EXPECT_EQ(hw[i], ref[i]);
        saw_negative = saw_negative || hw[i] < 0;
    }
    EXPECT_TRUE(saw_negative) << "test did not exercise negatives";
}

TEST(ConvLowering, ReluClampEqualsFinishNeuron)
{
    // The identity the runner relies on:
    // max(0, finishOutputNeuron(acc, b)) == finishNeuron(acc, b).
    const auto config = smallConfig();
    const DatapathKernel kernel(config.activationFormat(),
                                config.weightFormat(), config.epsFormat());
    Rng probe(29);
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t acc = probe.uniformInt(-30000, 30000);
        const std::int64_t bias = probe.uniformInt(-128, 127);
        std::int64_t clamped = kernel.finishOutputNeuron(acc, bias);
        if (clamped < 0)
            clamped = 0;
        EXPECT_EQ(clamped, kernel.finishNeuron(acc, bias))
            << "acc=" << acc << " bias=" << bias;
    }
}

TEST(ConvLowering, CycleAccountingMatchesAnalyticModel)
{
    const auto spec = smallSpec();
    const auto config = smallConfig();
    Rng rng(31);
    bnn::VariationalConv2d layer(spec, rng);

    const auto program = compile(layer, config, /*relu=*/true);
    auto gen = grng::makeGenerator("rlf", 37);
    Simulator runner(program, config, gen.get());

    Rng data(41);
    const auto x = randomImage(spec, data);
    const std::uint64_t per_pass = predictProgramCycles(program, config);
    runner.runPass(x.data());
    EXPECT_EQ(runner.stats().totalCycles, per_pass);
    runner.runPass(x.data());
    EXPECT_EQ(runner.stats().totalCycles, 2 * per_pass);
}

TEST(ConvLowering, SampledPassesSpreadAroundMean)
{
    const auto spec = smallSpec();
    const auto config = smallConfig();
    Rng rng(43);
    bnn::VariationalConv2d layer(spec, rng, /*rho_init=*/-2.0f);

    // Deterministic reference: the same layer with sigma frozen out.
    Rng rng2(43); // same init stream => same mu
    bnn::VariationalConv2d frozen(spec, rng2, -2.0f);
    freezeSigma(frozen);

    const auto sampled_program = compile(layer, config, /*relu=*/true);
    const auto mean_program = compile(frozen, config, /*relu=*/true);
    auto gen = grng::makeGenerator("rlf", 47);
    Simulator sampled(sampled_program, config, gen.get());
    auto gen2 = grng::makeGenerator("rlf", 47);
    Simulator mean_runner(mean_program, config, gen2.get());

    Rng data(53);
    const auto x = randomImage(spec, data);
    const auto mean_out =
        toReal(mean_program, mean_runner.runPass(x.data()));

    const int reps = 60;
    std::vector<double> sum(mean_out.size(), 0.0);
    std::vector<double> sum2(mean_out.size(), 0.0);
    for (int r = 0; r < reps; ++r) {
        const auto out =
            toReal(sampled_program, sampled.runPass(x.data()));
        for (std::size_t i = 0; i < out.size(); ++i) {
            sum[i] += out[i];
            sum2[i] += static_cast<double>(out[i]) * out[i];
        }
    }

    double total_var = 0.0;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < mean_out.size(); ++i) {
        const double m = sum[i] / reps;
        total_var += sum2[i] / reps - m * m;
        // ReLU clips the lower tail, so only clearly-positive outputs
        // have a symmetric spread worth asserting on.
        if (mean_out[i] > 0.5f) {
            EXPECT_NEAR(m, mean_out[i], 0.35) << "at " << i;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u) << "no strongly-positive outputs to check";
    EXPECT_GT(total_var, 0.0); // the GRNG is actually sampling
}

TEST(ConvLowering, OutputLayoutIsChw)
{
    // A 1x1 kernel with identity-ish filters makes the CHW layout
    // directly observable: channel c of the output equals the input
    // scaled by filter weight c.
    nn::ConvSpec spec;
    spec.inChannels = 1;
    spec.inHeight = 3;
    spec.inWidth = 3;
    spec.outChannels = 2;
    spec.kernel = 1;

    AcceleratorConfig config = smallConfig();
    config.peSets = 1; // patchSize = 1 -> only one chunk to drain
    Rng rng(59);
    bnn::VariationalConv2d layer(spec, rng);
    freezeSigma(layer);
    layer.muWeight().at(0, 0) = 1.0f;  // channel 0: identity
    layer.muWeight().at(1, 0) = 0.5f;  // channel 1: halved
    layer.muBias()[0] = 0.0f;
    layer.muBias()[1] = 0.0f;

    const auto program = compile(layer, config, /*relu=*/true);
    auto gen = grng::makeGenerator("rlf", 61);
    Simulator runner(program, config, gen.get());

    std::vector<float> x = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f,
                            0.6f, 0.7f, 0.8f, 0.9f};
    const auto out = toReal(program, runner.runPass(x.data()));
    ASSERT_EQ(out.size(), 18u);
    for (std::size_t p = 0; p < 9; ++p) {
        EXPECT_NEAR(out[p], x[p], 0.05) << "ch0 at " << p;
        EXPECT_NEAR(out[9 + p], 0.5f * x[p], 0.05) << "ch1 at " << p;
    }
}
