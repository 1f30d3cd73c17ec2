/**
 * @file
 * Tests for model serialization: bit-exact round trips for the three
 * written file kinds (MLP, ConvNet, compiled program), prediction
 * equivalence after reload, legacy flat-network images (file kind 2,
 * no longer written) loading as the program compile() emits, and
 * failure injection — truncation, bit corruption, wrong magic, and
 * cross-kind loads must all be rejected (never reach the accelerator).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "accel/config.hh"
#include "accel/functional.hh"
#include "accel/program.hh"
#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/rng.hh"
#include "core/model_io.hh"
#include "grng/registry.hh"

using namespace vibnn;
using namespace vibnn::core;

namespace
{

/** Temp path helper; files are removed by each test. */
std::string
tempPath(const char *name)
{
    return std::string("/tmp/vibnn_model_io_") + name + ".bin";
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bnn::BayesianMlp
makeMlp()
{
    Rng rng(5);
    return bnn::BayesianMlp({12, 8, 4}, rng);
}

void
putLe(std::vector<char> &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

/**
 * A legacy flat-network image (file kind 2) of the program's dense
 * banks, written from the file layout alone so the test does not
 * depend on any library writer: magic "VIBNNMDL", version 1, kind 2,
 * six format words (total/frac bits of the activation, weight and eps
 * grids), the layer count, then per layer in, out and the mu/sigma
 * weight and bias planes (each a u64 count plus int32 values), and an
 * FNV-1a trailer over everything after the magic. Little-endian.
 */
std::vector<char>
legacyNetworkImage(const accel::QuantizedProgram &program)
{
    std::vector<char> image{'V', 'I', 'B', 'N', 'N', 'M', 'D', 'L'};
    const auto u32 = [&](std::uint32_t v) { putLe(image, v, 4); };
    const auto u64 = [&](std::uint64_t v) { putLe(image, v, 8); };
    const auto plane = [&](const std::vector<std::int32_t> &values) {
        u64(values.size());
        for (const std::int32_t v : values)
            u32(static_cast<std::uint32_t>(v));
    };
    u32(1); // format version
    u32(2); // kind: flat network
    for (const auto &fmt : {program.activationFormat, program.weightFormat,
                            program.epsFormat}) {
        u32(static_cast<std::uint32_t>(fmt.totalBits()));
        u32(static_cast<std::uint32_t>(fmt.fracBits()));
    }
    std::vector<const accel::QuantizedLayer *> layers;
    for (const auto &op : program.ops) {
        if (op.kind == accel::OpKind::Dense)
            layers.push_back(&op.bank);
    }
    u64(layers.size());
    for (const auto *layer : layers) {
        u64(layer->inDim);
        u64(layer->outDim);
        plane(layer->muWeight);
        plane(layer->sigmaWeight);
        plane(layer->muBias);
        plane(layer->sigmaBias);
    }
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (std::size_t i = 8; i < image.size(); ++i) {
        hash = (hash ^ static_cast<std::uint8_t>(image[i])) *
            0x100000001B3ULL;
    }
    putLe(image, hash, 8);
    return image;
}

} // namespace

TEST(ModelIo, MlpRoundTripIsBitExact)
{
    const auto path = tempPath("mlp_rt");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));

    auto loaded = loadBayesianMlp(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->layerSizes(), net.layerSizes());

    std::vector<float> a, b;
    net.gatherParams(a);
    loaded->gatherParams(b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "param " << i; // bit-exact
    std::remove(path.c_str());
}

TEST(ModelIo, MlpPredictionsSurviveReload)
{
    const auto path = tempPath("mlp_pred");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto loaded = loadBayesianMlp(path);
    ASSERT_NE(loaded, nullptr);

    Rng data(7);
    std::vector<float> x(net.inputDim());
    for (auto &v : x)
        v = static_cast<float>(data.uniform(-1, 1));
    std::vector<float> la(net.outputDim()), lb(net.outputDim());
    net.meanForward(x.data(), la.data());
    loaded->meanForward(x.data(), lb.data());
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_EQ(la[i], lb[i]);
    std::remove(path.c_str());
}

TEST(ModelIo, ConvNetRoundTripIsBitExact)
{
    const auto path = tempPath("bcnn_rt");
    nn::ConvNetConfig cfg;
    cfg.imageHeight = 8;
    cfg.imageWidth = 8;
    cfg.blocks = {{4, 3, 1, 1, true, 2}, {6, 3, 1, 1, false, 2}};
    cfg.denseHidden = {16, 8};
    cfg.numClasses = 3;
    Rng rng(9);
    bnn::BayesianConvNet net(cfg, rng);
    ASSERT_TRUE(saveBayesianConvNet(net, path));

    auto loaded = loadBayesianConvNet(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->config().blocks.size(), cfg.blocks.size());
    EXPECT_EQ(loaded->config().denseHidden, cfg.denseHidden);
    EXPECT_EQ(loaded->paramCount(), net.paramCount());

    std::vector<float> a, b;
    net.gatherParams(a);
    loaded->gatherParams(b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);

    // Mean predictions identical.
    Rng data(11);
    std::vector<float> x(net.inputDim());
    for (auto &v : x)
        v = static_cast<float>(data.uniform(0, 1));
    auto wa = net.makeWorkspace();
    auto wb = loaded->makeWorkspace();
    std::vector<float> la(net.outputDim()), lb(net.outputDim());
    net.meanForward(x.data(), la.data(), wa);
    loaded->meanForward(x.data(), lb.data(), wb);
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_EQ(la[i], lb[i]);
    std::remove(path.c_str());
}

TEST(ModelIo, LegacyNetworkImageLoadsAsCompiledProgram)
{
    // Older releases wrote quantized MLPs as flat-network images; the
    // program loader lifts them into exactly what compile() emits.
    const auto path = tempPath("legacy_net");
    auto net = makeMlp();
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = accel::compile(net, config);
    auto bytes = legacyNetworkImage(program);
    spit(path, bytes);

    auto loaded = loadQuantizedProgram(path);
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->ops.size(), program.ops.size());
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const auto &a = program.ops[i];
        const auto &b = loaded->ops[i];
        EXPECT_EQ(a.kind, b.kind) << "op " << i;
        EXPECT_EQ(a.label, b.label) << "op " << i;
        EXPECT_EQ(a.inSize, b.inSize) << "op " << i;
        EXPECT_EQ(a.outSize, b.outSize) << "op " << i;
        EXPECT_EQ(a.relu, b.relu) << "op " << i;
        EXPECT_EQ(a.bank.inDim, b.bank.inDim) << "op " << i;
        EXPECT_EQ(a.bank.outDim, b.bank.outDim) << "op " << i;
        EXPECT_EQ(a.bank.muWeight, b.bank.muWeight) << "op " << i;
        EXPECT_EQ(a.bank.sigmaWeight, b.bank.sigmaWeight) << "op " << i;
        EXPECT_EQ(a.bank.muBias, b.bank.muBias) << "op " << i;
        EXPECT_EQ(a.bank.sigmaBias, b.bank.sigmaBias) << "op " << i;
    }
    EXPECT_EQ(loaded->activationFormat, program.activationFormat);
    EXPECT_EQ(loaded->weightFormat, program.weightFormat);
    EXPECT_EQ(loaded->epsFormat, program.epsFormat);

    // The lifted program runs bit-identically to the compiled one.
    auto gen_a = grng::makeGenerator("rlf", 23);
    auto gen_b = grng::makeGenerator("rlf", 23);
    accel::FunctionalRunner run_a(program, config, gen_a.get());
    accel::FunctionalRunner run_b(*loaded, config, gen_b.get());
    Rng data(29);
    std::vector<float> x(program.inputDim());
    for (auto &v : x)
        v = static_cast<float>(data.uniform(0, 1));
    for (int pass = 0; pass < 3; ++pass)
        EXPECT_EQ(run_a.runPass(x.data()), run_b.runPass(x.data()))
            << "pass " << pass;

    // The checksum still guards a legacy payload, and structural
    // rejections (no layers, a plane that does not match its layer's
    // dims) return nullptr too.
    bytes[bytes.size() / 2] ^= 0x40;
    spit(path, bytes);
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);
    spit(path, legacyNetworkImage(accel::QuantizedProgram{}));
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);
    auto short_plane = program;
    short_plane.ops[0].bank.muBias.pop_back();
    spit(path, legacyNetworkImage(short_plane));
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, QuantizedProgramRoundTripIsBitExact)
{
    // A compiled CNN program — the richest op mix (ConvLowered, Pool,
    // Flatten, Dense, Output) — must survive the cache file bit-exactly
    // so cached programs replace recompilation.
    const auto path = tempPath("prog_rt");
    nn::ConvNetConfig cfg;
    cfg.imageHeight = 8;
    cfg.imageWidth = 8;
    cfg.blocks = {{4, 3, 1, 1, true, 2}};
    cfg.denseHidden = {16};
    cfg.numClasses = 3;
    Rng rng(13);
    bnn::BayesianConvNet net(cfg, rng);
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = accel::compile(net, config);
    ASSERT_TRUE(saveQuantizedProgram(program, path));

    auto loaded = loadQuantizedProgram(path);
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->ops.size(), program.ops.size());
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const auto &a = program.ops[i];
        const auto &b = loaded->ops[i];
        EXPECT_EQ(a.kind, b.kind) << "op " << i;
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.inSize, b.inSize);
        EXPECT_EQ(a.outSize, b.outSize);
        EXPECT_EQ(a.relu, b.relu);
        EXPECT_EQ(a.bank.inDim, b.bank.inDim);
        EXPECT_EQ(a.bank.outDim, b.bank.outDim);
        EXPECT_EQ(a.bank.muWeight, b.bank.muWeight);
        EXPECT_EQ(a.bank.sigmaWeight, b.bank.sigmaWeight);
        EXPECT_EQ(a.bank.muBias, b.bank.muBias);
        EXPECT_EQ(a.bank.sigmaBias, b.bank.sigmaBias);
        EXPECT_EQ(a.conv.outChannels, b.conv.outChannels);
        EXPECT_EQ(a.conv.kernel, b.conv.kernel);
        EXPECT_EQ(a.pool.window, b.pool.window);
    }
    EXPECT_EQ(loaded->activationFormat, program.activationFormat);
    EXPECT_EQ(loaded->weightFormat, program.weightFormat);
    EXPECT_EQ(loaded->epsFormat, program.epsFormat);

    // Executing the reloaded program with the same eps stream must be
    // bit-identical to the original — the cache is a real substitute.
    auto gen_a = grng::makeGenerator("rlf", 17);
    auto gen_b = grng::makeGenerator("rlf", 17);
    accel::FunctionalRunner run_a(program, config, gen_a.get());
    accel::FunctionalRunner run_b(*loaded, config, gen_b.get());
    Rng data(19);
    std::vector<float> x(program.inputDim());
    for (auto &v : x)
        v = static_cast<float>(data.uniform(0, 1));
    EXPECT_EQ(run_a.runPass(x.data()), run_b.runPass(x.data()));
    std::remove(path.c_str());
}

TEST(ModelIo, QuantizedProgramCorruptionAndCrossKindRejected)
{
    const auto path = tempPath("prog_bad");
    auto net = makeMlp();
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    const auto program = accel::compile(net, config);
    ASSERT_TRUE(saveQuantizedProgram(program, path));

    // A program image is not an MLP image and vice versa.
    EXPECT_EQ(loadBayesianMlp(path), nullptr);
    auto bytes = slurp(path);
    ASSERT_TRUE(saveBayesianMlp(net, path));
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);

    // Checksum still guards the payload.
    bytes[bytes.size() / 2] ^= 0x40;
    spit(path, bytes);
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, MissingFileReturnsNull)
{
    EXPECT_EQ(loadBayesianMlp("/tmp/vibnn_does_not_exist.bin"), nullptr);
}

TEST(ModelIo, TruncatedFileRejected)
{
    const auto path = tempPath("trunc");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto bytes = slurp(path);
    // Chop the file at several points; every prefix must be rejected.
    for (std::size_t keep :
         {std::size_t(4), std::size_t(12), bytes.size() / 2,
          bytes.size() - 1}) {
        std::vector<char> cut(bytes.begin(),
                              bytes.begin() +
                                  static_cast<std::ptrdiff_t>(keep));
        spit(path, cut);
        EXPECT_EQ(loadBayesianMlp(path), nullptr) << "kept " << keep;
    }
    std::remove(path.c_str());
}

TEST(ModelIo, BitCorruptionRejectedByChecksum)
{
    const auto path = tempPath("corrupt");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto bytes = slurp(path);
    // Flip one bit in the middle of the parameter payload.
    bytes[bytes.size() / 2] ^= 0x10;
    spit(path, bytes);
    EXPECT_EQ(loadBayesianMlp(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, WrongMagicRejected)
{
    const auto path = tempPath("magic");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto bytes = slurp(path);
    bytes[0] = 'X';
    spit(path, bytes);
    EXPECT_EQ(loadBayesianMlp(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, CrossKindLoadRejected)
{
    const auto path = tempPath("kind");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    // An MLP image is not a ConvNet image nor a quantized image.
    EXPECT_EQ(loadBayesianConvNet(path), nullptr);
    EXPECT_EQ(loadQuantizedProgram(path), nullptr);
    std::remove(path.c_str());
}

TEST(ModelIo, TrailerCorruptionRejected)
{
    const auto path = tempPath("trailer");
    auto net = makeMlp();
    ASSERT_TRUE(saveBayesianMlp(net, path));
    auto bytes = slurp(path);
    bytes.back() ^= 0x01; // flip a checksum bit
    spit(path, bytes);
    EXPECT_EQ(loadBayesianMlp(path), nullptr);
    std::remove(path.c_str());
}
