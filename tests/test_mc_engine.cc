/**
 * @file
 * Tests for the parallel Monte-Carlo inference engine: bit-exact
 * reproduction of its seed schedule on a serial simulator, bit-identical
 * results across thread counts, aggregate counter identities against
 * serial Simulator::classify, and exact agreement with the serial path
 * when sigma = 0 (where MC sampling is a no-op).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/mc_engine.hh"
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

AcceleratorConfig
smallConfig(int mc_samples)
{
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = mc_samples;
    return config;
}

std::vector<float>
makeInput(std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> x(dim);
    for (auto &v : x)
        v = static_cast<float>(rng.uniform());
    return x;
}

} // anonymous namespace

TEST(McEngineDeathTest, BackendFixesTheSchedule)
{
    // Rounds are the batched runner's alone: a per-pass backend cannot
    // run them, and the batched backend runs nothing else.
    auto net = makeNet({32, 16, 4}, 3);
    const auto config = smallConfig(2);
    const auto program = compile(net, config);

    McEngineConfig rounds_on_functional;
    rounds_on_functional.backendId = "functional";
    rounds_on_functional.schedule = McSchedule::PerRound;
    EXPECT_DEATH(McEngine engine(program, config, rounds_on_functional),
                 "backend 'functional' runs per-unit");

    McEngineConfig units_on_batched;
    units_on_batched.backendId = "batched";
    units_on_batched.schedule = McSchedule::PerUnit;
    EXPECT_DEATH(McEngine engine(program, config, units_on_batched),
                 "backend 'batched' runs per-round");
}

TEST(McEngineDeathTest, UnknownIdsDieAtConstruction)
{
    // Both ids are checked before the first classify, with the
    // registries' own messages.
    auto net = makeNet({32, 16, 4}, 3);
    const auto config = smallConfig(2);
    const auto program = compile(net, config);

    McEngineConfig bad_backend;
    bad_backend.backendId = "nope";
    EXPECT_DEATH(McEngine engine(program, config, bad_backend),
                 "unknown executor id 'nope'.*registered: ");

    McEngineConfig bad_generator;
    bad_generator.generatorId = "nope";
    EXPECT_DEATH(McEngine engine(program, config, bad_generator),
                 "unknown generator id 'nope'.*registered: ");
}

TEST(McEngine, MatchesSerialSeedScheduleEmulation)
{
    // Every (image, sample) unit runs with the stream seeded by
    // streamSeed(); replaying that schedule on one serial Simulator
    // must reproduce the engine's per-sample distributions bit for
    // bit — the "parallel classify matches serial classify" contract.
    auto net = makeNet({32, 16, 4}, 3);
    const auto config = smallConfig(6);
    const auto program = compile(net, config);
    const std::size_t out_dim = program.outputDim();
    const auto x = makeInput(32, 11);

    McEngineConfig mc;
    mc.threads = 3;
    mc.generatorId = "rlf";
    mc.seedBase = 77;
    McEngine engine(program, config, mc);
    const auto parallel = engine.classifyBatchDetailed(x.data(), 1, 32);
    ASSERT_EQ(parallel.sampleProbs.size(), 6u * out_dim);

    auto placeholder = grng::makeGenerator("rlf", 1);
    Simulator sim(program, config, placeholder.get());
    std::vector<float> want(out_dim);
    for (int s = 0; s < config.mcSamples; ++s) {
        auto gen = grng::makeGenerator(
            "rlf", McEngine::streamSeed(77, 0,
                                        static_cast<std::uint64_t>(s)));
        sim.setGenerator(gen.get());
        sampleSoftmax(program, sim.runPass(x.data()).data(), want.data());
        const auto row = parallel.sampleProbs.begin() + s * out_dim;
        EXPECT_EQ(want, std::vector<float>(row, row + out_dim))
            << "sample " << s;
        sim.setGenerator(placeholder.get());
    }
}

TEST(McEngine, BitIdenticalAcrossThreadCounts)
{
    auto net = makeNet({32, 16, 4}, 5);
    const auto config = smallConfig(8);
    const auto program = compile(net, config);
    const auto x = makeInput(32, 13);

    McEngineConfig mc;
    mc.generatorId = "bnnwallace";
    mc.seedBase = 123;

    McBatchResult results[3];
    const std::size_t thread_counts[3] = {1, 2, 5};
    for (int i = 0; i < 3; ++i) {
        auto cfg = mc;
        cfg.threads = thread_counts[i];
        McEngine engine(program, config, cfg);
        results[i] = engine.classifyBatchDetailed(x.data(), 1, 32);
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

TEST(McEngine, BatchBitIdenticalAcrossThreadCounts)
{
    auto net = makeNet({32, 16, 4}, 7);
    const auto config = smallConfig(4);
    const auto program = compile(net, config);

    const std::size_t count = 5, dim = 32;
    std::vector<float> xs(count * dim);
    Rng rng(17);
    for (auto &v : xs)
        v = static_cast<float>(rng.uniform());

    std::vector<std::size_t> preds[2];
    std::vector<float> probs[2];
    const std::size_t thread_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        McEngineConfig mc;
        mc.threads = thread_counts[i];
        mc.seedBase = 9;
        McEngine engine(program, config, mc);
        auto result = engine.classifyBatchDetailed(xs.data(), count, dim,
                                                   false);
        preds[i] = std::move(result.predicted);
        probs[i] = std::move(result.probs);
    }
    EXPECT_EQ(preds[0], preds[1]);
    for (std::size_t i = 0; i < probs[0].size(); ++i)
        EXPECT_EQ(probs[0][i], probs[1][i]) << "prob " << i;
}

TEST(McEngine, BatchImageZeroMatchesSingleClassify)
{
    // Image index 0 of a batch uses the same stream seeds as a
    // single-image batch, so the two must agree exactly.
    auto net = makeNet({32, 16, 4}, 19);
    const auto config = smallConfig(4);
    const auto program = compile(net, config);
    const auto xs = makeInput(3 * 32, 23);

    McEngineConfig mc;
    mc.threads = 2;
    mc.seedBase = 31;
    McEngine engine(program, config, mc);
    const auto single = engine.classifyBatchDetailed(xs.data(), 1, 32);

    McEngine batch_engine(program, config, mc);
    const auto batch = batch_engine.classifyBatchDetailed(xs.data(), 3, 32);
    EXPECT_EQ(batch.predicted.front(), single.predicted.front());
    for (std::size_t i = 0; i < single.probs.size(); ++i)
        EXPECT_EQ(batch.probs[i], single.probs[i]);
}

TEST(McEngine, AggregateCountersMatchSerialClassify)
{
    // grnSamples (eps consumed) and macs are functions of the network
    // geometry and pass count only, so the parallel engine must report
    // exactly what a serial Simulator::classify reports.
    auto net = makeNet({32, 16, 4}, 29);
    const auto config = smallConfig(5);
    const auto program = compile(net, config);
    const auto x = makeInput(32, 37);

    auto gen = grng::makeGenerator("rlf", 41);
    Simulator serial(program, config, gen.get());
    serial.classify(x.data());

    McEngineConfig mc;
    mc.threads = 3;
    mc.seedBase = 43;
    McEngine engine(program, config, mc);
    engine.classifyBatchDetailed(x.data(), 1, 32);
    const CycleStats merged = engine.stats();

    EXPECT_EQ(merged.grnSamples, serial.stats().grnSamples);
    EXPECT_EQ(merged.macs, serial.stats().macs);
    EXPECT_EQ(merged.images, serial.stats().images);
    EXPECT_EQ(merged.totalCycles, serial.stats().totalCycles);
    EXPECT_EQ(merged.ifmemReads, serial.stats().ifmemReads);
    EXPECT_EQ(merged.wpmemReads, serial.stats().wpmemReads);
}

TEST(McEngine, SigmaZeroMatchesSerialClassifyExactly)
{
    // With sigma = 0 the eps stream is irrelevant, so the parallel
    // engine and the serial simulator must produce identical
    // probabilities — seed schedules and all.
    auto net = makeNet({16, 8, 3}, 47);
    for (auto &layer : net.layers()) {
        for (auto &rho : layer.rhoWeight().data())
            rho = -40.0f;
        for (auto &rho : layer.rhoBias())
            rho = -40.0f;
    }
    AcceleratorConfig config;
    config.peSets = 1;
    config.pesPerSet = 4;
    config.mcSamples = 3;
    const auto program = compile(net, config);
    const auto x = makeInput(16, 53);

    auto gen = grng::makeGenerator("rlf", 59);
    Simulator serial(program, config, gen.get());
    std::vector<float> serial_probs(3);
    const std::size_t serial_pred =
        serial.classify(x.data(), serial_probs.data());

    McEngineConfig mc;
    mc.threads = 2;
    mc.seedBase = 61;
    McEngine engine(program, config, mc);
    const auto engine_result = engine.classifyBatchDetailed(x.data(), 1, 16);

    // One reduction on both sides: identical per-pass softmaxes summed
    // in the same order give identical bits.
    EXPECT_EQ(engine_result.predicted.front(), serial_pred);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(engine_result.probs[i], serial_probs[i]);
}

TEST(McEngine, ProbabilitiesNearSerialClassify)
{
    // Different eps streams, same distribution: with enough MC samples
    // the averaged probabilities of the parallel engine and the serial
    // simulator converge. Loose bound — this guards against gross
    // stream-handling bugs (reused or skipped samples), not MC noise.
    auto net = makeNet({32, 16, 4}, 67);
    const auto config = smallConfig(32);
    const auto program = compile(net, config);
    const auto x = makeInput(32, 71);

    auto gen = grng::makeGenerator("rlf", 73);
    Simulator serial(program, config, gen.get());
    std::vector<float> serial_probs(4);
    serial.classify(x.data(), serial_probs.data());

    McEngineConfig mc;
    mc.threads = 2;
    mc.seedBase = 79;
    McEngine engine(program, config, mc);
    const auto engine_probs =
        engine.classifyBatchDetailed(x.data(), 1, 32).probs;

    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(engine_probs[i], serial_probs[i], 0.2f) << "class "
                                                            << i;
}

TEST(McEngine, RepeatedRunsAreDeterministic)
{
    auto net = makeNet({32, 16, 4}, 83);
    const auto config = smallConfig(4);
    const auto program = compile(net, config);
    const auto x = makeInput(32, 89);

    McEngineConfig mc;
    mc.threads = 0; // size from the global pool
    mc.seedBase = 97;
    McEngine engine(program, config, mc);
    const auto a = engine.classifyBatchDetailed(x.data(), 1, 32);
    const auto b = engine.classifyBatchDetailed(x.data(), 1, 32);
    EXPECT_EQ(a.predicted, b.predicted);
    ASSERT_EQ(a.sampleProbs.size(), 4u * program.outputDim());
    EXPECT_EQ(a.sampleProbs, b.sampleProbs);
    for (std::size_t i = 0; i < a.probs.size(); ++i)
        EXPECT_EQ(a.probs[i], b.probs[i]);
}

TEST(McEngine, StreamSeedsAreDistinct)
{
    // Unit coordinates must map to distinct stream seeds (collisions
    // would correlate MC samples).
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t image = 0; image < 64; ++image)
        for (std::uint64_t sample = 0; sample < 64; ++sample)
            seeds.push_back(McEngine::streamSeed(5, image, sample));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}
