/**
 * @file
 * Tests for the executor backend layer: the registry, bit-exact
 * delegation of the fidelity backends through the Executor seam, exact
 * agreement of the batched weight-reuse path with the fidelity
 * path when sigma = 0 (where weight reuse is a no-op) on both MLP and
 * CNN programs, statistical equivalence of the two paths at matched T
 * on synth-MNIST, and bit-identical round-scheduling results across
 * thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "accel/batched_runner.hh"
#include "accel/executor.hh"
#include "accel/functional.hh"
#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "accel/simulator.hh"
#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/fault.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "data/synth_mnist.hh"
#include "grng/registry.hh"
#include "nn/activations.hh"
#include "stats/sequential_test.hh"

using namespace vibnn;
using namespace vibnn::accel;

namespace
{

AcceleratorConfig
smallConfig(int mc_samples = 1)
{
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = mc_samples;
    return config;
}

QuantizedProgram
mlpProgram(const AcceleratorConfig &config, std::uint64_t seed,
           float rho_init = -5.0f)
{
    Rng rng(seed);
    bnn::BayesianMlp net({24, 16, 4}, rng, rho_init);
    return compile(net, config);
}

/** conv-pool-dense topology on 1x8x8 inputs. */
QuantizedProgram
cnnProgram(const AcceleratorConfig &config, std::uint64_t seed,
           float rho_init = -2.0f)
{
    nn::ConvNetConfig cfg;
    cfg.inChannels = 1;
    cfg.imageHeight = 8;
    cfg.imageWidth = 8;
    cfg.blocks = {{/*outChannels=*/3, /*kernel=*/3, /*stride=*/1,
                   /*pad=*/1, /*pool=*/true, /*poolWindow=*/2}};
    cfg.denseHidden = {12};
    cfg.numClasses = 4;
    Rng rng(seed);
    bnn::BayesianConvNet net(cfg, rng, rho_init);
    return compile(net, config);
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

/** A registry generator behind a wrapper that counts the calls that
 *  produce samples, so a test can see whether a round drew at all. */
class CountingGenerator : public grng::GaussianGenerator
{
  public:
    CountingGenerator(const std::string &id, std::uint64_t seed)
        : inner_(grng::makeGenerator(id, seed))
    {
    }

    double
    next() override
    {
        ++draws;
        return inner_->next();
    }
    void
    fill(double *out, std::size_t n) override
    {
        ++draws;
        inner_->fill(out, n);
    }
    using GaussianGenerator::fill;
    bool
    fillFixed(std::int32_t *out, std::size_t n,
              const fixed::FixedPointFormat &format) override
    {
        ++draws;
        return inner_->fillFixed(out, n, format);
    }
    std::string
    freshStreamKey() const override
    {
        return inner_->freshStreamKey();
    }
    std::string name() const override { return inner_->name(); }

    std::size_t draws = 0;

  private:
    std::unique_ptr<grng::GaussianGenerator> inner_;
};

/** One round on `runner` off a fresh CountingGenerator(id, seed):
 *  through runRoundBatchGather when `indices` is non-empty. Returns the
 *  raw outputs; `draws` receives the generator's draw count. */
std::vector<std::int64_t>
freshRound(BatchedRunner &runner, const std::string &id,
           std::uint64_t seed, const std::vector<float> &xs,
           std::size_t count, const std::vector<std::uint32_t> &indices,
           std::size_t *draws = nullptr)
{
    const std::size_t dim = runner.program().inputDim();
    CountingGenerator gen(id, seed);
    runner.setGenerator(&gen);
    const std::size_t images = indices.empty() ? count : indices.size();
    std::vector<std::int64_t> out(images * runner.program().outputDim());
    if (indices.empty())
        runner.runRoundBatch(xs.data(), count, dim, out.data());
    else
        runner.runRoundBatchGather(xs.data(), dim, indices.data(),
                                   indices.size(), out.data());
    if (draws)
        *draws = gen.draws;
    return out;
}

/** Arms a fault spec for one scope. */
struct ScopedFaults
{
    explicit ScopedFaults(const std::string &spec)
    {
        std::string error;
        armed = fault::armSpec(spec, error);
        EXPECT_TRUE(armed) << error;
    }
    ~ScopedFaults() { fault::disarm(); }
    ScopedFaults(const ScopedFaults &) = delete;
    ScopedFaults &operator=(const ScopedFaults &) = delete;
    bool armed = false;
};

} // anonymous namespace

TEST(ExecutorRegistry, ProvidesAllBackends)
{
    const auto config = smallConfig();
    const auto program = mlpProgram(config, 3);
    const auto ids = registeredExecutorIds();
    ASSERT_EQ(ids.size(), 3u);

    for (const auto &id : ids) {
        auto gen = grng::makeGenerator("rlf", 7);
        auto exec = makeExecutor(id, program, config, gen.get());
        ASSERT_NE(exec, nullptr) << id;
        EXPECT_EQ(exec->program().ops.size(), program.ops.size());
        EXPECT_EQ(exec->config().peSets, config.peSets);
    }
}

TEST(ExecutorRegistryDeathTest, UnknownIdListsTheRegisteredBackends)
{
    const auto config = smallConfig();
    const auto program = mlpProgram(config, 3);
    auto gen = grng::makeGenerator("rlf", 7);
    EXPECT_DEATH((void)makeExecutor("no-such-backend", program, config,
                                    gen.get()),
                 "unknown executor id 'no-such-backend'.*registered: "
                 "simulator, functional, batched");
}

TEST(ExecutorSeam, FidelityBackendsBitExactThroughInterface)
{
    // Running a backend through the Executor base pointer must be
    // bit-identical to driving the concrete class directly — the seam
    // adds no behavior.
    const auto config = smallConfig();
    const auto program = mlpProgram(config, 5);
    const auto x = randomBatch(1, program.inputDim(), 11);

    for (const char *id : {"simulator", "functional"}) {
        auto gen_seam = grng::makeGenerator("rlf", 13);
        auto gen_direct = grng::makeGenerator("rlf", 13);
        auto seam = makeExecutor(id, program, config, gen_seam.get());
        const auto via_seam = seam->runPass(x.data());
        if (std::string(id) == "simulator") {
            Simulator direct(program, config, gen_direct.get());
            EXPECT_EQ(via_seam, direct.runPass(x.data())) << id;
        } else {
            FunctionalRunner direct(program, config, gen_direct.get());
            EXPECT_EQ(via_seam, direct.runPass(x.data())) << id;
        }
    }
}

TEST(ExecutorSeam, SharedClassifyMatchesManualEnsemble)
{
    // Executor::classify is the MC-ensemble reduction every backend
    // inherits — McEngine's: each pass's softmax accumulated in double
    // in sample order by a SequentialPosteriorTest. It must equal that
    // accumulation driven by hand exactly.
    const auto config = smallConfig(5);
    const auto program = mlpProgram(config, 7);
    const auto x = randomBatch(1, program.inputDim(), 17);

    auto gen_a = grng::makeGenerator("rlf", 19);
    auto gen_b = grng::makeGenerator("rlf", 19);
    auto classifier = makeExecutor("functional", program, config,
                                   gen_a.get());
    std::vector<float> probs(program.outputDim());
    const std::size_t predicted = classifier->classify(x.data(),
                                                       probs.data());

    FunctionalRunner manual(program, config, gen_b.get());
    const std::size_t out_dim = program.outputDim();
    stats::SequentialPosteriorTest ensemble(out_dim);
    std::vector<float> logits(out_dim);
    for (int s = 0; s < config.mcSamples; ++s) {
        const auto raw = manual.runPass(x.data());
        for (std::size_t i = 0; i < out_dim; ++i)
            logits[i] = static_cast<float>(
                program.activationFormat.toReal(raw[i]));
        nn::softmax(logits.data(), out_dim);
        ensemble.add(logits.data());
    }
    std::vector<float> mean(out_dim);
    ensemble.mean(mean.data());

    EXPECT_EQ(predicted, ensemble.predicted());
    for (std::size_t i = 0; i < out_dim; ++i)
        EXPECT_EQ(probs[i], mean[i]) << "class " << i;
}

TEST(BatchedRunner, SigmaZeroBitExactWithFunctionalOnMlp)
{
    // With sigma = 0 every posterior draw is the mu network, so weight
    // reuse is a no-op and the batched path must agree bit for bit
    // with the fidelity path.
    const auto config = smallConfig();
    const auto program = mlpProgram(config, 31, /*rho_init=*/-40.0f);
    const std::size_t count = 4, dim = program.inputDim();
    const auto xs = randomBatch(count, dim, 37);

    auto gen_a = grng::makeGenerator("rlf", 41);
    auto gen_b = grng::makeGenerator("rlf", 43); // stream is irrelevant
    BatchedRunner batched(program, config, gen_a.get());
    FunctionalRunner fidelity(program, config, gen_b.get());

    std::vector<std::int64_t> out(count * program.outputDim());
    batched.runRoundBatch(xs.data(), count, dim, out.data());
    for (std::size_t i = 0; i < count; ++i) {
        const auto raw = fidelity.runPass(xs.data() + i * dim);
        for (std::size_t j = 0; j < raw.size(); ++j)
            EXPECT_EQ(out[i * program.outputDim() + j], raw[j])
                << "image " << i << " out " << j;
    }
}

TEST(BatchedRunner, SigmaZeroBitExactWithFunctionalOnCnn)
{
    // Same exactness on a conv-pool-dense program: covers the batched
    // im2col GEMM and pooling paths (weight sharing across positions
    // is also a no-op at sigma = 0).
    const auto config = smallConfig();
    const auto program = cnnProgram(config, 47, /*rho_init=*/-40.0f);
    const std::size_t count = 3, dim = program.inputDim();
    const auto xs = randomBatch(count, dim, 53);

    auto gen_a = grng::makeGenerator("rlf", 59);
    auto gen_b = grng::makeGenerator("rlf", 61);
    BatchedRunner batched(program, config, gen_a.get());
    FunctionalRunner fidelity(program, config, gen_b.get());

    std::vector<std::int64_t> out(count * program.outputDim());
    batched.runRoundBatch(xs.data(), count, dim, out.data());
    for (std::size_t i = 0; i < count; ++i) {
        const auto raw = fidelity.runPass(xs.data() + i * dim);
        for (std::size_t j = 0; j < raw.size(); ++j)
            EXPECT_EQ(out[i * program.outputDim() + j], raw[j])
                << "image " << i << " out " << j;
    }
}

TEST(BatchedRunner, RoundsAreDeterministicAndWeightReuseIsVisible)
{
    const auto config = smallConfig();
    const auto program = cnnProgram(config, 67, /*rho_init=*/-1.0f);
    const std::size_t count = 2, dim = program.inputDim();
    const auto xs = randomBatch(count, dim, 71);
    std::vector<std::int64_t> a(count * program.outputDim());
    std::vector<std::int64_t> b(a.size());

    // Same seed -> bit-identical round.
    {
        auto gen_a = grng::makeGenerator("rlf", 73);
        auto gen_b = grng::makeGenerator("rlf", 73);
        BatchedRunner run_a(program, config, gen_a.get());
        BatchedRunner run_b(program, config, gen_b.get());
        run_a.runRoundBatch(xs.data(), count, dim, a.data());
        run_b.runRoundBatch(xs.data(), count, dim, b.data());
        EXPECT_EQ(a, b);
    }

    // Two identical images inside one round see the SAME weight draw,
    // so their outputs coincide — the reuse the fidelity path never
    // exhibits at nonzero sigma.
    {
        std::vector<float> twice(2 * dim);
        std::copy(xs.begin(), xs.begin() + dim, twice.begin());
        std::copy(xs.begin(), xs.begin() + dim, twice.begin() + dim);
        auto gen = grng::makeGenerator("rlf", 79);
        BatchedRunner runner(program, config, gen.get());
        std::vector<std::int64_t> out(2 * program.outputDim());
        runner.runRoundBatch(twice.data(), 2, dim, out.data());
        for (std::size_t j = 0; j < program.outputDim(); ++j)
            EXPECT_EQ(out[j], out[program.outputDim() + j]);
    }
}

TEST(WeightEnsembleCache, HitMatchesFreshRunnerAndDrawsNothing)
{
    // A round whose fresh stream the runner has seen reads its cached
    // arena: bit-identical to a brand-new runner on the same stream,
    // without a single generator fill — for RLF and Philox, serial and
    // pooled (Philox then shards its miss), whole-batch and gather.
    const auto config = smallConfig();
    const auto program = mlpProgram(config, 151, /*rho_init=*/-2.0f);
    const std::size_t count = 6;
    const auto xs = randomBatch(count, program.inputDim(), 157);
    ThreadPool workers(4);
    for (const std::string id : {"rlf", "philox"}) {
        for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr),
                                 &workers}) {
            for (const auto &indices :
                 {std::vector<std::uint32_t>{},
                  std::vector<std::uint32_t>{4, 0, 5, 2}}) {
                const std::string where = id + (pool ? " pooled" : "") +
                    (indices.empty() ? "" : " gather");
                auto placeholder = grng::makeGenerator(id, 1);
                BatchedRunner warm(program, config, placeholder.get());
                warm.setWorkPool(pool);
                std::size_t miss_draws = 0, hit_draws = 0;
                const auto miss = freshRound(warm, id, 163, xs, count,
                                             indices, &miss_draws);
                const auto hit = freshRound(warm, id, 163, xs, count,
                                            indices, &hit_draws);
                warm.setGenerator(placeholder.get());

                BatchedRunner cold(program, config, placeholder.get());
                cold.setWorkPool(pool);
                const auto want =
                    freshRound(cold, id, 163, xs, count, indices);
                cold.setGenerator(placeholder.get());

                EXPECT_GT(miss_draws, 0u) << where;
                EXPECT_EQ(hit_draws, 0u) << where;
                EXPECT_EQ(miss, want) << where;
                EXPECT_EQ(hit, want) << where;
                // A hit still books the eps the round consumes.
                EXPECT_EQ(warm.stats().grnSamples,
                          2 * cold.stats().grnSamples)
                    << where;
            }
        }
    }
}

TEST(WeightEnsembleCache, RoundAfterHitReadsTheEpsAnUncachedRoundReads)
{
    // A hit books its eps without generating them; the next round on
    // the same generator must still read exactly the eps it reads
    // after an uncached first round. RLF and Philox both catch up by
    // drawing and discarding, with and without a work pool.
    const auto config = smallConfig();
    const auto program = mlpProgram(config, 167, /*rho_init=*/-2.0f);
    const std::size_t count = 5, dim = program.inputDim();
    const std::size_t out_dim = program.outputDim();
    const auto xs = randomBatch(count, dim, 173);
    ThreadPool workers(4);

    auto two_rounds = [&](BatchedRunner &runner, const std::string &id) {
        CountingGenerator gen(id, 179);
        runner.setGenerator(&gen);
        std::vector<std::int64_t> out(2 * count * out_dim);
        runner.runRoundBatch(xs.data(), count, dim, out.data());
        runner.runRoundBatch(xs.data(), count, dim,
                             out.data() + count * out_dim);
        return out;
    };

    for (const std::string id : {"rlf", "philox"}) {
        for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr),
                                 &workers}) {
            auto placeholder = grng::makeGenerator(id, 1);
            BatchedRunner warm(program, config, placeholder.get());
            warm.setWorkPool(pool);
            freshRound(warm, id, 179, xs, count, {}); // fills the cache
            const auto cached = two_rounds(warm, id);  // round 1 hits
            warm.setGenerator(placeholder.get());

            BatchedRunner cold(program, config, placeholder.get());
            cold.setWorkPool(pool);
            const auto want = two_rounds(cold, id);
            cold.setGenerator(placeholder.get());
            EXPECT_EQ(cached, want) << id << (pool ? " pooled" : "");
        }
    }
}

TEST(WeightEnsembleCache, BitFlipsCorruptACopyNotTheCachedDraw)
{
    // With accel.weights.bitflip armed, a miss caches the clean draw
    // before flipping and a hit flips a copy: pass 2 equals pass 1
    // equals a fresh runner, flips never accumulate, and once the site
    // is disarmed a hit serves the clean arena again.
    const auto config = smallConfig();
    const auto program = mlpProgram(config, 181, /*rho_init=*/-2.0f);
    const std::size_t count = 4;
    const auto xs = randomBatch(count, program.inputDim(), 191);
    auto placeholder = grng::makeGenerator("rlf", 1);

    BatchedRunner clean_runner(program, config, placeholder.get());
    const auto clean = freshRound(clean_runner, "rlf", 193, xs, count, {});
    clean_runner.setGenerator(placeholder.get());

    BatchedRunner warm(program, config, placeholder.get());
    {
        ScopedFaults faults("accel.weights.bitflip:p=0.02");
        ASSERT_TRUE(faults.armed);
        const auto pass1 = freshRound(warm, "rlf", 193, xs, count, {});
        std::size_t hit_draws = 0;
        const auto pass2 =
            freshRound(warm, "rlf", 193, xs, count, {}, &hit_draws);
        EXPECT_GT(fault::fires("accel.weights.bitflip"), 0u);
        EXPECT_EQ(hit_draws, 0u);

        BatchedRunner cold(program, config, placeholder.get());
        const auto want = freshRound(cold, "rlf", 193, xs, count, {});
        cold.setGenerator(placeholder.get());
        EXPECT_EQ(pass1, want);
        EXPECT_EQ(pass2, want);
        EXPECT_NE(pass1, clean) << "flips at p=0.02 changed nothing";
    }
    EXPECT_EQ(freshRound(warm, "rlf", 193, xs, count, {}), clean);
    warm.setGenerator(placeholder.get());
}

TEST(WeightEnsembleCache, BudgetBoundsCachedDraws)
{
    // Cached draws reserve their bytes from one process-wide budget:
    // once it is full, a fresh stream regenerates on every round, and
    // destroying a runner returns its share.
    const auto config = smallConfig();
    const auto program = mlpProgram(config, 197, /*rho_init=*/-2.0f);
    const std::size_t count = 3;
    const auto xs = randomBatch(count, program.inputDim(), 199);
    auto placeholder = grng::makeGenerator("rlf", 1);
    std::size_t weights = 0;
    for (const auto &op : program.ops)
        if (op.isCompute())
            weights += op.bank.outDim * op.bank.inDim;

    const std::size_t before = BatchedRunner::drawCacheBytes();
    {
        BatchedRunner runner(program, config, placeholder.get());
        freshRound(runner, "rlf", 211, xs, count, {});
        runner.setGenerator(placeholder.get());
        const std::size_t entry = BatchedRunner::drawCacheBytes() - before;
        // The int32 arena, plus the int16 mirror when any op has one.
        EXPECT_GE(entry, weights * sizeof(std::int32_t));
        EXPECT_LE(entry, weights * (sizeof(std::int32_t) +
                                    sizeof(std::int16_t)));

        // Hold back the rest of the budget: the next fresh stream
        // cannot reserve its entry, so each of its rounds draws.
        const std::size_t rest =
            BatchedRunner::kDrawCacheBudget - BatchedRunner::drawCacheBytes();
        ASSERT_TRUE(BatchedRunner::reserveDrawCache(rest));
        EXPECT_FALSE(BatchedRunner::reserveDrawCache(1));
        std::size_t draws1 = 0, draws2 = 0;
        const auto first =
            freshRound(runner, "rlf", 223, xs, count, {}, &draws1);
        const auto second =
            freshRound(runner, "rlf", 223, xs, count, {}, &draws2);
        runner.setGenerator(placeholder.get());
        EXPECT_GT(draws1, 0u);
        EXPECT_GT(draws2, 0u);
        EXPECT_EQ(first, second);
        EXPECT_EQ(BatchedRunner::drawCacheBytes(),
                  BatchedRunner::kDrawCacheBudget);
        BatchedRunner::releaseDrawCache(rest);
        EXPECT_EQ(BatchedRunner::drawCacheBytes(), before + entry);
    }
    EXPECT_EQ(BatchedRunner::drawCacheBytes(), before);
}

TEST(McEngineRound, MatchesSerialRoundSeedScheduleEmulation)
{
    // PerRound scheduling runs round r with the stream seeded by
    // roundSeed(seedBase, r); replaying that schedule on one serial
    // BatchedRunner must reproduce the engine's per-round outputs bit
    // for bit.
    const auto config = smallConfig(6);
    const auto program = mlpProgram(config, 83);
    const auto x = randomBatch(1, program.inputDim(), 89);

    McEngineConfig mc;
    mc.threads = 3;
    mc.seedBase = 97;
    mc.backendId = "batched";
    mc.schedule = McSchedule::PerRound;
    McEngine engine(program, config, mc);
    const auto parallel =
        engine.classifyBatchDetailed(x.data(), 1, program.inputDim());
    const std::size_t out_dim = program.outputDim();
    ASSERT_EQ(parallel.sampleProbs.size(), 6u * out_dim);

    auto placeholder = grng::makeGenerator("rlf", 1);
    BatchedRunner serial(program, config, placeholder.get());
    std::vector<float> want(out_dim);
    for (int r = 0; r < config.mcSamples; ++r) {
        auto gen = grng::makeGenerator(
            "rlf", McEngine::roundSeed(97,
                                       static_cast<std::uint64_t>(r)));
        serial.setGenerator(gen.get());
        sampleSoftmax(program, serial.runPass(x.data()).data(),
                      want.data());
        const auto row = parallel.sampleProbs.begin() + r * out_dim;
        EXPECT_EQ(want, std::vector<float>(row, row + out_dim))
            << "round " << r;
        serial.setGenerator(placeholder.get());
    }
}

TEST(McEngineRound, BitIdenticalAcrossThreadCounts)
{
    const auto config = smallConfig(8);
    const auto program = mlpProgram(config, 101);
    const std::size_t count = 5, dim = program.inputDim();
    const auto xs = randomBatch(count, dim, 103);

    std::vector<std::size_t> preds[3];
    std::vector<float> probs[3];
    const std::size_t thread_counts[3] = {1, 2, 5};
    for (int i = 0; i < 3; ++i) {
        McEngineConfig mc;
        mc.threads = thread_counts[i];
        mc.seedBase = 107;
        mc.backendId = "batched";
        mc.schedule = McSchedule::PerRound;
        McEngine engine(program, config, mc);
        auto result = engine.classifyBatchDetailed(xs.data(), count, dim,
                                                   false);
        preds[i] = std::move(result.predicted);
        probs[i] = std::move(result.probs);
    }
    for (int i = 1; i < 3; ++i) {
        EXPECT_EQ(preds[i], preds[0]) << "threads="
                                      << thread_counts[i];
        ASSERT_EQ(probs[i].size(), probs[0].size());
        for (std::size_t j = 0; j < probs[0].size(); ++j)
            EXPECT_EQ(probs[i][j], probs[0][j])
                << "threads=" << thread_counts[i] << " prob " << j;
    }

    // Budget 1: the fan-out has one unit, so the engine hands its pool
    // to the runner, which shards the round's images. Each engine
    // classifies twice, a cold draw and then a cache hit.
    const auto config1 = smallConfig(1);
    const auto program1 = mlpProgram(config1, 101, /*rho_init=*/-2.0f);
    for (const std::string id : {"rlf", "philox"}) {
        std::vector<float> want;
        for (const std::size_t threads : thread_counts) {
            McEngineConfig mc;
            mc.threads = threads;
            mc.generatorId = id;
            mc.seedBase = 107;
            mc.backendId = "batched";
            mc.schedule = McSchedule::PerRound;
            McEngine engine(program1, config1, mc);
            for (int call = 0; call < 2; ++call) {
                const auto result = engine.classifyBatchDetailed(
                    xs.data(), count, dim, false);
                if (want.empty())
                    want = result.probs;
                EXPECT_EQ(result.probs, want)
                    << id << " threads=" << threads << " call " << call;
            }
        }
    }
}

TEST(McEngineRound, StatisticallyEquivalentToPerUnitAtMatchedT)
{
    // The weight-reuse estimator averages T independent posterior
    // draws just like the per-pass estimator — only the pairing of
    // draws with images differs. At matched T on synth-MNIST images
    // the two predictive means must agree within Monte-Carlo noise.
    const int t_samples = 64;
    AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.mcSamples = t_samples;

    Rng rng(109);
    bnn::BayesianMlp net({data::kMnistPixels, 16, 10}, rng, -3.0f);
    const auto program = compile(net, config);

    data::SynthMnistConfig synth;
    synth.trainCount = 10;
    synth.testCount = 12;
    synth.seed = 113;
    const auto ds = data::makeSynthMnist(synth);
    const auto view = ds.test.view();

    McEngineConfig fid;
    fid.seedBase = 127;
    fid.backendId = "functional";
    fid.schedule = McSchedule::PerUnit;
    McEngine fidelity(program, config, fid);
    const auto fid_result = fidelity.classifyBatchDetailed(
        view.features, view.count, view.dim, false);
    const auto &fid_probs = fid_result.probs;

    McEngineConfig thr;
    thr.seedBase = 131;
    thr.backendId = "batched";
    thr.schedule = McSchedule::PerRound;
    McEngine throughput(program, config, thr);
    const auto thr_result = throughput.classifyBatchDetailed(
        view.features, view.count, view.dim, false);
    const auto &thr_probs = thr_result.probs;

    double total_abs = 0.0;
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < fid_probs.size(); ++i) {
        const float d = std::fabs(fid_probs[i] - thr_probs[i]);
        total_abs += d;
        max_abs = std::max(max_abs, d);
    }
    const double mean_abs =
        total_abs / static_cast<double>(fid_probs.size());
    // MC noise of a T=64 mean of [0,1] quantities is ~0.06 worst case;
    // the bounds leave ~3x headroom while still catching systematic
    // bias (reused draws, skipped rounds, wrong reduction order).
    EXPECT_LT(mean_abs, 0.05) << "max " << max_abs;
    EXPECT_LT(max_abs, 0.25f);
}
