/**
 * @file
 * Cross-cutting GRNG quality tests, parameterized over the generator
 * registry: every design that claims to produce unit Gaussians must
 * have the right moments; the continuous software baselines must pass
 * distributional tests; and the known-bad configurations must fail the
 * randomness tests they are supposed to fail.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>

#include "grng/baselines.hh"
#include "grng/clt_grng.hh"
#include "grng/registry.hh"
#include "grng/rlf_grng.hh"
#include "grng/wallace.hh"
#include "fixed/fixed_point.hh"
#include "stats/autocorr.hh"
#include "stats/chi_square.hh"
#include "stats/ks_test.hh"
#include "stats/moments.hh"
#include "stats/runs_test.hh"

using namespace vibnn;
using namespace vibnn::grng;

namespace
{

std::vector<double>
drawSamples(GaussianGenerator &gen, std::size_t count)
{
    std::vector<double> xs(count);
    for (auto &x : xs)
        x = gen.next();
    return xs;
}

} // anonymous namespace

/** Every generator in the registry targets N(0, 1). */
class AllGenerators : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllGenerators, MomentsNearStandardNormal)
{
    auto gen = makeGenerator(GetParam(), 12345);
    auto xs = drawSamples(*gen, 200000);
    stats::RunningMoments m;
    m.add(xs);
    EXPECT_NEAR(m.mean(), 0.0, 0.08) << gen->name();
    // The small-pool software Wallace is *expected* to carry its
    // initial pool's sampling error in sigma (Table 1); the loose
    // bound still catches real normalization bugs.
    EXPECT_NEAR(m.stddev(), 1.0, 0.12) << gen->name();
    EXPECT_NEAR(m.skewness(), 0.0, 0.15) << gen->name();
    // Binomial/recombination designs have slightly light tails; the
    // loose bound still catches gross errors.
    EXPECT_NEAR(m.excessKurtosis(), 0.0, 0.5) << gen->name();
}

TEST_P(AllGenerators, DeterministicGivenSeed)
{
    auto a = makeGenerator(GetParam(), 777);
    auto b = makeGenerator(GetParam(), 777);
    for (int i = 0; i < 256; ++i)
        ASSERT_DOUBLE_EQ(a->next(), b->next()) << a->name();
}

TEST_P(AllGenerators, FillMatchesNext)
{
    auto a = makeGenerator(GetParam(), 31);
    auto b = makeGenerator(GetParam(), 31);
    std::vector<double> filled(100);
    a->fill(filled);
    for (auto x : filled)
        ASSERT_DOUBLE_EQ(x, b->next());
}

TEST_P(AllGenerators, BlockFillMatchesNextBitExact)
{
    // The block API is the hot path: large fills must reproduce the
    // scalar stream bit for bit, including across the generators'
    // internal block boundaries (Wallace pool passes, RLF lane cycles).
    auto a = makeGenerator(GetParam(), 97);
    auto b = makeGenerator(GetParam(), 97);
    std::vector<double> filled(6000);
    a->fill(filled.data(), filled.size());
    for (std::size_t i = 0; i < filled.size(); ++i)
        ASSERT_DOUBLE_EQ(filled[i], b->next())
            << a->name() << " sample " << i;
}

TEST_P(AllGenerators, InterleavedFillAndNextStaysAligned)
{
    // Mixing scalar draws with oddly-sized block fills must never skip
    // or replay samples: the buffered partial blocks have to drain in
    // order.
    auto a = makeGenerator(GetParam(), 53);
    auto b = makeGenerator(GetParam(), 53);
    std::vector<double> stream;
    const std::size_t sizes[] = {1, 3, 7, 50, 2, 1000, 5, 129};
    std::vector<double> buf;
    for (std::size_t sz : sizes) {
        buf.resize(sz);
        a->fill(buf.data(), sz);
        stream.insert(stream.end(), buf.begin(), buf.end());
        stream.push_back(a->next());
    }
    for (std::size_t i = 0; i < stream.size(); ++i)
        ASSERT_DOUBLE_EQ(stream[i], b->next())
            << a->name() << " sample " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllGenerators,
    ::testing::ValuesIn(generatorIds()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

/** Continuous software baselines must pass shape tests outright. */
class ContinuousBaselines : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ContinuousBaselines, PassesKsTest)
{
    auto gen = makeGenerator(GetParam(), 202);
    auto xs = drawSamples(*gen, 50000);
    EXPECT_GT(stats::ksTestStandardNormal(xs).pValue, 1e-3)
        << gen->name();
}

TEST_P(ContinuousBaselines, PassesChiSquare)
{
    auto gen = makeGenerator(GetParam(), 203);
    auto xs = drawSamples(*gen, 50000);
    EXPECT_GT(stats::chiSquareGofNormal(xs, 32).pValue, 1e-3)
        << gen->name();
}

TEST_P(ContinuousBaselines, PassesRunsTests)
{
    auto gen = makeGenerator(GetParam(), 204);
    const double rate = stats::runsTestPassRate(
        [&gen](std::vector<double> &buf) {
            for (auto &x : buf)
                x = gen->next();
        },
        5000, 40);
    EXPECT_GT(rate, 0.75) << gen->name();
}

INSTANTIATE_TEST_SUITE_P(Software, ContinuousBaselines,
                         ::testing::Values("box-muller", "polar",
                                           "ziggurat", "cdf-inversion",
                                           "reference", "wallace-1024",
                                           "wallace-4096", "philox"));

TEST(CltLfsr, RawStreamIsHeavilyCorrelated)
{
    // The motivation for everything in Section 4: a 1-step-per-sample
    // CLT generator produces a popcount walk, not white noise.
    CltLfsrGrng gen(128, 5, 1);
    auto xs = drawSamples(gen, 20000);
    EXPECT_GT(stats::autocorrelation(xs, 1), 0.9);
    EXPECT_FALSE(stats::runsTest(xs).passed);
}

TEST(CltLfsr, ManyStepsDecorrelate)
{
    CltLfsrGrng gen(128, 5, 128); // full refresh between samples
    auto xs = drawSamples(gen, 20000);
    EXPECT_LT(std::fabs(stats::autocorrelation(xs, 1)), 0.05);
}

TEST(CltLfsr, CountMatchesBinomialMoments)
{
    CltLfsrGrng gen(64, 7, 16);
    stats::RunningMoments m;
    for (int i = 0; i < 50000; ++i)
        m.add(static_cast<double>(gen.nextCount()));
    EXPECT_NEAR(m.mean(), 32.0, 0.5);
    EXPECT_NEAR(m.variance(), 16.0, 1.0);
}

TEST(CltLfsr, RejectsTooShortRegister)
{
    EXPECT_DEATH(CltLfsrGrng(16, 1), "equation");
}

TEST(RlfQuality, MuxImprovesSinglePortRuns)
{
    // The ablation claim behind the Figure 8 multiplexers: a single
    // output port's stream fails the runs test badly without the
    // rotation and improves dramatically with it.
    auto collect_port0 = [](bool mux, std::size_t count) {
        RlfGrngConfig config;
        config.lanes = 4;
        config.outputMux = mux;
        config.seed = 55;
        RlfGrng grng(config);
        std::vector<double> port0;
        std::vector<int> cycle;
        for (std::size_t i = 0; i < count; ++i) {
            grng.nextCycleCounts(cycle);
            port0.push_back(grng.normalize(cycle[0]));
        }
        return port0;
    };

    const auto without = collect_port0(false, 4000);
    const auto with = collect_port0(true, 4000);
    const double ac_without = stats::autocorrelation(without, 1);
    const double ac_with = stats::autocorrelation(with, 1);
    EXPECT_GT(ac_without, 0.9);
    EXPECT_LT(ac_with, 0.2);
    EXPECT_FALSE(stats::runsTest(without).passed);
}

TEST(Registry, UnknownIdIsFatal)
{
    EXPECT_DEATH((void)makeGenerator("no-such-generator", 1),
                 "unknown generator");
}

TEST(Registry, ListsAllIds)
{
    const auto ids = generatorIds();
    EXPECT_GE(ids.size(), 12u);
    for (const auto &id : ids) {
        auto gen = makeGenerator(id, 1);
        EXPECT_FALSE(gen->name().empty());
    }
}

TEST(Ziggurat, TailSamplesExist)
{
    ZigguratGrng gen(606);
    int beyond3 = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        beyond3 += std::fabs(gen.next()) > 3.0;
    // P(|Z| > 3) = 0.0027.
    EXPECT_NEAR(static_cast<double>(beyond3) / n, 0.0027, 0.001);
}

/** Golden stream pins captured before the transposed-kernel rewrite of
 *  RlfGrng and the kernelized Wallace pass: the eps streams feed every
 *  reproduced accuracy number, so the refactor must be provably
 *  stream-identical, not just statistically equivalent. The cases
 *  cover the default shape, a multi-group (64-lane) shape, the no-mux
 *  ablation, and a partial output-mux group (5 lanes). */
TEST(GoldenStreams, RlfCountStreamsUnchanged)
{
    {
        RlfGrngConfig c;
        c.seed = 123;
        RlfGrng g(c);
        EXPECT_TRUE(g.usesKernelPath());
        const int expected[32] = {
            128, 128, 127, 129, 129, 124, 126, 128, 128, 128, 129,
            128, 124, 124, 127, 129, 127, 129, 128, 126, 124, 127,
            129, 124, 132, 128, 126, 128, 127, 132, 124, 125};
        for (int i = 0; i < 32; ++i)
            ASSERT_EQ(g.nextCount(), expected[i]) << "i=" << i;
    }
    {
        RlfGrngConfig c;
        c.seed = 5;
        c.outputMux = false;
        RlfGrng g(c);
        const int expected[24] = {128, 128, 131, 128, 130, 127,
                                  127, 131, 129, 125, 130, 127,
                                  127, 128, 126, 132, 126, 126,
                                  130, 128, 128, 126, 127, 131};
        for (int i = 0; i < 24; ++i)
            ASSERT_EQ(g.nextCount(), expected[i]) << "i=" << i;
    }
    {
        RlfGrngConfig c;
        c.seed = 11;
        c.lanes = 5; // partial output-mux group
        RlfGrng g(c);
        const int expected[25] = {127, 128, 127, 125, 128, 128, 130,
                                  126, 130, 129, 126, 124, 126, 130,
                                  130, 124, 126, 129, 127, 130, 127,
                                  130, 128, 122, 130};
        for (int i = 0; i < 25; ++i)
            ASSERT_EQ(g.nextCount(), expected[i]) << "i=" << i;
    }
}

TEST(GoldenStreams, RlfFillStreamUnchanged)
{
    RlfGrngConfig c;
    c.seed = 7;
    c.lanes = 64;
    RlfGrng g(c);
    double out[16];
    g.fill(out, 16);
    const double expected[16] = {
        0.062622429108514954,  0.18786728732554486,
        -0.062622429108514954, 0.062622429108514954,
        0.31311214554257477,   0.062622429108514954,
        -0.062622429108514954, 0.062622429108514954,
        -0.31311214554257477,  -0.31311214554257477,
        0.062622429108514954,  -0.31311214554257477,
        0.18786728732554486,   0.062622429108514954,
        -0.062622429108514954, 0.18786728732554486};
    for (int i = 0; i < 16; ++i)
        ASSERT_EQ(out[i], expected[i]) << "i=" << i;
}

TEST(GoldenStreams, WallaceFillStreamsUnchanged)
{
    {
        WallaceConfig c;
        c.seed = 9;
        c.poolSize = 20; // below the AVX2 4-wide threshold
        WallaceGrng g(c);
        double out[12];
        g.fill(out, 12);
        const double expected[12] = {
            0.29915542319618971,   -1.4065803437289373,
            -0.19422911717280655,  1.2828426356170328,
            2.1558738507205142,    -1.0944544570060772,
            -0.60066960601116859,  -0.030038363471977858,
            0.39588479612145328,   0.61314055430410153,
            0.42706624145942529,   -0.44741604132986218};
        for (int i = 0; i < 12; ++i)
            ASSERT_EQ(out[i], expected[i]) << "i=" << i;
    }
    {
        WallaceConfig c;
        c.seed = 4; // default 1024 pool: the 4-wide main loop
        WallaceGrng g(c);
        double out[8];
        g.fill(out, 8);
        const double expected[8] = {
            0.41224927449868076, 1.7468027046810002,
            -1.9417333894062487, -0.216901181536159,
            0.46516019306318862, 1.0056017382370643,
            1.0043621291096836,  -0.11751925243811082};
        for (int i = 0; i < 8; ++i)
            ASSERT_EQ(out[i], expected[i]) << "i=" << i;
    }
}

TEST(FusedFill, FillFixedMatchesFillPlusQuantizeForAllGenerators)
{
    // The fillFixed contract: when a generator claims the fused path,
    // the raws must be bit-identical to fill() + fromReal(Nearest) at
    // the same stream positions — for every registered generator that
    // opts in, across ring-unaligned sizes and after scalar draws.
    const fixed::FixedPointFormat formats[] = {{8, 5}, {12, 8}, {6, 3}};
    for (const auto &id : generatorIds()) {
        for (const auto &fmt : formats) {
            auto fused = makeGenerator(id, 321);
            std::vector<std::int32_t> raws(5000);
            if (!fused->fillFixed(raws.data(), raws.size(), fmt))
                break; // no fused path for this generator
            auto ref = makeGenerator(id, 321);
            std::vector<double> reals(raws.size());
            ref->fill(reals.data(), reals.size());
            for (std::size_t i = 0; i < raws.size(); ++i)
                ASSERT_EQ(raws[i], fmt.fromReal(reals[i]))
                    << id << " fmt=" << fmt.name() << " i=" << i;

            // Interleave scalar draws and odd-sized fused fills: the
            // shared cycle buffer must keep both streams aligned.
            ASSERT_EQ(fused->next(), ref->next()) << id;
            std::int32_t tail[137];
            ASSERT_TRUE(fused->fillFixed(tail, 137, fmt));
            double tail_ref[137];
            ref->fill(tail_ref, 137);
            for (int i = 0; i < 137; ++i)
                ASSERT_EQ(tail[i], fmt.fromReal(tail_ref[i]))
                    << id << " tail i=" << i;
        }
    }
}

TEST(Philox, NextAndFillInterleavingsShareOneStream)
{
    // Phase-at-a-time next(), bulk fill() at every parity, and the
    // fused fillFixed() all walk the same keyed stream; the pair cache
    // must be invisible across any interleaving.
    auto seq = makeGenerator("philox", 4242);
    std::vector<double> reference(512);
    seq->fill(reference.data(), reference.size());

    auto mixed = makeGenerator("philox", 4242);
    std::size_t at = 0;
    const std::size_t steps[] = {1, 1, 3, 1, 2, 7, 1, 1, 5, 4, 1, 9};
    for (const std::size_t n : steps) {
        if (n == 1) {
            ASSERT_DOUBLE_EQ(mixed->next(), reference[at]) << at;
            ++at;
        } else {
            std::vector<double> chunk(n);
            mixed->fill(chunk.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_DOUBLE_EQ(chunk[i], reference[at + i])
                    << at + i;
            at += n;
        }
    }
    // The fused path through the same instance, ending on a stranded
    // phase, then back to next() at the odd phase after it.
    const fixed::FixedPointFormat fmt{8, 5};
    std::int32_t fixed_buf[33];
    ASSERT_TRUE(mixed->fillFixed(fixed_buf, 33, fmt));
    for (int i = 0; i < 33; ++i)
        ASSERT_EQ(fixed_buf[i], fmt.fromReal(reference[at + i]))
            << "i=" << i;
    at += 33;
    ASSERT_DOUBLE_EQ(mixed->next(), reference[at]);
}

TEST(FreshStreamKey, KeyedGeneratorsHonourTheContract)
{
    // A non-empty freshStreamKey() promises: equal keys, identical
    // streams; and it is non-empty only until the first draw. RLF
    // (every variant) and Philox carry keys; the other generators keep
    // "" and are always regenerated.
    const std::set<std::string> keyed = {"rlf", "rlf-64", "rlf-nomux",
                                         "rlf-single", "philox"};
    std::set<std::string> seen_keys;
    for (const auto &id : generatorIds()) {
        auto gen = makeGenerator(id, 2024);
        const std::string key = gen->freshStreamKey();
        EXPECT_EQ(!key.empty(), keyed.count(id) == 1) << id;
        if (key.empty())
            continue;
        EXPECT_TRUE(seen_keys.insert(key).second)
            << id << " shares its key with another generator";

        // Same (id, seed): same key and the same first 10^4 samples.
        auto twin = makeGenerator(id, 2024);
        EXPECT_EQ(twin->freshStreamKey(), key) << id;
        std::vector<double> a(10000), b(10000);
        gen->fill(a.data(), a.size());
        twin->fill(b.data(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(double)),
                  0)
            << id;

        // Another seed names another stream.
        EXPECT_NE(makeGenerator(id, 2025)->freshStreamKey(), key) << id;

        // One draw ends freshness.
        auto drawn = makeGenerator(id, 2024);
        (void)drawn->next();
        EXPECT_EQ(drawn->freshStreamKey(), "") << id;
    }
    EXPECT_EQ(seen_keys.size(), keyed.size());
}

TEST(FreshStreamKey, EveryRlfConfigFieldIsPartOfTheKey)
{
    const RlfGrngConfig base;
    const std::string base_key = RlfGrng(base).freshStreamKey();
    ASSERT_FALSE(base_key.empty());
    std::vector<RlfGrngConfig> variants(6, base);
    variants[0].length = 128;
    variants[1].lanes = 16;
    variants[2].mode = RlfUpdateMode::Single;
    variants[3].outputMux = false;
    variants[4].balancedSeeds = false;
    variants[5].seed = base.seed + 1;
    std::set<std::string> keys = {base_key};
    for (std::size_t i = 0; i < variants.size(); ++i)
        EXPECT_TRUE(keys.insert(RlfGrng(variants[i]).freshStreamKey())
                        .second)
            << "variant " << i;

    // A partial cycle left in the buffer is a draw too.
    RlfGrng partial(base);
    double one = 0.0;
    partial.fill(&one, 1);
    EXPECT_EQ(partial.freshStreamKey(), "");
}
