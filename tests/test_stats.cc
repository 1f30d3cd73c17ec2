/**
 * @file
 * Unit tests for the statistics library: moments, stability metric,
 * runs test, KS, chi-square, autocorrelation and the normal/special
 * functions they depend on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "stats/autocorr.hh"
#include "stats/chi_square.hh"
#include "stats/histogram.hh"
#include "stats/ks_test.hh"
#include "stats/moments.hh"
#include "stats/normal.hh"
#include "stats/runs_test.hh"
#include "stats/sequential_test.hh"
#include "stats/special.hh"

using namespace vibnn;
using namespace vibnn::stats;

TEST(Normal, CdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(Normal, InvCdfRoundTrip)
{
    for (double p = 0.001; p < 1.0; p += 0.013) {
        const double x = normalInvCdf(p);
        EXPECT_NEAR(normalCdf(x), p, 1e-9) << "p=" << p;
    }
}

TEST(Normal, PdfIntegratesToOne)
{
    double integral = 0.0;
    const double dx = 0.001;
    for (double x = -8.0; x < 8.0; x += dx)
        integral += normalPdf(x) * dx;
    EXPECT_NEAR(integral, 1.0, 1e-6);
}

TEST(Special, GammaPQComplementary)
{
    for (double a : {0.5, 1.0, 2.5, 10.0}) {
        for (double x : {0.1, 1.0, 5.0, 20.0}) {
            EXPECT_NEAR(regularizedGammaP(a, x) + regularizedGammaQ(a, x),
                        1.0, 1e-12);
        }
    }
}

TEST(Special, ChiSquareKnownQuantile)
{
    // P(chi2_1 > 3.841) = 0.05.
    EXPECT_NEAR(chiSquareSf(3.841459, 1), 0.05, 1e-4);
    // P(chi2_10 > 18.307) = 0.05.
    EXPECT_NEAR(chiSquareSf(18.30704, 10), 0.05, 1e-4);
}

TEST(Special, KolmogorovTail)
{
    EXPECT_NEAR(kolmogorovQ(1.3581), 0.05, 1e-3);
    EXPECT_GT(kolmogorovQ(0.5), 0.95);
    EXPECT_LT(kolmogorovQ(2.5), 1e-4);
}

TEST(RunningMoments, MatchesClosedForm)
{
    RunningMoments m;
    const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8};
    m.add(xs);
    EXPECT_DOUBLE_EQ(m.mean(), 4.5);
    EXPECT_NEAR(m.variance(), 6.0, 1e-12); // unbiased variance of 1..8
    EXPECT_NEAR(m.skewness(), 0.0, 1e-12);
}

TEST(RunningMoments, GaussianSampleMoments)
{
    Rng rng(5);
    RunningMoments m;
    for (int i = 0; i < 100000; ++i)
        m.add(rng.gaussian());
    EXPECT_NEAR(m.mean(), 0.0, 0.02);
    EXPECT_NEAR(m.stddev(), 1.0, 0.02);
    EXPECT_NEAR(m.skewness(), 0.0, 0.05);
    EXPECT_NEAR(m.excessKurtosis(), 0.0, 0.1);
}

TEST(Stability, PerfectStreamHasSmallError)
{
    Rng rng(9);
    std::vector<double> xs(65536);
    for (auto &x : xs)
        x = rng.gaussian();
    const auto r = measureStability(xs, 4096);
    EXPECT_EQ(r.windows, 16u);
    EXPECT_LT(r.muError, 0.05);
    EXPECT_LT(r.sigmaError, 0.05);
}

TEST(Stability, ScaledStreamDetected)
{
    Rng rng(10);
    std::vector<double> xs(32768);
    for (auto &x : xs)
        x = 1.5 * rng.gaussian() + 0.4;
    const auto r = measureStability(xs, 4096);
    EXPECT_NEAR(r.muError, 0.4, 0.05);
    EXPECT_NEAR(r.sigmaError, 0.5, 0.05);
}

TEST(Stability, EmptyOrShortStream)
{
    const auto r = measureStability({1.0, 2.0}, 10);
    EXPECT_EQ(r.windows, 0u);
}

TEST(RunsTest, IidGaussianPasses)
{
    Rng rng(17);
    int passed = 0;
    for (int rep = 0; rep < 40; ++rep) {
        std::vector<double> xs(2000);
        for (auto &x : xs)
            x = rng.gaussian();
        passed += runsTest(xs).passed;
    }
    EXPECT_GE(passed, 33); // ~95% expected
}

TEST(RunsTest, AlternatingSequenceFails)
{
    std::vector<double> xs(1000);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = (i % 2 == 0) ? 1.0 : -1.0;
    const auto r = runsTest(xs);
    EXPECT_FALSE(r.passed);
    EXPECT_GT(r.z, 10.0); // far too many runs
}

TEST(RunsTest, BlockSequenceFails)
{
    std::vector<double> xs;
    for (int block = 0; block < 10; ++block)
        for (int i = 0; i < 100; ++i)
            xs.push_back(block % 2 == 0 ? 1.0 : -1.0);
    const auto r = runsTest(xs);
    EXPECT_FALSE(r.passed);
    EXPECT_LT(r.z, -10.0); // far too few runs
}

TEST(RunsTest, RandomWalkFails)
{
    Rng rng(23);
    std::vector<double> xs(5000);
    double walk = 0.0;
    for (auto &x : xs) {
        walk += rng.gaussian();
        x = walk;
    }
    EXPECT_FALSE(runsTest(xs).passed);
}

TEST(RunsTest, PassRateHelper)
{
    Rng rng(29);
    const double rate = runsTestPassRate(
        [&rng](std::vector<double> &buf) {
            for (auto &x : buf)
                x = rng.gaussian();
        },
        1000, 50);
    EXPECT_GT(rate, 0.8);
}

TEST(KsTest, GaussianSamplePasses)
{
    Rng rng(31);
    std::vector<double> xs(20000);
    for (auto &x : xs)
        x = rng.gaussian();
    const auto r = ksTestStandardNormal(xs);
    EXPECT_LT(r.statistic, 0.02);
    EXPECT_GT(r.pValue, 0.01);
}

TEST(KsTest, UniformSampleFails)
{
    Rng rng(37);
    std::vector<double> xs(5000);
    for (auto &x : xs)
        x = rng.uniform(-1.0, 1.0);
    const auto r = ksTestStandardNormal(xs);
    EXPECT_LT(r.pValue, 1e-6);
}

TEST(ChiSquare, GaussianSamplePasses)
{
    Rng rng(41);
    std::vector<double> xs(50000);
    for (auto &x : xs)
        x = rng.gaussian();
    const auto r = chiSquareGofNormal(xs, 32);
    EXPECT_GT(r.pValue, 0.001);
}

TEST(ChiSquare, ShiftedSampleFails)
{
    Rng rng(43);
    std::vector<double> xs(50000);
    for (auto &x : xs)
        x = rng.gaussian() + 0.2;
    const auto r = chiSquareGofNormal(xs, 32);
    EXPECT_LT(r.pValue, 1e-8);
}

TEST(Autocorr, WhiteNoiseNearZero)
{
    Rng rng(47);
    std::vector<double> xs(50000);
    for (auto &x : xs)
        x = rng.gaussian();
    EXPECT_NEAR(autocorrelation(xs, 1), 0.0, 0.02);
    EXPECT_NEAR(autocorrelation(xs, 7), 0.0, 0.02);
}

TEST(Autocorr, Ar1ProcessDetected)
{
    Rng rng(53);
    std::vector<double> xs(50000);
    double prev = 0.0;
    for (auto &x : xs) {
        prev = 0.8 * prev + rng.gaussian();
        x = prev;
    }
    EXPECT_NEAR(autocorrelation(xs, 1), 0.8, 0.03);
    EXPECT_NEAR(autocorrelation(xs, 2), 0.64, 0.04);
}

TEST(Autocorr, LagSeries)
{
    std::vector<double> xs = {1, -1, 1, -1, 1, -1, 1, -1};
    const auto acs = autocorrelations(xs, 2);
    ASSERT_EQ(acs.size(), 2u);
    EXPECT_LT(acs[0], -0.8);
    EXPECT_GT(acs[1], 0.5);
}

TEST(Histogram, CountsAndEdges)
{
    Histogram h(-1.0, 1.0, 4);
    h.add({-2.0, -0.9, -0.1, 0.1, 0.9, 2.0});
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_NEAR(h.binCenter(0), -0.75, 1e-12);
    EXPECT_FALSE(h.renderAscii().empty());
}

// ---- SequentialPosteriorTest (the adaptive early-exit decision rule)

TEST(SequentialTest, ContinuesBeforeMinSamples)
{
    SequentialPosteriorTest test(3);
    SequentialTestConfig config;
    config.minSamples = 4;
    const float certain[3] = {1.0f, 0.0f, 0.0f};
    for (int s = 0; s < 3; ++s) {
        test.add(certain);
        EXPECT_EQ(test.decide(config, 32), SequentialDecision::Continue)
            << "sample " << s;
    }
    test.add(certain);
    EXPECT_NE(test.decide(config, 32), SequentialDecision::Continue);
}

TEST(SequentialTest, DecidedWhenGapExceedsRemainingBudget)
{
    // After 4 unanimous samples the gap is 4; with budget 7 only 3
    // rounds remain, and each can shift the gap by at most 1 — the
    // argmax is mathematically frozen.
    SequentialPosteriorTest test(2);
    SequentialTestConfig config;
    config.minSamples = 4;
    const float certain[2] = {1.0f, 0.0f};
    for (int s = 0; s < 4; ++s)
        test.add(certain);
    EXPECT_EQ(test.decide(config, 7), SequentialDecision::Decided);
    // With 4 or more rounds remaining the hard bound cannot fire (a
    // zero-variance stream converges statistically instead).
    EXPECT_NE(test.decide(config, 9), SequentialDecision::Decided);
}

TEST(SequentialTest, ConvergesOnConsistentSamples)
{
    // A clear, low-noise margin converges statistically long before
    // the vote gap could freeze against a large budget.
    SequentialPosteriorTest test(3);
    SequentialTestConfig config;
    config.minSamples = 4;
    config.confidence = 0.999;
    Rng rng(5);
    for (int s = 0; s < 8; ++s) {
        const float eps = static_cast<float>(rng.uniform()) * 0.02f;
        const float sample[3] = {0.7f - eps, 0.2f, 0.1f + eps};
        test.add(sample);
    }
    EXPECT_EQ(test.decide(config, 1024),
              SequentialDecision::Converged);
}

TEST(SequentialTest, ContinuesWhileContested)
{
    // Alternating winners: the mean gap stays near zero relative to
    // its spread, so no exit fires while budget remains.
    SequentialPosteriorTest test(2);
    SequentialTestConfig config;
    config.minSamples = 4;
    for (int s = 0; s < 16; ++s) {
        const float a[2] = {0.9f, 0.1f};
        const float b[2] = {0.1f, 0.9f};
        test.add((s % 2) ? b : a);
        if (test.samples() >= config.minSamples) {
            EXPECT_EQ(test.decide(config, 1024),
                      SequentialDecision::Continue)
                << "sample " << s;
        }
    }
}

TEST(SequentialTest, HigherConfidenceIsMoreCautious)
{
    // The exact state that converges at a loose confidence must not
    // converge at a strict one when the margin sits between the two
    // thresholds.
    SequentialPosteriorTest test(2);
    Rng rng(11);
    for (int s = 0; s < 6; ++s) {
        const float noise = static_cast<float>(rng.gaussian()) * 0.08f;
        const float sample[2] = {0.56f + noise, 0.44f - noise};
        test.add(sample);
    }
    SequentialTestConfig loose;
    loose.confidence = 0.6;
    SequentialTestConfig strict;
    strict.confidence = 0.999999;
    EXPECT_EQ(test.decide(loose, 1 << 20),
              SequentialDecision::Converged);
    EXPECT_EQ(test.decide(strict, 1 << 20),
              SequentialDecision::Continue);
}

TEST(SequentialTest, MeanAndPredictedTrackRunningAverage)
{
    SequentialPosteriorTest test(3);
    const float s1[3] = {0.5f, 0.3f, 0.2f};
    const float s2[3] = {0.1f, 0.7f, 0.2f};
    test.add(s1);
    test.add(s2);
    float mean[3];
    test.mean(mean);
    EXPECT_FLOAT_EQ(mean[0], 0.3f);
    EXPECT_FLOAT_EQ(mean[1], 0.5f);
    EXPECT_FLOAT_EQ(mean[2], 0.2f);
    EXPECT_EQ(test.predicted(), 1u);
    EXPECT_EQ(test.samples(), 2);
}

TEST(SequentialTest, DecisionIsPureFunctionOfState)
{
    // Re-evaluating at the same accumulated state answers the same —
    // the property that makes chunk-boundary checks schedule-free.
    SequentialPosteriorTest test(4);
    SequentialTestConfig config;
    Rng rng(17);
    for (int s = 0; s < 12; ++s) {
        float sample[4];
        float sum = 0.0f;
        for (auto &v : sample)
            sum += v = static_cast<float>(rng.uniform());
        for (auto &v : sample)
            v /= sum;
        test.add(sample);
    }
    const auto first = test.decide(config, 64);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(test.decide(config, 64), first);
}
