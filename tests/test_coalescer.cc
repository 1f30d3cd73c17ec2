/**
 * @file
 * Tests for the deadline-aware coalescing policy: the never-past-the-
 * budget invariant pinned with injected clocks (the policy is a pure
 * function of explicitly passed times), the tightest-member-rules batch
 * rule, the no-budget-means-greedy contract, and the pass-time EWMA.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "serve/coalescer.hh"

using namespace vibnn;
using namespace vibnn::serve;

// ------------------------------------------------- single-request policy

TEST(Coalescer, NoBudgetGrantsNoHold)
{
    // deadline <= 0 is the PR 4 greedy contract: dispatch immediately
    // no matter what the estimator thinks.
    EXPECT_EQ(holdAllowanceMicros(0, 0, 0), 0);
    EXPECT_EQ(holdAllowanceMicros(0, 500, 100), 0);
    EXPECT_EQ(holdAllowanceMicros(-1, 0, 0), 0);
}

TEST(Coalescer, AllowanceIsBudgetMinusWaitedMinusReserve)
{
    EXPECT_EQ(holdAllowanceMicros(1000, 0, 0), 1000);
    EXPECT_EQ(holdAllowanceMicros(1000, 300, 0), 700);
    EXPECT_EQ(holdAllowanceMicros(1000, 300, 200), 500);
    EXPECT_EQ(holdAllowanceMicros(1000, 0, 999), 1);
}

TEST(Coalescer, OverdueOrExhaustedBudgetSaturatesAtZero)
{
    // Already waited the whole budget (or more): execute now, never a
    // negative wait.
    EXPECT_EQ(holdAllowanceMicros(1000, 1000, 0), 0);
    EXPECT_EQ(holdAllowanceMicros(1000, 5000, 0), 0);
    // The reserve alone eats the remainder.
    EXPECT_EQ(holdAllowanceMicros(1000, 500, 500), 0);
    EXPECT_EQ(holdAllowanceMicros(1000, 500, 9000), 0);
    // Negative waited is clamped (clock skew defense).
    EXPECT_EQ(holdAllowanceMicros(1000, -50, 0), 1000);
}

TEST(Coalescer, NeverHeldPastBudgetUnderInjectedClock)
{
    // Sweep an injected clock through a request's life: at every
    // instant, waited + allowance + reserve <= budget. This is the
    // acceptance-criteria pin — the coalescer cannot hold a request
    // past the point where on-time completion is still expected.
    const std::int64_t budget = 10'000;
    for (std::int64_t reserve : {0, 100, 2'500, 9'999, 20'000}) {
        for (std::int64_t waited = 0; waited <= 12'000; waited += 250) {
            const std::int64_t allowance =
                holdAllowanceMicros(budget, waited, reserve);
            ASSERT_GE(allowance, 0);
            if (allowance > 0) {
                ASSERT_LE(waited + allowance + reserve, budget)
                    << "waited=" << waited << " reserve=" << reserve;
            }
        }
    }
}

TEST(Coalescer, RandomizedInvariantSweep)
{
    Rng rng(42);
    for (int i = 0; i < 10'000; ++i) {
        const auto budget =
            static_cast<std::int64_t>(rng.uniform() * 1e6) - 1000;
        const auto waited =
            static_cast<std::int64_t>(rng.uniform() * 1e6) - 1000;
        const auto reserve =
            static_cast<std::int64_t>(rng.uniform() * 1e5) - 100;
        const std::int64_t allowance =
            holdAllowanceMicros(budget, waited, reserve);
        ASSERT_GE(allowance, 0);
        if (budget <= 0) {
            ASSERT_EQ(allowance, 0);
        }
        if (allowance > 0) {
            ASSERT_LE(std::max<std::int64_t>(waited, 0) + allowance +
                          std::max<std::int64_t>(reserve, 0),
                      budget);
        }
    }
}

// ------------------------------------------------------------ batch rule

TEST(Coalescer, BatchTakesTheTightestMember)
{
    const std::int64_t deadlines[3] = {10'000, 4'000, 8'000};
    const std::int64_t waited[3] = {0, 1'000, 0};
    // Member 1 has 3000 left; with a 500 reserve its allowance (2500)
    // rules the batch.
    EXPECT_EQ(batchHoldAllowanceMicros(deadlines, waited, 3, 500),
              2'500);
}

TEST(Coalescer, AnyNoBudgetMemberForcesGreedyDispatch)
{
    // One member was promised greedy dispatch: the batch may not be
    // held on a neighbour's license.
    const std::int64_t deadlines[3] = {10'000, 0, 8'000};
    const std::int64_t waited[3] = {0, 0, 0};
    EXPECT_EQ(batchHoldAllowanceMicros(deadlines, waited, 3, 0), 0);
}

TEST(Coalescer, EmptyBatchHasNoAllowance)
{
    EXPECT_EQ(batchHoldAllowanceMicros(nullptr, nullptr, 0, 0), 0);
}

TEST(Coalescer, BatchInvariantHoldsPerMemberUnderInjectedClock)
{
    // Whatever allowance the batch gets, no individual member can be
    // pushed past its own budget.
    Rng rng(7);
    for (int trial = 0; trial < 2'000; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(
                                      rng.uniform() * 6);
        std::vector<std::int64_t> deadlines(n), waited(n);
        for (std::size_t i = 0; i < n; ++i) {
            deadlines[i] =
                static_cast<std::int64_t>(rng.uniform() * 50'000) -
                5'000;
            waited[i] =
                static_cast<std::int64_t>(rng.uniform() * 50'000);
        }
        const auto reserve =
            static_cast<std::int64_t>(rng.uniform() * 10'000);
        const std::int64_t allowance = batchHoldAllowanceMicros(
            deadlines.data(), waited.data(), n, reserve);
        ASSERT_GE(allowance, 0);
        if (allowance > 0) {
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_GT(deadlines[i], 0); // no-budget => no hold
                ASSERT_LE(waited[i] + allowance + reserve,
                          deadlines[i]);
            }
        }
    }
}

// --------------------------------------------------------------- EWMA

TEST(Coalescer, EstimatorIsColdUntilFirstObservation)
{
    PassTimeEstimator est;
    EXPECT_EQ(est.estimateMicros(), 0.0);
    est.observe(800.0);
    EXPECT_DOUBLE_EQ(est.estimateMicros(), 800.0);
}

TEST(Coalescer, EstimatorTracksWithEwmaWeight)
{
    PassTimeEstimator est(0.25);
    est.observe(1000.0);
    est.observe(2000.0);
    // 0.25 * 2000 + 0.75 * 1000
    EXPECT_DOUBLE_EQ(est.estimateMicros(), 1250.0);
    est.observe(2000.0);
    EXPECT_DOUBLE_EQ(est.estimateMicros(), 0.25 * 2000 + 0.75 * 1250);
}

TEST(Coalescer, EstimatorIgnoresNegativeObservations)
{
    PassTimeEstimator est;
    est.observe(500.0);
    est.observe(-1.0);
    EXPECT_DOUBLE_EQ(est.estimateMicros(), 500.0);
}

TEST(Coalescer, EstimatorConvergesToSteadyInput)
{
    PassTimeEstimator est(0.25);
    for (int i = 0; i < 100; ++i)
        est.observe(3'000.0);
    EXPECT_NEAR(est.estimateMicros(), 3'000.0, 1e-6);
}
