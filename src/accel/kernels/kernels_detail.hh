/**
 * @file
 * Shared scalar bodies of the kernel layer — the single definition of
 * each element-wise operation, used by the scalar tier wholesale and by
 * the SIMD tiers for tail lanes and ineligible-format fallbacks, so
 * "bit-exact against the scalar reference" holds by construction
 * everywhere a tier drops out of its vector loop.
 */

#ifndef VIBNN_ACCEL_KERNELS_KERNELS_DETAIL_HH
#define VIBNN_ACCEL_KERNELS_KERNELS_DETAIL_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "accel/kernels/kernels.hh"

namespace vibnn::accel::kernels::detail
{

/** fromReal(value, RoundMode::Nearest) on a grid with 2^-frac
 *  resolution: scale (an exact power of two, so the scaling never
 *  rounds), round half away from zero, saturate in the double domain
 *  exactly like FixedPointFormat::fromReal. `scale` is 2^fracBits. */
inline std::int32_t
quantizeOne(double value, double scale, std::int32_t raw_min,
            std::int32_t raw_max)
{
    const double scaled = value * scale;
    const double rounded = std::round(scaled);
    if (rounded >= static_cast<double>(raw_max))
        return raw_max;
    if (rounded <= static_cast<double>(raw_min))
        return raw_min;
    return static_cast<std::int32_t>(rounded);
}

/** DatapathKernel::sampleWeight: w = mu + ((sigma * eps) >> epsShift),
 *  saturated to the weight grid. */
inline std::int32_t
sampleOne(std::int64_t mu, std::int64_t sigma, std::int64_t eps,
          const SampleParams &p)
{
    const std::int64_t scaled = (sigma * eps) >> p.epsShift;
    std::int64_t w = mu + scaled;
    if (w > p.wMax)
        w = p.wMax;
    if (w < p.wMin)
        w = p.wMin;
    return static_cast<std::int32_t>(w);
}

/** Scalar int64-accumulate dot product over [k0, n). */
inline std::int64_t
dotTail(const std::int32_t *w, const std::int32_t *x, std::size_t k0,
        std::size_t n)
{
    std::int64_t acc = 0;
    for (std::size_t k = k0; k < n; ++k)
        acc += static_cast<std::int64_t>(w[k]) * x[k];
    return acc;
}

/** laneExpand()[b]: byte j of the result is bit j of b — one lookup
 *  turns a flipped-bits byte into eight per-lane 0/1 counters, so a
 *  u64 accumulator sums flip counts for all 8 lanes of a plane group
 *  at once (each lane's count stays < 256, no carry between bytes). */
constexpr std::array<std::uint64_t, 256>
makeLaneExpand()
{
    std::array<std::uint64_t, 256> table{};
    for (int b = 0; b < 256; ++b) {
        std::uint64_t v = 0;
        for (int j = 0; j < 8; ++j)
            if (b & (1 << j))
                v |= std::uint64_t{1} << (8 * j);
        table[static_cast<std::size_t>(b)] = v;
    }
    return table;
}

inline constexpr std::array<std::uint64_t, 256> kLaneExpand =
    makeLaneExpand();

/**
 * One combined-update RLF iteration on one bit-plane group of 8 lanes:
 * reads the two head bytes, XOR-updates the five trailing positions
 * (offsets n-5..n-1 from the head get masks {h0, h1, h0, h0^h1, h1} —
 * the fused equation (12) pattern for taps {n-5, n-3, n-2}), and
 * accumulates the per-lane popcount deltas into packed set/clear
 * counters. Returns nothing; `up`/`down` gain at most 5 per lane.
 */
inline void
rlfStepGroup(std::uint8_t *plane, int n, int head, std::uint64_t &up,
             std::uint64_t &down)
{
    const int h1 = head + 1 >= n ? 0 : head + 1;
    const std::uint8_t head0 = plane[head];
    const std::uint8_t head1 = plane[h1];
    const std::uint8_t mask[5] = {
        head0, head1, head0, static_cast<std::uint8_t>(head0 ^ head1),
        head1};
    int p = head + n - 5;
    if (p >= n)
        p -= n;
    for (int k = 0; k < 5; ++k) {
        const std::uint8_t old = plane[p];
        plane[p] = old ^ mask[k];
        up += kLaneExpand[mask[k] & static_cast<std::uint8_t>(~old)];
        down += kLaneExpand[mask[k] & old];
        ++p;
        if (p >= n)
            p = 0;
    }
}

/** Scalar reference for rlfCycleCounts on one plane group: `counts`
 *  points at this group's first lane in cycle 0's row; rows are
 *  `countsStride` apart. Leaves the caller to advance the shared
 *  head. */
inline void
rlfCycleCountsGroup(std::uint8_t *plane, int n, int head,
                    std::int32_t *sums, std::size_t cycles,
                    std::int32_t *counts, std::size_t counts_stride)
{
    std::int32_t sum[8];
    for (int j = 0; j < 8; ++j)
        sum[j] = sums[j];
    for (std::size_t c = 0; c < cycles; ++c) {
        std::uint64_t up = 0, down = 0;
        rlfStepGroup(plane, n, head, up, down);
        std::int32_t *row = counts + c * counts_stride;
        for (int j = 0; j < 8; ++j) {
            sum[j] += static_cast<std::int32_t>((up >> (8 * j)) & 0xFF) -
                static_cast<std::int32_t>((down >> (8 * j)) & 0xFF);
            row[j] = sum[j];
        }
        head += 2;
        if (head >= n)
            head -= n;
    }
    for (int j = 0; j < 8; ++j)
        sums[j] = sum[j];
}

/** The Wallace 4-point transform exactly as WallaceGrng applies it:
 *  t = 0.5 * (x0 + x1 + x2 + x3) with left-to-right association, then
 *  {t - x0, t - x1, x2 - t, x3 - t}. */
inline void
wallaceQuad(double *pool, const std::size_t idx[4], double *out4)
{
    const double x0 = pool[idx[0]];
    const double x1 = pool[idx[1]];
    const double x2 = pool[idx[2]];
    const double x3 = pool[idx[3]];
    const double t = 0.5 * (x0 + x1 + x2 + x3);
    const double y0 = t - x0;
    const double y1 = t - x1;
    const double y2 = x2 - t;
    const double y3 = x3 - t;
    pool[idx[0]] = y0;
    pool[idx[1]] = y1;
    pool[idx[2]] = y2;
    pool[idx[3]] = y3;
    if (out4) {
        out4[0] = y0;
        out4[1] = y1;
        out4[2] = y2;
        out4[3] = y3;
    }
}

/** The canonical lane-8 reduction tree of gemmBatchF32: every tier
 *  ends its dot product with exactly this association, whether the
 *  lanes were accumulated by AVX2 registers or the scalar loop. */
inline float
reduceLanes8F32(const float lanes[8])
{
    const float m0 = lanes[0] + lanes[4];
    const float m1 = lanes[1] + lanes[5];
    const float m2 = lanes[2] + lanes[6];
    const float m3 = lanes[3] + lanes[7];
    return (m0 + m2) + (m1 + m3);
}

/** Scalar continuation of the lane-8 dot product over [k0, n): element
 *  k lands in lane k mod 8, matching one 8-wide vector register (or
 *  the lo/hi SSE pair) walking the same range. */
inline void
dotLanes8TailF32(float lanes[8], const float *a, const float *b,
                 std::size_t k0, std::size_t n)
{
    for (std::size_t k = k0; k < n; ++k) {
        const float p = a[k] * b[k];
        lanes[k & 7] += p;
    }
}

/** Full scalar lane-8 dot product — the gemmBatchF32 reference body. */
inline float
dotLanes8F32(const float *a, const float *b, std::size_t n)
{
    float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    dotLanes8TailF32(lanes, a, b, 0, n);
    return reduceLanes8F32(lanes);
}

/** Scalar axpy continuation over [k0, n): dst[k] += s * src[k] with
 *  the explicit two-rounding (multiply then add) every tier uses. */
inline void
axpyTailF32(float *dst, float s, const float *src, std::size_t k0,
            std::size_t n)
{
    for (std::size_t k = k0; k < n; ++k) {
        const float p = s * src[k];
        dst[k] += p;
    }
}

/** One Adam element update (see AdamStepArgs) — mul/add/div/sqrt are
 *  all correctly rounded in IEEE single, so the SIMD tiers match this
 *  bit for bit without any ordering care. */
inline void
adamOneF32(float &p, float g, float &m, float &v, const AdamStepArgs &a)
{
    // Association mirrors the historical AdamOptimizer::step loop
    // (((1-b2)*g)*g, (lr*mh)/(sqrt+eps)) so stepping layer storage in
    // place through this kernel reproduces the old gather/step/scatter
    // trajectory bit for bit.
    const float gs = g * a.gradScale;
    m = a.beta1 * m + (1.0f - a.beta1) * gs;
    v = a.beta2 * v + ((1.0f - a.beta2) * gs) * gs;
    const float mh = m / a.bc1;
    const float vh = v / a.bc2;
    p -= (a.lr * mh) / (std::sqrt(vh) + a.epsilon);
}

/** Scalar reference for wallacePass (see KernelOps::wallacePass). */
inline void
wallacePassScalar(double *pool, std::size_t pool_size, std::size_t offset,
                  std::size_t stride, double *out)
{
    const std::size_t quads = pool_size / 4;
    std::size_t pos = offset;
    auto advance = [&pos, stride, pool_size]() {
        const std::size_t at = pos;
        pos += stride;
        if (pos >= pool_size)
            pos -= pool_size;
        return at;
    };
    for (std::size_t q = 0; q < quads; ++q) {
        const std::size_t idx[4] = {advance(), advance(), advance(),
                                    advance()};
        wallaceQuad(pool, idx, out ? out + 4 * q : nullptr);
    }
}

// ---------------------------------------------------------------------
// softplus, logistic, ln and the KL term (see kernels.hh).
//
// Each body is written once, over a lane type L: L::F holds floats,
// L::D as many doubles, L::U their bit patterns. ScalarLanes (one lane)
// is the reference; the SIMD tiers instantiate the same bodies with GCC
// vector types, whose operators and ?: act element-wise, so every tier
// performs the same IEEE operations in the same order. A comparison
// gives a bool on one lane and a lane mask on vectors; & joins either.
// Kernel TUs are compiled with -ffp-contract=off: no product is fused
// into a sum. Every body here is always_inline: an out-of-line copy
// built with one tier's ISA flags could otherwise be linked into the
// scalar tier's calls.

struct ScalarLanes
{
    using F = float;
    using D = double;
    using U = std::uint64_t;

    static D widen(F x) { return x; }
    static F narrow(D x) { return static_cast<F>(x); }
    static U bits(D x) { return std::bit_cast<U>(x); }
    static D fromBits(U u) { return std::bit_cast<D>(u); }
    static D splat(double v) { return v; }
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
inline constexpr double kLog2e = 0x1.71547652b82fep0;
/** ln 2 = kLn2Hi + kLn2Lo; kLn2Hi ends in 21 zero bits, so k * kLn2Hi
 *  is exact for every exponent k used here. */
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
/** (v + 1.5 * 2^52) - 1.5 * 2^52 rounds v to an integer (ties to even)
 *  for |v| < 2^51, and that integer sits in the sum's low bits. */
inline constexpr double kRoundShifter = 0x1.8p52;
/** e^a is evaluated at max(a, kExpFloor): e^-200 rounds to float 0. */
inline constexpr double kExpFloor = -200.0;
inline constexpr double kSqrt2 = 0x1.6a09e667f3bcdp0;
/** log1p(t) reduces t above sqrt(2) - 1 by a factor of two. */
inline constexpr double kLog1pSplit = 0x1.a827999fcef32p-2;
inline constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
inline constexpr std::uint64_t kMantissaBits = 0x000fffffffffffffull;
inline constexpr std::uint64_t kOneBits = 0x3ff0000000000000ull;
/** 2^52 as bits: OR-ing an exponent field e < 2^52 in gives 2^52 + e. */
inline constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;
inline constexpr double kTwo52PlusBias = 0x1p52 + 1023.0;

/** e^a for a <= 0 (NaN stays NaN): a = k ln2 + r with |r| <= ln2 / 2,
 *  e^r by its degree-11 Taylor polynomial in Estrin form (truncation
 *  < 7e-15 relative), times 2^k built from the rounded k's bits. */
template <class L>
[[gnu::always_inline]] inline typename L::D
expNonPositive(typename L::D a)
{
    using D = typename L::D;
    a = a < kExpFloor ? kExpFloor : a;
    const D y = a * kLog2e + kRoundShifter;
    const D k = y - kRoundShifter;
    const D r = (a - k * kLn2Hi) - k * kLn2Lo;
    const D r2 = r * r;
    const D r4 = r2 * r2;
    const D r8 = r4 * r4;
    const D q0 = (1.0 + r) + (1.0 / 2 + (1.0 / 6) * r) * r2;
    const D q1 = (1.0 / 24 + (1.0 / 120) * r) +
        (1.0 / 720 + (1.0 / 5040) * r) * r2;
    const D q2 = (1.0 / 40320 + (1.0 / 362880) * r) +
        (1.0 / 3628800 + (1.0 / 39916800) * r) * r2;
    const D p = (q0 + q1 * r4) + q2 * r8;
    return p * L::fromBits((L::bits(y) + 1023) << 52);
}

/** e ln2 + 2 atanh(u) = e ln2 + ln((1 + u) / (1 - u)) for
 *  |u| <= 3 - 2 sqrt(2): the atanh series through u^17 (truncation
 *  < 1e-15 relative), its tail in Estrin form. */
template <class L>
[[gnu::always_inline]] inline typename L::D
lnReduced(typename L::D e, typename L::D u)
{
    using D = typename L::D;
    const D v = u * u;
    const D w = u + u;
    const D v2 = v * v;
    const D v4 = v2 * v2;
    const D tail = ((1.0 / 3 + (1.0 / 5) * v) + (1.0 / 7 + (1.0 / 9) * v) * v2) +
        ((1.0 / 11 + (1.0 / 13) * v) + (1.0 / 15 + (1.0 / 17) * v) * v2) *
            v4;
    return e * kLn2Hi + (e * kLn2Lo + (w + (w * v) * tail));
}

/** ln(1 + t) for 0 <= t <= 1: 2 atanh(t / (t + 2)), or above
 *  sqrt(2) - 1, ln2 + 2 atanh((t - 1) / (t + 3)). */
template <class L>
[[gnu::always_inline]] inline typename L::D
log1pUnit(typename L::D t)
{
    const typename L::D c = t > kLog1pSplit ? L::splat(1.0) : L::splat(0.0);
    return lnReduced<L>(c, (t - c) / (t + (2.0 + c)));
}

/** e^-|x|, the one exp that softplus and logistic share. */
template <class L>
[[gnu::always_inline]] inline typename L::D
expNegAbs(typename L::F x)
{
    return expNonPositive<L>(L::fromBits(L::bits(L::widen(x)) | kSignBit));
}

/** softplus(x) from t = e^-|x|: max(x, 0) + ln(1 + t) between the
 *  +-20 switches, x above, t = e^x below. */
template <class L>
[[gnu::always_inline]] inline typename L::F
softplusOf(typename L::F x, typename L::D t)
{
    using D = typename L::D;
    using F = typename L::F;
    const D xd = L::widen(x);
    const D sp = (xd > 0.0 ? xd : 0.0) + log1pUnit<L>(t);
    const F s =
        x > 20.0f ? x : (x < -20.0f ? L::narrow(t) : L::narrow(sp));
    return x != x ? x : s;
}

/** logistic(x) from t = e^-|x|: 1 / (1 + t) for x >= 0, else
 *  t / (1 + t). */
template <class L>
[[gnu::always_inline]] inline typename L::F
logisticOf(typename L::F x, typename L::D t)
{
    const typename L::D xd = L::widen(x);
    const typename L::F lg =
        L::narrow((xd >= 0.0 ? L::splat(1.0) : t) / (1.0 + t));
    return x != x ? x : lg;
}

/** ln(x) of a float, in double: x = 2^e m with m in [sqrt(2)/2,
 *  sqrt(2)), ln x = e ln2 + 2 atanh((m - 1) / (m + 1)). A float's
 *  double is never subnormal, so e and m come straight from its
 *  bits. */
template <class L>
[[gnu::always_inline]] inline typename L::D
lnOf(typename L::F xf)
{
    using D = typename L::D;
    using U = typename L::U;
    const D x = L::widen(xf);
    const U b = L::bits(x);
    const D m0 = L::fromBits((b & kMantissaBits) | kOneBits);
    const D e0 = L::fromBits((b >> 52) | kTwo52Bits) - kTwo52PlusBias;
    const auto hi = m0 > kSqrt2;
    const D m = hi ? m0 * 0.5 : m0;
    const D e = hi ? e0 + 1.0 : e0;
    const D l = lnReduced<L>(e, (m - 1.0) / (m + 1.0));
    const D special =
        x == 0.0 ? L::splat(-kInf) : (x == kInf ? x : L::splat(kNaN));
    return (x > 0.0) & (x < kInf) ? l : special;
}

/** One element's KL term (see KlArgs); NaN becomes kNaN. */
template <class L>
[[gnu::always_inline]] inline typename L::D
klTermOf(typename L::F mu, typename L::F s, const KlArgs &a)
{
    using D = typename L::D;
    const D sd = L::widen(s);
    const D md = L::widen(mu);
    const D t =
        ((a.logPrior - lnOf<L>(s)) + (sd * sd + md * md) / a.twoPriorVar) -
        0.5;
    return t != t ? L::splat(kNaN) : t;
}

/** One element's KL gradient (see KlArgs). */
template <class L>
[[gnu::always_inline]] inline void
klGradOf(typename L::F mu, typename L::F s, typename L::F ds,
         typename L::F &gmu, typename L::F &grho, const KlArgs &a)
{
    gmu = gmu + (a.scale * mu) * a.invPriorVar;
    grho = grho + (a.scale * (s * a.invPriorVar - 1.0f / s)) * ds;
}

/** Scalar plane-op element (every tier's tail). */
[[gnu::always_inline]] inline void
sigmaPlanesOne(float x, float &sigma, float &dsigma, float *sigma_sq)
{
    const double t = expNegAbs<ScalarLanes>(x);
    sigma = softplusOf<ScalarLanes>(x, t);
    dsigma = logisticOf<ScalarLanes>(x, t);
    if (sigma_sq)
        *sigma_sq = sigma * sigma;
}

/** Scalar KL-op continuation over [i0, n) (every tier's tail). */
[[gnu::always_inline]] inline double
klSumGradTail(const float *mu, const float *sigma, const float *dsigma,
              float *gmu, float *grho, std::size_t i0, std::size_t n,
              const KlArgs &a, double acc)
{
    for (std::size_t i = i0; i < n; ++i) {
        acc += klTermOf<ScalarLanes>(mu[i], sigma[i], a);
        klGradOf<ScalarLanes>(mu[i], sigma[i], dsigma[i], gmu[i], grho[i],
                              a);
    }
    return acc;
}

} // namespace vibnn::accel::kernels::detail

#endif // VIBNN_ACCEL_KERNELS_KERNELS_DETAIL_HH
