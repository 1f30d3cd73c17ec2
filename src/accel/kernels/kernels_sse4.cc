/**
 * @file
 * SSE4.1 tier: 128-bit fallback for x86 CPUs without AVX2. Same
 * structure as the AVX2 tier at half the width, minus the int16 madd
 * fast path (pre-AVX2 hosts are not the throughput target; the s32
 * path keeps them bit-exact and still ~4x the scalar inner loop).
 * Compiled with -msse4.1 on x86 hosts only; runtime dispatch keeps it
 * off CPUs that lack SSE4.1.
 */

#if defined(__x86_64__) || defined(__i386__)

#include <smmintrin.h>

#include "accel/kernels/kernels.hh"
#include "accel/kernels/kernels_detail.hh"

namespace vibnn::accel::kernels
{

namespace
{

inline std::int64_t
hsum64(__m128i v)
{
    return _mm_cvtsi128_si64(v) + _mm_extract_epi64(v, 1);
}

inline __m128i
quantize2(__m128d v, __m128d dmin, __m128d dmax, __m128d half,
          __m128d one)
{
    const __m128d t =
        _mm_round_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m128d d = _mm_sub_pd(v, t);
    const __m128d inc_pos =
        _mm_and_pd(_mm_cmpge_pd(d, half), one);
    const __m128d inc_neg = _mm_and_pd(
        _mm_cmpge_pd(_mm_sub_pd(_mm_setzero_pd(), d), half), one);
    __m128d r = _mm_add_pd(t, _mm_sub_pd(inc_pos, inc_neg));
    r = _mm_min_pd(_mm_max_pd(r, dmin), dmax);
    return _mm_cvttpd_epi32(r); // 2 int32 in the low half
}

void
quantizeDoubleSse4(const double *in, std::int32_t *out, std::size_t n,
                   int frac_bits, std::int32_t raw_min,
                   std::int32_t raw_max)
{
    const double scale = std::ldexp(1.0, frac_bits);
    const __m128d vscale = _mm_set1_pd(scale);
    const __m128d dmin = _mm_set1_pd(static_cast<double>(raw_min));
    const __m128d dmax = _mm_set1_pd(static_cast<double>(raw_max));
    const __m128d half = _mm_set1_pd(0.5);
    const __m128d one = _mm_set1_pd(1.0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d v = _mm_mul_pd(_mm_loadu_pd(in + i), vscale);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + i),
                         quantize2(v, dmin, dmax, half, one));
    }
    for (; i < n; ++i)
        out[i] = detail::quantizeOne(in[i], scale, raw_min, raw_max);
}

void
quantizeFloatSse4(const float *in, std::int32_t *out, std::size_t n,
                  int frac_bits, std::int32_t raw_min,
                  std::int32_t raw_max)
{
    const double scale = std::ldexp(1.0, frac_bits);
    const __m128d vscale = _mm_set1_pd(scale);
    const __m128d dmin = _mm_set1_pd(static_cast<double>(raw_min));
    const __m128d dmax = _mm_set1_pd(static_cast<double>(raw_max));
    const __m128d half = _mm_set1_pd(0.5);
    const __m128d one = _mm_set1_pd(1.0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d v = _mm_mul_pd(
            _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(in + i)))),
            vscale);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + i),
                         quantize2(v, dmin, dmax, half, one));
    }
    for (; i < n; ++i)
        out[i] = detail::quantizeOne(static_cast<double>(in[i]), scale,
                                     raw_min, raw_max);
}

void
sampleWeightsSse4(const std::int32_t *mu, const std::int32_t *sigma,
                  const std::int32_t *eps, std::int32_t *out,
                  std::size_t n, const SampleParams &p)
{
    constexpr std::int64_t kI32Max = 2147483647;
    const std::int64_t prod_max = p.sigmaAbsMax * p.epsAbsMax;
    const std::int64_t sum_max =
        -static_cast<std::int64_t>(p.wMin) + (prod_max >> p.epsShift);
    if (prod_max > kI32Max || sum_max > kI32Max) {
        scalarKernels().sampleWeights(mu, sigma, eps, out, n, p);
        return;
    }

    const __m128i shift = _mm_cvtsi32_si128(p.epsShift);
    const __m128i wmin = _mm_set1_epi32(p.wMin);
    const __m128i wmax = _mm_set1_epi32(p.wMax);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i sv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(sigma + i));
        const __m128i ev = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(eps + i));
        const __m128i mv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(mu + i));
        const __m128i scaled =
            _mm_sra_epi32(_mm_mullo_epi32(sv, ev), shift);
        __m128i w = _mm_add_epi32(mv, scaled);
        w = _mm_min_epi32(_mm_max_epi32(w, wmin), wmax);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i), w);
    }
    for (; i < n; ++i)
        out[i] = detail::sampleOne(mu[i], sigma[i], eps[i], p);
}

void
packInt16Sse4(const std::int32_t *in, std::int16_t *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in + i));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in + i + 4));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_packs_epi32(a, b));
    }
    for (; i < n; ++i)
        out[i] = static_cast<std::int16_t>(in[i]);
}

inline std::int64_t
gemmRowS32x1(const std::int32_t *w, const std::int32_t *x,
             std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m128i wv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(w + k));
        const __m128i xv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(x + k));
        acc = _mm_add_epi64(acc, _mm_mul_epi32(wv, xv));
        acc = _mm_add_epi64(acc,
                            _mm_mul_epi32(_mm_srli_epi64(wv, 32),
                                          _mm_srli_epi64(xv, 32)));
    }
    return hsum64(acc) + detail::dotTail(w, x, k, n);
}

void
rlfCycleCountsSse4(RlfState &st, std::size_t cycles,
                   std::int32_t *counts)
{
    if (st.length > INT16_MAX) { // int16 lane sums would overflow
        scalarKernels().rlfCycleCounts(st, cycles, counts);
        return;
    }
    const std::size_t stride = static_cast<std::size_t>(st.groups) * 8;
    const int n = st.length;
    for (int g = 0; g < st.groups; ++g) {
        std::uint8_t *plane = st.planes + g * st.length;
        std::int32_t *sums = st.sums + g * 8;
        int head = st.head;
        // Per-lane sums live in one 8 x int16 register across the whole
        // burst (popcounts <= length <= 32767); the byte-update stage
        // stays scalar (it is five byte ops), the delta/extract stage
        // is where the scalar reference spends half its time.
        __m128i sum16 = _mm_packs_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(sums)),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(sums + 4)));
        for (std::size_t c = 0; c < cycles; ++c) {
            std::uint64_t up = 0, down = 0;
            detail::rlfStepGroup(plane, n, head, up, down);
            const __m128i up16 = _mm_cvtepu8_epi16(_mm_cvtsi64_si128(
                static_cast<long long>(up)));
            const __m128i dn16 = _mm_cvtepu8_epi16(_mm_cvtsi64_si128(
                static_cast<long long>(down)));
            sum16 = _mm_add_epi16(sum16, _mm_sub_epi16(up16, dn16));
            std::int32_t *row = counts + c * stride + g * 8;
            _mm_storeu_si128(reinterpret_cast<__m128i *>(row),
                             _mm_cvtepi16_epi32(sum16));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(row + 4),
                             _mm_cvtepi16_epi32(
                                 _mm_srli_si128(sum16, 8)));
            head += 2;
            if (head >= n)
                head -= n;
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(sums),
                         _mm_cvtepi16_epi32(sum16));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(sums + 4),
                         _mm_cvtepi16_epi32(_mm_srli_si128(sum16, 8)));
    }
    st.head = static_cast<int>(
        (static_cast<std::size_t>(st.head) + 2 * cycles) %
        static_cast<std::size_t>(st.length));
}

void
wallacePassSse4(double *pool, std::size_t pool_size, std::size_t offset,
                std::size_t stride, double *out)
{
    // The pass is memory-permutation-bound; the 128-bit tier keeps the
    // shared scalar body (the AVX2 tier carries the 4-wide version).
    detail::wallacePassScalar(pool, pool_size, offset, stride, out);
}

void
gemmBatchSse4(const GemmArgs &a)
{
    for (std::size_t o = 0; o < a.outDim; ++o) {
        const std::int32_t *w = a.weights + o * a.ldw;
        const std::int64_t bias = a.bias[o];
        std::int32_t *out_row = a.out + o * a.outNeuronStride;
        for (std::size_t b = 0; b < a.images; ++b) {
            const std::int64_t acc =
                gemmRowS32x1(w, a.acts + b * a.lda, a.inDim);
            out_row[b * a.outImageStride] =
                gemmFinish(acc, bias, a.finish);
        }
    }
}

/** One lane-8 dot product as a lo/hi __m128 pair: lo carries lanes
 *  k mod 8 in 0..3, hi lanes 4..7 — the same lane decomposition as the
 *  scalar reference and one AVX2 register. */
inline float
dotLanes8Sse4(const float *a, const float *b, std::size_t n)
{
    __m128 lo = _mm_setzero_ps();
    __m128 hi = _mm_setzero_ps();
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        lo = _mm_add_ps(lo, _mm_mul_ps(_mm_loadu_ps(a + k),
                                       _mm_loadu_ps(b + k)));
        hi = _mm_add_ps(hi, _mm_mul_ps(_mm_loadu_ps(a + k + 4),
                                       _mm_loadu_ps(b + k + 4)));
    }
    alignas(16) float lanes[8];
    _mm_store_ps(lanes, lo);
    _mm_store_ps(lanes + 4, hi);
    detail::dotLanes8TailF32(lanes, a, b, k, n);
    return detail::reduceLanes8F32(lanes);
}

void
gemmBatchF32Sse4(const GemmF32Args &g)
{
    for (std::size_t i = 0; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        float *crow = g.c + i * g.ldc;
        for (std::size_t j = 0; j < g.n; ++j) {
            const float dot = dotLanes8Sse4(arow, g.b + j * g.ldb, g.k);
            crow[j] = g.bias ? dot + g.bias[j] : dot;
        }
    }
}

/** crow[t] += s * brow[t]: each element is an independent sequential
 *  chain, so vector width never reorders the accumulation. */
inline void
axpySse4(float *crow, float s, const float *brow, std::size_t n)
{
    const __m128 sv = _mm_set1_ps(s);
    std::size_t t = 0;
    for (; t + 4 <= n; t += 4)
        _mm_storeu_ps(crow + t,
                      _mm_add_ps(_mm_loadu_ps(crow + t),
                                 _mm_mul_ps(sv, _mm_loadu_ps(brow + t))));
    detail::axpyTailF32(crow, s, brow, t, n);
}

void
gemmAtBF32Sse4(const GemmF32Args &g)
{
    for (std::size_t i = 0; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        const float *brow = g.b + i * g.ldb;
        for (std::size_t j = 0; j < g.n; ++j) {
            const float aij = arow[j];
            if (g.colSums)
                g.colSums[j] += aij;
            axpySse4(g.c + j * g.ldc, aij, brow, g.k);
        }
    }
}

void
gemmABF32Sse4(const GemmF32Args &g)
{
    for (std::size_t i = 0; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        float *crow = g.c + i * g.ldc;
        for (std::size_t t = 0; t < g.k; ++t)
            crow[t] = 0.0f;
        for (std::size_t j = 0; j < g.n; ++j)
            axpySse4(crow, arow[j], g.b + j * g.ldb, g.k);
    }
}

void
adamStepF32Sse4(float *params, const float *grads, float *m, float *v,
                std::size_t n, const AdamStepArgs &a)
{
    const __m128 lr = _mm_set1_ps(a.lr);
    const __m128 b1 = _mm_set1_ps(a.beta1);
    const __m128 b2 = _mm_set1_ps(a.beta2);
    const __m128 ob1 = _mm_set1_ps(1.0f - a.beta1);
    const __m128 ob2 = _mm_set1_ps(1.0f - a.beta2);
    const __m128 bc1 = _mm_set1_ps(a.bc1);
    const __m128 bc2 = _mm_set1_ps(a.bc2);
    const __m128 eps = _mm_set1_ps(a.epsilon);
    const __m128 gs = _mm_set1_ps(a.gradScale);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 g = _mm_mul_ps(_mm_loadu_ps(grads + i), gs);
        __m128 mv = _mm_loadu_ps(m + i);
        __m128 vv = _mm_loadu_ps(v + i);
        mv = _mm_add_ps(_mm_mul_ps(b1, mv), _mm_mul_ps(ob1, g));
        vv = _mm_add_ps(_mm_mul_ps(b2, vv),
                        _mm_mul_ps(_mm_mul_ps(ob2, g), g));
        _mm_storeu_ps(m + i, mv);
        _mm_storeu_ps(v + i, vv);
        const __m128 mh = _mm_div_ps(mv, bc1);
        const __m128 vh = _mm_div_ps(vv, bc2);
        const __m128 upd = _mm_div_ps(
            _mm_mul_ps(lr, mh), _mm_add_ps(_mm_sqrt_ps(vh), eps));
        _mm_storeu_ps(params + i,
                      _mm_sub_ps(_mm_loadu_ps(params + i), upd));
    }
    for (; i < n; ++i)
        detail::adamOneF32(params[i], grads[i], m[i], v[i], a);
}

/**
 * The plane and KL ops on two double lanes: kernels_detail.hh's generic
 * bodies over GCC vector types. The float side is a four-lane vector
 * whose upper two lanes are loaded as zero and never stored, so each
 * float lane pairs with the double lane of the same index.
 */
typedef float V4F __attribute__((vector_size(16)));
typedef double V2D __attribute__((vector_size(16)));
typedef std::uint64_t V2U __attribute__((vector_size(16)));

struct Sse4Lanes
{
    using F = V4F;
    using D = V2D;
    using U = V2U;

    static D widen(F x) { return (D)_mm_cvtps_pd((__m128)x); }
    static F narrow(D x) { return (F)_mm_cvtpd_ps((__m128d)x); }
    static U bits(D x) { return (U)x; }
    static D fromBits(U u) { return (D)u; }
    static D splat(double v) { return (D)_mm_set1_pd(v); }
};

V4F
load2(const float *p)
{
    return (V4F)_mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
}

void
store2(float *p, V4F v)
{
    _mm_storel_epi64(reinterpret_cast<__m128i *>(p),
                     _mm_castps_si128((__m128)v));
}

void
sigmaPlanesSse4(const float *rho, float *sigma, float *dsigma,
                float *sigma_sq, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const V4F x = load2(rho + i);
        const V2D t = detail::expNegAbs<Sse4Lanes>(x);
        const V4F s = detail::softplusOf<Sse4Lanes>(x, t);
        store2(sigma + i, s);
        store2(dsigma + i, detail::logisticOf<Sse4Lanes>(x, t));
        if (sigma_sq)
            store2(sigma_sq + i, s * s);
    }
    for (; i < n; ++i)
        detail::sigmaPlanesOne(rho[i], sigma[i], dsigma[i],
                               sigma_sq ? sigma_sq + i : nullptr);
}

double
klSumGradSse4(const float *mu, const float *sigma, const float *dsigma,
              float *gmu, float *grho, std::size_t n, const KlArgs &args,
              double acc)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const V4F m = load2(mu + i);
        const V4F s = load2(sigma + i);
        const V2D term = detail::klTermOf<Sse4Lanes>(m, s, args);
        acc += term[0];
        acc += term[1];
        V4F gm = load2(gmu + i);
        V4F gr = load2(grho + i);
        detail::klGradOf<Sse4Lanes>(m, s, load2(dsigma + i), gm, gr, args);
        store2(gmu + i, gm);
        store2(grho + i, gr);
    }
    return detail::klSumGradTail(mu, sigma, dsigma, gmu, grho, i, n, args,
                                 acc);
}

} // namespace

const KernelOps &
sse4Kernels()
{
    static const KernelOps ops = {
        "sse4",           &quantizeDoubleSse4, &quantizeFloatSse4,
        &sampleWeightsSse4, &packInt16Sse4,    &gemmBatchSse4,
        &rlfCycleCountsSse4, &wallacePassSse4,
        &gemmBatchF32Sse4, &gemmAtBF32Sse4,    &gemmABF32Sse4,
        &adamStepF32Sse4,  &sigmaPlanesSse4,   &klSumGradSse4,
    };
    return ops;
}

} // namespace vibnn::accel::kernels

#endif // x86
