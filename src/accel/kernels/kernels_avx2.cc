/**
 * @file
 * AVX2 tier: 256-bit versions of the kernel-layer entry points.
 *
 * GEMM runs 32x32->64 multiplies (mul_epi32 over even/odd dword
 * pairs) with int64 accumulators — exact for every admissible format —
 * and a 4-image register tile so one weight load serves four
 * activation rows. When the caller provides int16-packed operands
 * (GemmArgs::weights16/acts16, with the no-overflow guarantee that
 * implies) the inner loop switches to madd_epi16: 16 MACs per
 * instruction with 32-bit pair sums, widened to int64 at reduction.
 * Tail lanes and ineligible formats drop to the shared scalar bodies
 * in kernels_detail.hh, so every path is bit-exact with the scalar
 * tier by construction; integer dot products are order-invariant, so
 * the reordered SIMD accumulation changes nothing.
 *
 * Rounding in the quantize kernels reproduces std::round (half away
 * from zero) exactly: truncate, take the exact fractional remainder
 * (Sterbenz — t and v are within a factor of two), and bump by the
 * remainder's comparison against 0.5. Saturation happens in the double
 * domain against the same bounds as FixedPointFormat::fromReal.
 *
 * The f32 backward GEMMs hold a 4-row x 16-column tile of C in eight
 * registers for the whole reduction, so C crosses the caches once per
 * call instead of once per reduction step. The tile vectorizes across
 * output elements only: each element's reduction stays sequential,
 * multiply then add, as in the scalar reference.
 *
 * This TU is compiled with -mavx2 on x86 hosts only (CMake per-file
 * flags); runtime dispatch guarantees nothing here executes on a CPU
 * without AVX2.
 */

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "accel/kernels/kernels.hh"
#include "accel/kernels/kernels_detail.hh"

namespace vibnn::accel::kernels
{

namespace
{

inline std::int64_t
hsum64(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

/** Sum 8 int32 lanes into one int64 (each lane widened first, so the
 *  reduction itself cannot overflow). */
inline std::int64_t
hsum32to64(__m256i v)
{
    const __m256i lo =
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
    const __m256i hi =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
    return hsum64(_mm256_add_epi64(lo, hi));
}

// ------------------------------------------------------------- quantize

/** Round-half-away-from-zero + saturate + narrow for 4 doubles. */
inline __m128i
quantize4(__m256d v, __m256d dmin, __m256d dmax, __m256d half,
          __m256d one)
{
    const __m256d t =
        _mm256_round_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d d = _mm256_sub_pd(v, t); // exact remainder
    const __m256d inc_pos =
        _mm256_and_pd(_mm256_cmp_pd(d, half, _CMP_GE_OQ), one);
    const __m256d inc_neg = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_sub_pd(_mm256_setzero_pd(), d), half,
                      _CMP_GE_OQ),
        one);
    __m256d r = _mm256_add_pd(t, _mm256_sub_pd(inc_pos, inc_neg));
    r = _mm256_min_pd(_mm256_max_pd(r, dmin), dmax);
    return _mm256_cvttpd_epi32(r); // integral and in range: exact
}

void
quantizeDoubleAvx2(const double *in, std::int32_t *out, std::size_t n,
                   int frac_bits, std::int32_t raw_min,
                   std::int32_t raw_max)
{
    const double scale = std::ldexp(1.0, frac_bits);
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d dmin = _mm256_set1_pd(static_cast<double>(raw_min));
    const __m256d dmax = _mm256_set1_pd(static_cast<double>(raw_max));
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d one = _mm256_set1_pd(1.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v =
            _mm256_mul_pd(_mm256_loadu_pd(in + i), vscale);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         quantize4(v, dmin, dmax, half, one));
    }
    for (; i < n; ++i)
        out[i] = detail::quantizeOne(in[i], scale, raw_min, raw_max);
}

void
quantizeFloatAvx2(const float *in, std::int32_t *out, std::size_t n,
                  int frac_bits, std::int32_t raw_min,
                  std::int32_t raw_max)
{
    const double scale = std::ldexp(1.0, frac_bits);
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d dmin = _mm256_set1_pd(static_cast<double>(raw_min));
    const __m256d dmax = _mm256_set1_pd(static_cast<double>(raw_max));
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d one = _mm256_set1_pd(1.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_mul_pd(
            _mm256_cvtps_pd(
                _mm_loadu_ps(in + i)),
            vscale);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         quantize4(v, dmin, dmax, half, one));
    }
    for (; i < n; ++i)
        out[i] = detail::quantizeOne(static_cast<double>(in[i]), scale,
                                     raw_min, raw_max);
}

// ------------------------------------------------------- weight sampling

void
sampleWeightsAvx2(const std::int32_t *mu, const std::int32_t *sigma,
                  const std::int32_t *eps, std::int32_t *out,
                  std::size_t n, const SampleParams &p)
{
    // 32-bit fast-path eligibility: the mullo product and the mu +
    // scaled sum must both provably fit int32. |mu| is bounded by the
    // weight grid it was saturated onto (wMin is the negative extreme).
    constexpr std::int64_t kI32Max = 2147483647;
    const std::int64_t prod_max = p.sigmaAbsMax * p.epsAbsMax;
    const std::int64_t sum_max =
        -static_cast<std::int64_t>(p.wMin) + (prod_max >> p.epsShift);
    if (prod_max > kI32Max || sum_max > kI32Max) {
        scalarKernels().sampleWeights(mu, sigma, eps, out, n, p);
        return;
    }

    const __m128i shift = _mm_cvtsi32_si128(p.epsShift);
    const __m256i wmin = _mm256_set1_epi32(p.wMin);
    const __m256i wmax = _mm256_set1_epi32(p.wMax);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i sv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(sigma + i));
        const __m256i ev = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(eps + i));
        const __m256i mv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(mu + i));
        const __m256i scaled =
            _mm256_sra_epi32(_mm256_mullo_epi32(sv, ev), shift);
        __m256i w = _mm256_add_epi32(mv, scaled);
        w = _mm256_min_epi32(_mm256_max_epi32(w, wmin), wmax);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), w);
    }
    for (; i < n; ++i)
        out[i] = detail::sampleOne(mu[i], sigma[i], eps[i], p);
}

// ----------------------------------------------------------------- pack

void
packInt16Avx2(const std::int32_t *in, std::int16_t *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + i + 8));
        // packs interleaves 128-bit halves; permute restores order.
        // Saturation never fires: the caller guarantees the values fit.
        const __m256i p = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(a, b), _MM_SHUFFLE(3, 1, 2, 0));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), p);
    }
    for (; i < n; ++i)
        out[i] = static_cast<std::int16_t>(in[i]);
}

// ----------------------------------------------------------------- GEMM

/** One weight row against four activation rows, 32x32->64 products. */
inline void
gemmRowS32x4(const std::int32_t *w, const std::int32_t *const x[4],
             std::size_t n, std::int64_t acc_out[4])
{
    __m256i acc[4];
    for (int i = 0; i < 4; ++i)
        acc[i] = _mm256_setzero_si256();
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + k));
        const __m256i wo = _mm256_srli_epi64(wv, 32);
        for (int i = 0; i < 4; ++i) {
            const __m256i xv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(x[i] + k));
            const __m256i xo = _mm256_srli_epi64(xv, 32);
            acc[i] = _mm256_add_epi64(acc[i],
                                      _mm256_mul_epi32(wv, xv));
            acc[i] = _mm256_add_epi64(acc[i],
                                      _mm256_mul_epi32(wo, xo));
        }
    }
    for (int i = 0; i < 4; ++i)
        acc_out[i] = hsum64(acc[i]) + detail::dotTail(w, x[i], k, n);
}

inline std::int64_t
gemmRowS32x1(const std::int32_t *w, const std::int32_t *x,
             std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + k));
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(x + k));
        acc = _mm256_add_epi64(acc, _mm256_mul_epi32(wv, xv));
        acc = _mm256_add_epi64(
            acc, _mm256_mul_epi32(_mm256_srli_epi64(wv, 32),
                                  _mm256_srli_epi64(xv, 32)));
    }
    return hsum64(acc) + detail::dotTail(w, x, k, n);
}

/** madd path: one int16 weight row against four int16 activation
 *  rows; the caller's GemmArgs contract makes 32-bit pair-sum
 *  accumulation overflow-free. Tails read the int32 originals. */
inline void
gemmRowS16x4(const std::int16_t *w16, const std::int16_t *const x16[4],
             const std::int32_t *w, const std::int32_t *const x[4],
             std::size_t n, std::int64_t acc_out[4])
{
    __m256i acc[4];
    for (int i = 0; i < 4; ++i)
        acc[i] = _mm256_setzero_si256();
    std::size_t k = 0;
    for (; k + 16 <= n; k += 16) {
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w16 + k));
        for (int i = 0; i < 4; ++i) {
            const __m256i xv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(x16[i] + k));
            acc[i] = _mm256_add_epi32(acc[i],
                                      _mm256_madd_epi16(wv, xv));
        }
    }
    for (int i = 0; i < 4; ++i)
        acc_out[i] =
            hsum32to64(acc[i]) + detail::dotTail(w, x[i], k, n);
}

inline std::int64_t
gemmRowS16x1(const std::int16_t *w16, const std::int16_t *x16,
             const std::int32_t *w, const std::int32_t *x,
             std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t k = 0;
    for (; k + 16 <= n; k += 16) {
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w16 + k));
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(x16 + k));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wv, xv));
    }
    return hsum32to64(acc) + detail::dotTail(w, x, k, n);
}

void
gemmBatchAvx2(const GemmArgs &a)
{
    const bool use16 = a.weights16 != nullptr && a.acts16 != nullptr;
    for (std::size_t o = 0; o < a.outDim; ++o) {
        const std::int32_t *w = a.weights + o * a.ldw;
        const std::int16_t *w16 =
            use16 ? a.weights16 + o * a.ldw : nullptr;
        const std::int64_t bias = a.bias[o];
        std::int32_t *out_row = a.out + o * a.outNeuronStride;

        std::size_t b = 0;
        for (; b + 4 <= a.images; b += 4) {
            const std::int32_t *x[4];
            for (int i = 0; i < 4; ++i)
                x[i] = a.acts + (b + i) * a.lda;
            std::int64_t acc[4];
            if (use16) {
                const std::int16_t *x16[4];
                for (int i = 0; i < 4; ++i)
                    x16[i] = a.acts16 + (b + i) * a.lda;
                gemmRowS16x4(w16, x16, w, x, a.inDim, acc);
            } else {
                gemmRowS32x4(w, x, a.inDim, acc);
            }
            for (int i = 0; i < 4; ++i)
                out_row[(b + i) * a.outImageStride] =
                    gemmFinish(acc[i], bias, a.finish);
        }
        for (; b < a.images; ++b) {
            const std::int32_t *x = a.acts + b * a.lda;
            const std::int64_t acc =
                use16 ? gemmRowS16x1(w16, a.acts16 + b * a.lda, w, x,
                                     a.inDim)
                      : gemmRowS32x1(w, x, a.inDim);
            out_row[b * a.outImageStride] =
                gemmFinish(acc, bias, a.finish);
        }
    }
}

// ------------------------------------------------------ eps generation

void
rlfCycleCountsAvx2(RlfState &st, std::size_t cycles,
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
        // All eight lane sums ride in one 8 x int16 register for the
        // whole burst (popcounts <= length <= 32767); per cycle the
        // flipped-bit deltas widen from the packed byte counters and
        // the row lands with a single 256-bit convert + store.
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
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(counts + c * stride + g * 8),
                _mm256_cvtepi16_epi32(sum16));
            head += 2;
            if (head >= n)
                head -= n;
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(sums),
                            _mm256_cvtepi16_epi32(sum16));
    }
    st.head = static_cast<int>(
        (static_cast<std::size_t>(st.head) + 2 * cycles) %
        static_cast<std::size_t>(st.length));
}

void
wallacePassAvx2(double *pool, std::size_t pool_size, std::size_t offset,
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

    std::size_t q = 0;
    // Four quadruples in flight: their 16 permutation slots are
    // distinct whenever the pool holds >= 16 entries (stride is coprime
    // to the pool size), so the block's reads never see the block's
    // writes — exactly the scalar order's semantics. Per-lane
    // arithmetic matches detail::wallaceQuad, so the tier is bit-exact.
    if (pool_size >= 16) {
        const __m256d half = _mm256_set1_pd(0.5);
        for (; q + 4 <= quads; q += 4) {
            std::size_t idx[16];
            for (int i = 0; i < 16; ++i)
                idx[i] = advance();
            const __m256d x0 = _mm256_set_pd(
                pool[idx[12]], pool[idx[8]], pool[idx[4]], pool[idx[0]]);
            const __m256d x1 = _mm256_set_pd(
                pool[idx[13]], pool[idx[9]], pool[idx[5]], pool[idx[1]]);
            const __m256d x2 = _mm256_set_pd(pool[idx[14]],
                                             pool[idx[10]],
                                             pool[idx[6]],
                                             pool[idx[2]]);
            const __m256d x3 = _mm256_set_pd(pool[idx[15]],
                                             pool[idx[11]],
                                             pool[idx[7]],
                                             pool[idx[3]]);
            const __m256d t = _mm256_mul_pd(
                half, _mm256_add_pd(
                          _mm256_add_pd(_mm256_add_pd(x0, x1), x2),
                          x3));
            alignas(32) double ys[4][4];
            _mm256_store_pd(ys[0], _mm256_sub_pd(t, x0));
            _mm256_store_pd(ys[1], _mm256_sub_pd(t, x1));
            _mm256_store_pd(ys[2], _mm256_sub_pd(x2, t));
            _mm256_store_pd(ys[3], _mm256_sub_pd(x3, t));
            for (int l = 0; l < 4; ++l)
                for (int j = 0; j < 4; ++j)
                    pool[idx[4 * l + j]] = ys[j][l];
            if (out)
                for (int l = 0; l < 4; ++l)
                    for (int j = 0; j < 4; ++j)
                        out[4 * (q + l) + j] = ys[j][l];
        }
    }
    for (; q < quads; ++q) {
        const std::size_t idx[4] = {advance(), advance(), advance(),
                                    advance()};
        detail::wallaceQuad(pool, idx, out ? out + 4 * q : nullptr);
    }
}

/** Finish one lane-8 accumulator: spill, run the scalar tail over
 *  [k, n), reduce with the canonical tree. Spilling keeps the tail and
 *  reduction literally the scalar reference — bit-exact for free. */
inline float
finishDotLanes8(__m256 acc, const float *a, const float *b,
                std::size_t k, std::size_t n)
{
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, acc);
    detail::dotLanes8TailF32(lanes, a, b, k, n);
    return detail::reduceLanes8F32(lanes);
}

void
gemmBatchF32Avx2(const GemmF32Args &g)
{
    for (std::size_t i = 0; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        float *crow = g.c + i * g.ldc;
        std::size_t j = 0;
        // 4 weight rows per activation load: the row register feeds
        // four independent lane-8 accumulators (each one keeps the
        // scalar lane decomposition, so the tile is purely ILP).
        for (; j + 4 <= g.n; j += 4) {
            const float *b0 = g.b + j * g.ldb;
            const float *b1 = b0 + g.ldb;
            const float *b2 = b1 + g.ldb;
            const float *b3 = b2 + g.ldb;
            __m256 acc0 = _mm256_setzero_ps();
            __m256 acc1 = _mm256_setzero_ps();
            __m256 acc2 = _mm256_setzero_ps();
            __m256 acc3 = _mm256_setzero_ps();
            std::size_t k = 0;
            for (; k + 8 <= g.k; k += 8) {
                const __m256 av = _mm256_loadu_ps(arow + k);
                acc0 = _mm256_add_ps(
                    acc0, _mm256_mul_ps(av, _mm256_loadu_ps(b0 + k)));
                acc1 = _mm256_add_ps(
                    acc1, _mm256_mul_ps(av, _mm256_loadu_ps(b1 + k)));
                acc2 = _mm256_add_ps(
                    acc2, _mm256_mul_ps(av, _mm256_loadu_ps(b2 + k)));
                acc3 = _mm256_add_ps(
                    acc3, _mm256_mul_ps(av, _mm256_loadu_ps(b3 + k)));
            }
            const float d0 = finishDotLanes8(acc0, arow, b0, k, g.k);
            const float d1 = finishDotLanes8(acc1, arow, b1, k, g.k);
            const float d2 = finishDotLanes8(acc2, arow, b2, k, g.k);
            const float d3 = finishDotLanes8(acc3, arow, b3, k, g.k);
            if (g.bias) {
                crow[j + 0] = d0 + g.bias[j + 0];
                crow[j + 1] = d1 + g.bias[j + 1];
                crow[j + 2] = d2 + g.bias[j + 2];
                crow[j + 3] = d3 + g.bias[j + 3];
            } else {
                crow[j + 0] = d0;
                crow[j + 1] = d1;
                crow[j + 2] = d2;
                crow[j + 3] = d3;
            }
        }
        for (; j < g.n; ++j) {
            const float *brow = g.b + j * g.ldb;
            __m256 acc = _mm256_setzero_ps();
            std::size_t k = 0;
            for (; k + 8 <= g.k; k += 8)
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_loadu_ps(arow + k),
                                       _mm256_loadu_ps(brow + k)));
            const float dot = finishDotLanes8(acc, arow, brow, k, g.k);
            crow[j] = g.bias ? dot + g.bias[j] : dot;
        }
    }
}

inline void
axpyAvx2(float *crow, float s, const float *brow, std::size_t n)
{
    const __m256 sv = _mm256_set1_ps(s);
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8)
        _mm256_storeu_ps(
            crow + t,
            _mm256_add_ps(_mm256_loadu_ps(crow + t),
                          _mm256_mul_ps(sv, _mm256_loadu_ps(brow + t))));
    detail::axpyTailF32(crow, s, brow, t, n);
}

/** One register tile of a backward GEMM: rows r < 4 of c, columns
 *  [0, 16) (Wide) or [0, 8), get c[r] (+)= sum over p < depth of
 *  a[r * ra + p * pa] * b[p], p walked in order. The tile starts from C
 *  (Accumulate) or from 0.0f, and is stored once at the end. Named
 *  accumulators, not an array: GCC keeps an array tile in registers
 *  but also stores it to the stack on every step. */
template <bool Wide, bool Accumulate>
inline void
tile4RowsAvx2(const float *a, std::size_t ra, std::size_t pa,
              const float *b, std::size_t ldb, std::size_t depth,
              float *c, std::size_t ldc)
{
    float *c0 = c, *c1 = c0 + ldc, *c2 = c1 + ldc, *c3 = c2 + ldc;
    const auto start = [](const float *row) {
        return Accumulate ? _mm256_loadu_ps(row) : _mm256_setzero_ps();
    };
    // Row r's columns [0, 8) in lo<r>, [8, 16) in hi<r>.
    __m256 lo0 = start(c0), lo1 = start(c1), lo2 = start(c2),
           lo3 = start(c3);
    __m256 hi0 = lo0, hi1 = lo1, hi2 = lo2, hi3 = lo3;
    if constexpr (Wide) {
        hi0 = start(c0 + 8);
        hi1 = start(c1 + 8);
        hi2 = start(c2 + 8);
        hi3 = start(c3 + 8);
    }
    for (std::size_t p = 0; p < depth; ++p) {
        const float *ap = a + p * pa;
        const float *bp = b + p * ldb;
        const __m256 bl = _mm256_loadu_ps(bp);
        const __m256 bh = Wide ? _mm256_loadu_ps(bp + 8) : bl;
        const auto step = [&](__m256 &lo, __m256 &hi, const float *s) {
            const __m256 sv = _mm256_broadcast_ss(s);
            lo = _mm256_add_ps(lo, _mm256_mul_ps(sv, bl));
            if constexpr (Wide)
                hi = _mm256_add_ps(hi, _mm256_mul_ps(sv, bh));
        };
        step(lo0, hi0, ap);
        step(lo1, hi1, ap + ra);
        step(lo2, hi2, ap + 2 * ra);
        step(lo3, hi3, ap + 3 * ra);
    }
    _mm256_storeu_ps(c0, lo0);
    _mm256_storeu_ps(c1, lo1);
    _mm256_storeu_ps(c2, lo2);
    _mm256_storeu_ps(c3, lo3);
    if constexpr (Wide) {
        _mm256_storeu_ps(c0 + 8, hi0);
        _mm256_storeu_ps(c1 + 8, hi1);
        _mm256_storeu_ps(c2 + 8, hi2);
        _mm256_storeu_ps(c3 + 8, hi3);
    }
}

/** Four output rows of a backward GEMM (see tile4RowsAvx2) over all k
 *  columns: 16-wide tiles, one 8-wide tile, then the scalar axpy tail.
 *  Every element sees the scalar reference's operations in its order,
 *  so the tiling only changes how often C crosses the caches. */
template <bool Accumulate>
void
rows4Avx2(const float *a, std::size_t ra, std::size_t pa, const float *b,
          std::size_t ldb, std::size_t depth, float *c, std::size_t ldc,
          std::size_t k)
{
    std::size_t t = 0;
    for (; t + 16 <= k; t += 16)
        tile4RowsAvx2<true, Accumulate>(a, ra, pa, b + t, ldb, depth,
                                        c + t, ldc);
    if (t + 8 <= k) {
        tile4RowsAvx2<false, Accumulate>(a, ra, pa, b + t, ldb, depth,
                                         c + t, ldc);
        t += 8;
    }
    if (t == k)
        return;
    if (!Accumulate)
        for (std::size_t r = 0; r < 4; ++r)
            for (std::size_t u = t; u < k; ++u)
                c[r * ldc + u] = 0.0f;
    for (std::size_t p = 0; p < depth; ++p)
        for (std::size_t r = 0; r < 4; ++r)
            detail::axpyTailF32(c + r * ldc, a[r * ra + p * pa],
                                b + p * ldb, t, k);
}

void
gemmAtBF32Avx2(const GemmF32Args &g)
{
    if (g.colSums)
        for (std::size_t i = 0; i < g.m; ++i)
            for (std::size_t j = 0; j < g.n; ++j)
                g.colSums[j] += g.a[i * g.lda + j];
    // Output rows j..j+3 reduce over the minibatch rows i: a[i][j + r]
    // sits at a + r + i * lda.
    std::size_t j = 0;
    for (; j + 4 <= g.n; j += 4)
        rows4Avx2<true>(g.a + j, 1, g.lda, g.b, g.ldb, g.m,
                        g.c + j * g.ldc, g.ldc, g.k);
    for (; j < g.n; ++j)
        for (std::size_t i = 0; i < g.m; ++i)
            axpyAvx2(g.c + j * g.ldc, g.a[i * g.lda + j], g.b + i * g.ldb,
                     g.k);
}

void
gemmABF32Avx2(const GemmF32Args &g)
{
    // Output rows i..i+3 reduce over j: a[i + r][j] sits at
    // a + r * lda + j.
    std::size_t i = 0;
    for (; i + 4 <= g.m; i += 4)
        rows4Avx2<false>(g.a + i * g.lda, g.lda, 1, g.b, g.ldb, g.n,
                         g.c + i * g.ldc, g.ldc, g.k);
    for (; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        float *crow = g.c + i * g.ldc;
        for (std::size_t t = 0; t < g.k; ++t)
            crow[t] = 0.0f;
        for (std::size_t j = 0; j < g.n; ++j)
            axpyAvx2(crow, arow[j], g.b + j * g.ldb, g.k);
    }
}

void
adamStepF32Avx2(float *params, const float *grads, float *m, float *v,
                std::size_t n, const AdamStepArgs &a)
{
    const __m256 lr = _mm256_set1_ps(a.lr);
    const __m256 b1 = _mm256_set1_ps(a.beta1);
    const __m256 b2 = _mm256_set1_ps(a.beta2);
    const __m256 ob1 = _mm256_set1_ps(1.0f - a.beta1);
    const __m256 ob2 = _mm256_set1_ps(1.0f - a.beta2);
    const __m256 bc1 = _mm256_set1_ps(a.bc1);
    const __m256 bc2 = _mm256_set1_ps(a.bc2);
    const __m256 eps = _mm256_set1_ps(a.epsilon);
    const __m256 gs = _mm256_set1_ps(a.gradScale);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 g = _mm256_mul_ps(_mm256_loadu_ps(grads + i), gs);
        __m256 mv = _mm256_loadu_ps(m + i);
        __m256 vv = _mm256_loadu_ps(v + i);
        mv = _mm256_add_ps(_mm256_mul_ps(b1, mv), _mm256_mul_ps(ob1, g));
        vv = _mm256_add_ps(_mm256_mul_ps(b2, vv),
                           _mm256_mul_ps(_mm256_mul_ps(ob2, g), g));
        _mm256_storeu_ps(m + i, mv);
        _mm256_storeu_ps(v + i, vv);
        const __m256 mh = _mm256_div_ps(mv, bc1);
        const __m256 vh = _mm256_div_ps(vv, bc2);
        const __m256 upd = _mm256_div_ps(
            _mm256_mul_ps(lr, mh),
            _mm256_add_ps(_mm256_sqrt_ps(vh), eps));
        _mm256_storeu_ps(params + i,
                         _mm256_sub_ps(_mm256_loadu_ps(params + i), upd));
    }
    for (; i < n; ++i)
        detail::adamOneF32(params[i], grads[i], m[i], v[i], a);
}

} // namespace

// The plane and KL ops live in kernels_avx2_sigma.cc.
void sigmaPlanesAvx2(const float *rho, float *sigma, float *dsigma,
                     float *sigma_sq, std::size_t n);
double klSumGradAvx2(const float *mu, const float *sigma,
                     const float *dsigma, float *gmu, float *grho,
                     std::size_t n, const KlArgs &args, double acc);

const KernelOps &
avx2Kernels()
{
    static const KernelOps ops = {
        "avx2",           &quantizeDoubleAvx2, &quantizeFloatAvx2,
        &sampleWeightsAvx2, &packInt16Avx2,    &gemmBatchAvx2,
        &rlfCycleCountsAvx2, &wallacePassAvx2,
        &gemmBatchF32Avx2, &gemmAtBF32Avx2,    &gemmABF32Avx2,
        &adamStepF32Avx2,  &sigmaPlanesAvx2,   &klSumGradAvx2,
    };
    return ops;
}

// The avx512 tier's table (kernels_avx512.cc returns it): its f32 GEMM,
// plane and KL entries are that file's; its inference entries and Adam
// are this tier's own functions, so serving runs the same code on
// either tier. A constant-initialized object, not a function: this
// file's code and every kernel's address stay as they were without the
// tier.
void gemmBatchF32Avx512(const GemmF32Args &g);
void gemmAtBF32Avx512(const GemmF32Args &g);
void gemmABF32Avx512(const GemmF32Args &g);
void sigmaPlanesAvx512(const float *rho, float *sigma, float *dsigma,
                       float *sigma_sq, std::size_t n);
double klSumGradAvx512(const float *mu, const float *sigma,
                       const float *dsigma, float *gmu, float *grho,
                       std::size_t n, const KlArgs &args, double acc);

extern const KernelOps avx512Table;
constinit const KernelOps avx512Table = {
    "avx512",           &quantizeDoubleAvx2,  &quantizeFloatAvx2,
    &sampleWeightsAvx2, &packInt16Avx2,       &gemmBatchAvx2,
    &rlfCycleCountsAvx2, &wallacePassAvx2,
    &gemmBatchF32Avx512, &gemmAtBF32Avx512,   &gemmABF32Avx512,
    &adamStepF32Avx2,    &sigmaPlanesAvx512,  &klSumGradAvx512,
};

} // namespace vibnn::accel::kernels

#endif // x86
