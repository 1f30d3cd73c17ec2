/**
 * @file
 * AVX-512 tier (F, VL, DQ, BW): 512-bit versions of five of the training
 * path's entries. The tier's seven inference entries and its Adam step
 * (memory-bound, no faster on 16 lanes) are the avx2 tier's own
 * functions — its table sits beside avx2Kernels() in kernels_avx2.cc —
 * so serving runs the same code on either tier.
 *
 * Every entry keeps the scalar reference's per-element operations in
 * their order, under the rules the avx2 tier keeps:
 *
 *   gemmBatchF32  two A rows share one zmm, row i in the low half and
 *                 row i + 1 in the high half, and each 8-float B segment
 *                 is broadcast to both halves. Each half is then one
 *                 lane-8 accumulator with the scalar lane decomposition
 *                 (lane = k mod 8), finished by the scalar tail and the
 *                 canonical reduction tree.
 *   gemmAtBF32,   a 4-row x 32-column tile of C in eight zmm registers,
 *   gemmABF32     then 16- and 8-column tiles and the scalar tail; each
 *                 element's reduction stays sequential, multiply then
 *                 add.
 *   sigmaPlanes,  kernels_detail.hh's generic bodies on 8 double lanes;
 *   klSumGrad     the KL op adds its terms one at a time, in index
 *                 order.
 *
 * This TU is compiled with -mavx512f -mavx512vl -mavx512dq -mavx512bw
 * -ffp-contract=off on x86 hosts only (CMake per-file flags); runtime
 * dispatch guarantees nothing here executes on a CPU without all four.
 */

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "accel/kernels/kernels.hh"
#include "accel/kernels/kernels_detail.hh"

namespace vibnn::accel::kernels
{

namespace
{

typedef float V8F __attribute__((vector_size(32)));
typedef float V16F __attribute__((vector_size(64)));
typedef double V8D __attribute__((vector_size(64)));
typedef std::uint64_t V8U __attribute__((vector_size(64)));

template <class V>
inline V
loadV(const float *p)
{
    V v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

template <class V>
inline void
storeV(float *p, V v)
{
    __builtin_memcpy(p, &v, sizeof v);
}

// The unmasked forms of these intrinsics start from _mm512_undefined_*,
// which GCC 12 reports under -Wmaybe-uninitialized; an all-ones zero
// mask compiles to the same unmasked instruction.

/** The 8 floats at p in both halves of a zmm. */
inline __m512
broadcast8(const float *p)
{
    return _mm512_maskz_broadcast_f32x8(0xffff, _mm256_loadu_ps(p));
}

/** B rows j..j+R-1 against the A-row pair (a0 low half, a1 high half):
 *  c0[j + r] and, when c1 is non-null, c1[j + r] get each half's lane-8
 *  dot plus the bias. An odd last A row passes a1 = a0 and
 *  c1 = nullptr. */
template <int R>
inline void
pairTileF32(const GemmF32Args &g, std::size_t j, const float *a0,
            const float *a1, float *c0, float *c1)
{
    const float *b = g.b + j * g.ldb;
    const std::size_t ldb = g.ldb, n = g.k;
    __m512 acc[R];
    for (int r = 0; r < R; ++r)
        acc[r] = _mm512_setzero_ps();
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512 av = _mm512_insertf32x8(
            _mm512_castps256_ps512(_mm256_loadu_ps(a0 + k)),
            _mm256_loadu_ps(a1 + k), 1);
        for (int r = 0; r < R; ++r)
            acc[r] = _mm512_add_ps(
                acc[r], _mm512_mul_ps(av, broadcast8(b + r * ldb + k)));
    }
    // Spill, then finish each half as the avx2 tier's finishDotLanes8
    // does: the scalar tail over [k, n) and the canonical tree.
    for (int r = 0; r < R; ++r) {
        alignas(64) float lanes[16];
        _mm512_store_ps(lanes, acc[r]);
        const float *brow = b + r * ldb;
        detail::dotLanes8TailF32(lanes, a0, brow, k, n);
        const float d0 = detail::reduceLanes8F32(lanes);
        c0[j + r] = g.bias ? d0 + g.bias[j + r] : d0;
        if (c1) {
            detail::dotLanes8TailF32(lanes + 8, a1, brow, k, n);
            const float d1 = detail::reduceLanes8F32(lanes + 8);
            c1[j + r] = g.bias ? d1 + g.bias[j + r] : d1;
        }
    }
}

/** Lane type of the plane and KL ops: 8 floats, 8 doubles. */
struct Avx512Lanes
{
    using F = V8F;
    using D = V8D;
    using U = V8U;

    static D widen(F x) { return (D)_mm512_maskz_cvtps_pd(0xff, (__m256)x); }
    static F narrow(D x) { return (F)_mm512_maskz_cvtpd_ps(0xff, (__m512d)x); }
    static U bits(D x) { return (U)x; }
    static D fromBits(U u) { return (D)u; }
    static D splat(double v) { return (D)_mm512_set1_pd(v); }
};

/** One register tile of a backward GEMM, as the avx2 tier's
 *  tile4RowsAvx2: rows r < 4 of c, columns [0, W) with W = 2 lanes(V)
 *  (Wide) or lanes(V), get c[r] (+)= sum over p < depth of
 *  a[r * ra + p * pa] * b[p], p walked in order. Named accumulators, not
 *  an array, so GCC keeps the tile in registers only. */
template <class V, bool Wide, bool Accumulate>
inline void
tile4RowsAvx512(const float *a, std::size_t ra, std::size_t pa,
                const float *b, std::size_t ldb, std::size_t depth,
                float *c, std::size_t ldc)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    float *c0 = c, *c1 = c0 + ldc, *c2 = c1 + ldc, *c3 = c2 + ldc;
    const auto start = [](const float *row) {
        return Accumulate ? loadV<V>(row) : V{};
    };
    V lo0 = start(c0), lo1 = start(c1), lo2 = start(c2), lo3 = start(c3);
    V hi0 = lo0, hi1 = lo1, hi2 = lo2, hi3 = lo3;
    if constexpr (Wide) {
        hi0 = start(c0 + kLanes);
        hi1 = start(c1 + kLanes);
        hi2 = start(c2 + kLanes);
        hi3 = start(c3 + kLanes);
    }
    for (std::size_t p = 0; p < depth; ++p) {
        const float *ap = a + p * pa;
        const float *bp = b + p * ldb;
        const V bl = loadV<V>(bp);
        const V bh = Wide ? loadV<V>(bp + kLanes) : bl;
        const auto step = [&](V &l, V &h, float s) {
            l = l + s * bl;
            if constexpr (Wide)
                h = h + s * bh;
        };
        step(lo0, hi0, ap[0]);
        step(lo1, hi1, ap[ra]);
        step(lo2, hi2, ap[2 * ra]);
        step(lo3, hi3, ap[3 * ra]);
    }
    storeV(c0, lo0);
    storeV(c1, lo1);
    storeV(c2, lo2);
    storeV(c3, lo3);
    if constexpr (Wide) {
        storeV(c0 + kLanes, hi0);
        storeV(c1 + kLanes, hi1);
        storeV(c2 + kLanes, hi2);
        storeV(c3 + kLanes, hi3);
    }
}

/** Four output rows of a backward GEMM over all k columns: 32-wide
 *  tiles, one 16- and one 8-wide tile, then the scalar axpy tail. */
template <bool Accumulate>
void
rows4Avx512(const float *a, std::size_t ra, std::size_t pa,
            const float *b, std::size_t ldb, std::size_t depth, float *c,
            std::size_t ldc, std::size_t k)
{
    std::size_t t = 0;
    for (; t + 32 <= k; t += 32)
        tile4RowsAvx512<V16F, true, Accumulate>(a, ra, pa, b + t, ldb,
                                                depth, c + t, ldc);
    if (t + 16 <= k) {
        tile4RowsAvx512<V16F, false, Accumulate>(a, ra, pa, b + t, ldb,
                                                 depth, c + t, ldc);
        t += 16;
    }
    if (t + 8 <= k) {
        tile4RowsAvx512<V8F, false, Accumulate>(a, ra, pa, b + t, ldb,
                                                depth, c + t, ldc);
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

/** crow[:n] += s * brow[:n]: 16-, then 8-wide, then the scalar tail. */
inline void
axpyAvx512(float *crow, float s, const float *brow, std::size_t n)
{
    std::size_t t = 0;
    for (; t + 16 <= n; t += 16)
        storeV(crow + t, loadV<V16F>(crow + t) + s * loadV<V16F>(brow + t));
    if (t + 8 <= n) {
        storeV(crow + t, loadV<V8F>(crow + t) + s * loadV<V8F>(brow + t));
        t += 8;
    }
    detail::axpyTailF32(crow, s, brow, t, n);
}

} // namespace

void
gemmBatchF32Avx512(const GemmF32Args &g)
{
    for (std::size_t i = 0; i < g.m; i += 2) {
        const bool pair = i + 1 < g.m;
        const float *a0 = g.a + i * g.lda;
        const float *a1 = pair ? a0 + g.lda : a0;
        float *c0 = g.c + i * g.ldc;
        float *c1 = pair ? c0 + g.ldc : nullptr;
        std::size_t j = 0;
        for (; j + 8 <= g.n; j += 8)
            pairTileF32<8>(g, j, a0, a1, c0, c1);
        if (j + 4 <= g.n) {
            pairTileF32<4>(g, j, a0, a1, c0, c1);
            j += 4;
        }
        for (; j < g.n; ++j)
            pairTileF32<1>(g, j, a0, a1, c0, c1);
    }
}

void
gemmAtBF32Avx512(const GemmF32Args &g)
{
    if (g.colSums)
        for (std::size_t i = 0; i < g.m; ++i)
            for (std::size_t j = 0; j < g.n; ++j)
                g.colSums[j] += g.a[i * g.lda + j];
    // Output rows j..j+3 reduce over the minibatch rows i: a[i][j + r]
    // sits at a + r + i * lda.
    std::size_t j = 0;
    for (; j + 4 <= g.n; j += 4)
        rows4Avx512<true>(g.a + j, 1, g.lda, g.b, g.ldb, g.m,
                          g.c + j * g.ldc, g.ldc, g.k);
    for (; j < g.n; ++j)
        for (std::size_t i = 0; i < g.m; ++i)
            axpyAvx512(g.c + j * g.ldc, g.a[i * g.lda + j],
                       g.b + i * g.ldb, g.k);
}

void
gemmABF32Avx512(const GemmF32Args &g)
{
    // Output rows i..i+3 reduce over j: a[i + r][j] sits at
    // a + r * lda + j.
    std::size_t i = 0;
    for (; i + 4 <= g.m; i += 4)
        rows4Avx512<false>(g.a + i * g.lda, g.lda, 1, g.b, g.ldb, g.n,
                           g.c + i * g.ldc, g.ldc, g.k);
    for (; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        float *crow = g.c + i * g.ldc;
        for (std::size_t t = 0; t < g.k; ++t)
            crow[t] = 0.0f;
        for (std::size_t j = 0; j < g.n; ++j)
            axpyAvx512(crow, arow[j], g.b + j * g.ldb, g.k);
    }
}

void
sigmaPlanesAvx512(const float *rho, float *sigma, float *dsigma,
                  float *sigma_sq, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const V8F x = loadV<V8F>(rho + i);
        const V8D t = detail::expNegAbs<Avx512Lanes>(x);
        const V8F s = detail::softplusOf<Avx512Lanes>(x, t);
        storeV(sigma + i, s);
        storeV(dsigma + i, detail::logisticOf<Avx512Lanes>(x, t));
        if (sigma_sq)
            storeV(sigma_sq + i, s * s);
    }
    for (; i < n; ++i)
        detail::sigmaPlanesOne(rho[i], sigma[i], dsigma[i],
                               sigma_sq ? sigma_sq + i : nullptr);
}

double
klSumGradAvx512(const float *mu, const float *sigma, const float *dsigma,
                float *gmu, float *grho, std::size_t n, const KlArgs &args,
                double acc)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const V8F m = loadV<V8F>(mu + i);
        const V8F s = loadV<V8F>(sigma + i);
        const V8D term = detail::klTermOf<Avx512Lanes>(m, s, args);
        for (int l = 0; l < 8; ++l)
            acc += term[l];
        V8F gm = loadV<V8F>(gmu + i);
        V8F gr = loadV<V8F>(grho + i);
        detail::klGradOf<Avx512Lanes>(m, s, loadV<V8F>(dsigma + i), gm, gr,
                                      args);
        storeV(gmu + i, gm);
        storeV(grho + i, gr);
    }
    return detail::klSumGradTail(mu, sigma, dsigma, gmu, grho, i, n, args,
                                 acc);
}

// Defined beside avx2Kernels() in kernels_avx2.cc, where the shared
// inference entries are visible.
extern const KernelOps avx512Table;

const KernelOps &
avx512Kernels()
{
    return avx512Table;
}

} // namespace vibnn::accel::kernels

#endif // x86
