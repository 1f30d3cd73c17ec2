/**
 * @file
 * AVX2 tier of the training path's plane and KL ops: the generic
 * softplus / logistic / ln / KL bodies of kernels_detail.hh on four
 * double lanes (GCC vector types over ymm registers), so each lane runs
 * the scalar reference's IEEE operations in its order and the tier is
 * bit-exact by construction. The KL op adds each four-lane group's
 * terms to the accumulator one at a time, in index order, as the
 * scalar loop does.
 *
 * A TU of its own (-mavx2 -ffp-contract=off): the other AVX2 kernels
 * keep their code and addresses in kernels_avx2.cc, which lists these
 * two in its table.
 */

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "accel/kernels/kernels.hh"
#include "accel/kernels/kernels_detail.hh"

namespace vibnn::accel::kernels
{

namespace
{

typedef float V4F __attribute__((vector_size(16)));
typedef double V4D __attribute__((vector_size(32)));
typedef std::uint64_t V4U __attribute__((vector_size(32)));

struct Avx2Lanes
{
    using F = V4F;
    using D = V4D;
    using U = V4U;

    static D widen(F x) { return (D)_mm256_cvtps_pd((__m128)x); }
    static F narrow(D x) { return (F)_mm256_cvtpd_ps((__m256d)x); }
    static U bits(D x) { return (U)x; }
    static D fromBits(U u) { return (D)u; }
    static D splat(double v) { return (D)_mm256_set1_pd(v); }
};

V4F
load4(const float *p)
{
    return (V4F)_mm_loadu_ps(p);
}

void
store4(float *p, V4F v)
{
    _mm_storeu_ps(p, (__m128)v);
}

} // namespace

void
sigmaPlanesAvx2(const float *rho, float *sigma, float *dsigma,
                float *sigma_sq, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const V4F x = load4(rho + i);
        const V4D t = detail::expNegAbs<Avx2Lanes>(x);
        const V4F s = detail::softplusOf<Avx2Lanes>(x, t);
        store4(sigma + i, s);
        store4(dsigma + i, detail::logisticOf<Avx2Lanes>(x, t));
        if (sigma_sq)
            store4(sigma_sq + i, s * s);
    }
    for (; i < n; ++i)
        detail::sigmaPlanesOne(rho[i], sigma[i], dsigma[i],
                               sigma_sq ? sigma_sq + i : nullptr);
}

double
klSumGradAvx2(const float *mu, const float *sigma, const float *dsigma,
              float *gmu, float *grho, std::size_t n, const KlArgs &args,
              double acc)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const V4F m = load4(mu + i);
        const V4F s = load4(sigma + i);
        const V4D term = detail::klTermOf<Avx2Lanes>(m, s, args);
        acc += term[0];
        acc += term[1];
        acc += term[2];
        acc += term[3];
        V4F gm = load4(gmu + i);
        V4F gr = load4(grho + i);
        detail::klGradOf<Avx2Lanes>(m, s, load4(dsigma + i), gm, gr, args);
        store4(gmu + i, gm);
        store4(grho + i, gr);
    }
    return detail::klSumGradTail(mu, sigma, dsigma, gmu, grho, i, n, args,
                                 acc);
}

} // namespace vibnn::accel::kernels

#endif // x86
