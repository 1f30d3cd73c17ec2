/**
 * @file
 * Portable scalar tier — the semantic reference every SIMD tier is
 * tested bit-exact against. Compiled everywhere, no ISA assumptions.
 * Also the home of the repository's softplus, logistic and ln
 * (kernels.hh): nn:: and bnn:: call these, so every sigma is computed
 * by this TU's -ffp-contract=off code.
 */

#include "accel/kernels/kernels.hh"
#include "accel/kernels/kernels_detail.hh"
#include "common/logging.hh"

namespace vibnn::accel::kernels
{

namespace
{

void
quantizeDoubleScalar(const double *in, std::int32_t *out, std::size_t n,
                     int frac_bits, std::int32_t raw_min,
                     std::int32_t raw_max)
{
    const double scale = std::ldexp(1.0, frac_bits);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = detail::quantizeOne(in[i], scale, raw_min, raw_max);
}

void
quantizeFloatScalar(const float *in, std::int32_t *out, std::size_t n,
                    int frac_bits, std::int32_t raw_min,
                    std::int32_t raw_max)
{
    const double scale = std::ldexp(1.0, frac_bits);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = detail::quantizeOne(static_cast<double>(in[i]), scale,
                                     raw_min, raw_max);
}

void
sampleWeightsScalar(const std::int32_t *mu, const std::int32_t *sigma,
                    const std::int32_t *eps, std::int32_t *out,
                    std::size_t n, const SampleParams &params)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = detail::sampleOne(mu[i], sigma[i], eps[i], params);
}

void
packInt16Scalar(const std::int32_t *in, std::int16_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::int16_t>(in[i]);
}

void
rlfCycleCountsScalar(RlfState &st, std::size_t cycles,
                     std::int32_t *counts)
{
    const std::size_t stride = static_cast<std::size_t>(st.groups) * 8;
    for (int g = 0; g < st.groups; ++g)
        detail::rlfCycleCountsGroup(st.planes + g * st.length, st.length,
                                    st.head, st.sums + g * 8, cycles,
                                    counts + g * 8, stride);
    st.head = static_cast<int>(
        (static_cast<std::size_t>(st.head) + 2 * cycles) %
        static_cast<std::size_t>(st.length));
}

void
wallacePassScalarTier(double *pool, std::size_t pool_size,
                      std::size_t offset, std::size_t stride, double *out)
{
    detail::wallacePassScalar(pool, pool_size, offset, stride, out);
}

void
gemmBatchScalar(const GemmArgs &a)
{
    for (std::size_t o = 0; o < a.outDim; ++o) {
        const std::int32_t *w = a.weights + o * a.ldw;
        const std::int64_t bias = a.bias[o];
        std::int32_t *out_row = a.out + o * a.outNeuronStride;
        for (std::size_t b = 0; b < a.images; ++b) {
            const std::int32_t *x = a.acts + b * a.lda;
            const std::int64_t acc = detail::dotTail(w, x, 0, a.inDim);
            out_row[b * a.outImageStride] =
                gemmFinish(acc, bias, a.finish);
        }
    }
}

void
gemmBatchF32Scalar(const GemmF32Args &g)
{
    for (std::size_t i = 0; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        float *crow = g.c + i * g.ldc;
        for (std::size_t j = 0; j < g.n; ++j) {
            const float dot =
                detail::dotLanes8F32(arow, g.b + j * g.ldb, g.k);
            crow[j] = g.bias ? dot + g.bias[j] : dot;
        }
    }
}

void
gemmAtBF32Scalar(const GemmF32Args &g)
{
    for (std::size_t i = 0; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        const float *brow = g.b + i * g.ldb;
        for (std::size_t j = 0; j < g.n; ++j) {
            const float aij = arow[j];
            if (g.colSums)
                g.colSums[j] += aij;
            detail::axpyTailF32(g.c + j * g.ldc, aij, brow, 0, g.k);
        }
    }
}

void
gemmABF32Scalar(const GemmF32Args &g)
{
    for (std::size_t i = 0; i < g.m; ++i) {
        const float *arow = g.a + i * g.lda;
        float *crow = g.c + i * g.ldc;
        for (std::size_t t = 0; t < g.k; ++t)
            crow[t] = 0.0f;
        for (std::size_t j = 0; j < g.n; ++j)
            detail::axpyTailF32(crow, arow[j], g.b + j * g.ldb, 0, g.k);
    }
}

void
adamStepF32Scalar(float *params, const float *grads, float *m, float *v,
                  std::size_t n, const AdamStepArgs &args)
{
    for (std::size_t i = 0; i < n; ++i)
        detail::adamOneF32(params[i], grads[i], m[i], v[i], args);
}

void
sigmaPlanesScalar(const float *rho, float *sigma, float *dsigma,
                  float *sigma_sq, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        detail::sigmaPlanesOne(rho[i], sigma[i], dsigma[i],
                               sigma_sq ? sigma_sq + i : nullptr);
}

double
klSumGradScalar(const float *mu, const float *sigma, const float *dsigma,
                float *gmu, float *grho, std::size_t n, const KlArgs &args,
                double acc)
{
    return detail::klSumGradTail(mu, sigma, dsigma, gmu, grho, 0, n, args,
                                 acc);
}

} // namespace

float
softplus(float x)
{
    return detail::softplusOf<detail::ScalarLanes>(
        x, detail::expNegAbs<detail::ScalarLanes>(x));
}

float
logistic(float x)
{
    return detail::logisticOf<detail::ScalarLanes>(
        x, detail::expNegAbs<detail::ScalarLanes>(x));
}

void
softplusLogistic(float x, float &sp, float &lg)
{
    detail::sigmaPlanesOne(x, sp, lg, nullptr);
}

double
ln(float x)
{
    return detail::lnOf<detail::ScalarLanes>(x);
}

KlArgs
klArgs(float prior_sigma, float scale)
{
    if (!(prior_sigma > 0.0f))
        fatal("the KL prior sigma must be positive");
    VIBNN_ASSERT(std::isfinite(scale),
                 "the KL gradient scale must be finite");
    KlArgs a;
    a.logPrior = ln(prior_sigma);
    a.twoPriorVar = 2.0 * (static_cast<double>(prior_sigma) * prior_sigma);
    a.invPriorVar = 1.0f / (prior_sigma * prior_sigma);
    a.scale = scale;
    return a;
}

double
klTerm(float mu, float sigma, const KlArgs &args)
{
    return detail::klTermOf<detail::ScalarLanes>(mu, sigma, args);
}

void
klGrad(float mu, float sigma, float dsigma, float &gmu, float &grho,
       const KlArgs &args)
{
    detail::klGradOf<detail::ScalarLanes>(mu, sigma, dsigma, gmu, grho,
                                          args);
}

const KernelOps &
scalarKernels()
{
    static const KernelOps ops = {
        "scalar",          &quantizeDoubleScalar, &quantizeFloatScalar,
        &sampleWeightsScalar, &packInt16Scalar,   &gemmBatchScalar,
        &rlfCycleCountsScalar, &wallacePassScalarTier,
        &gemmBatchF32Scalar, &gemmAtBF32Scalar,   &gemmABF32Scalar,
        &adamStepF32Scalar,  &sigmaPlanesScalar,  &klSumGradScalar,
    };
    return ops;
}

} // namespace vibnn::accel::kernels
