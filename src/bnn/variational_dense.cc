#include "bnn/variational_dense.hh"

#include <cmath>

#include "accel/kernels/kernels.hh"
#include "bnn/kl_sum.hh"
#include "common/logging.hh"
#include "nn/activations.hh"

namespace vibnn::bnn
{

void
VariationalGradients::resize(std::size_t out_dim, std::size_t in_dim)
{
    muWeight = nn::Matrix(out_dim, in_dim);
    rhoWeight = nn::Matrix(out_dim, in_dim);
    muBias.assign(out_dim, 0.0f);
    rhoBias.assign(out_dim, 0.0f);
}

void
VariationalGradients::zero()
{
    muWeight.fill(0.0f);
    rhoWeight.fill(0.0f);
    std::fill(muBias.begin(), muBias.end(), 0.0f);
    std::fill(rhoBias.begin(), rhoBias.end(), 0.0f);
}

VariationalDense::VariationalDense(std::size_t in_dim, std::size_t out_dim,
                                   Rng &rng, float rho_init)
    : muWeight_(out_dim, in_dim), rhoWeight_(out_dim, in_dim),
      muBias_(out_dim, 0.0f), rhoBias_(out_dim, rho_init)
{
    const float bound = std::sqrt(6.0f / static_cast<float>(in_dim));
    for (auto &mu : muWeight_.data())
        mu = static_cast<float>(rng.uniform(-bound, bound));
    for (auto &rho : rhoWeight_.data())
        rho = rho_init + static_cast<float>(rng.uniform(-0.2, 0.2));
}

float
VariationalDense::sigmaOf(float rho)
{
    return nn::softplus(rho);
}

void
VariationalDense::fillSigmaRow(std::size_t r,
                               VariationalScratch &scratch) const
{
    scratch.sigmaRow.resize(inDim());
    scratch.dSigmaRow.resize(inDim());
    accel::kernels::activeKernels().sigmaPlanes(
        rhoWeight_.row(r), scratch.sigmaRow.data(), scratch.dSigmaRow.data(),
        nullptr, inDim());
}

void
VariationalDense::prepareScratch(VariationalScratch &scratch) const
{
    if (scratch.epsWeight.rows() != outDim() ||
        scratch.epsWeight.cols() != inDim()) {
        scratch.epsWeight = nn::Matrix(outDim(), inDim());
    }
    scratch.epsBias.resize(outDim());
    scratch.activationEps.resize(outDim());
    scratch.activationStd.resize(outDim());
    scratch.inputSquared.resize(inDim());
}

void
VariationalDense::meanForward(const float *x, float *out) const
{
    nn::matVec(muWeight_, x, muBias_.data(), out);
}

void
VariationalDense::sampleBackward(const float *x, const float *dy,
                                 VariationalScratch &scratch,
                                 VariationalGradients &grads,
                                 float *dx) const
{
    const std::size_t rows = outDim(), cols = inDim();
    if (dx)
        std::fill(dx, dx + cols, 0.0f);

    for (std::size_t r = 0; r < rows; ++r) {
        const float g = dy[r];
        const float *mu = muWeight_.row(r);
        const float *er = scratch.epsWeight.row(r);
        float *gmu = grads.muWeight.row(r);
        float *grho = grads.rhoWeight.row(r);

        // Bias: dL/dw_b = g; w_b = mu_b + sigma_b eps_b.
        grads.muBias[r] += g;
        grads.rhoBias[r] +=
            g * scratch.epsBias[r] * nn::logistic(rhoBias_[r]);

        if (g == 0.0f && !dx)
            continue;
        fillSigmaRow(r, scratch);
        const float *sigma = scratch.sigmaRow.data();
        const float *dsigma = scratch.dSigmaRow.data();
        for (std::size_t c = 0; c < cols; ++c) {
            const float dw = g * x[c];
            gmu[c] += dw;
            grho[c] += dw * er[c] * dsigma[c];
            if (dx) {
                const float w = mu[c] + sigma[c] * er[c];
                dx[c] += w * g;
            }
        }
    }
}

void
VariationalDense::lrtForward(const float *x, float *out,
                             VariationalScratch &scratch, Rng &rng) const
{
    prepareScratch(scratch);
    const std::size_t rows = outDim(), cols = inDim();
    for (std::size_t c = 0; c < cols; ++c)
        scratch.inputSquared[c] = x[c] * x[c];

    for (std::size_t r = 0; r < rows; ++r) {
        const float *mu = muWeight_.row(r);
        fillSigmaRow(r, scratch);
        const float *sigma = scratch.sigmaRow.data();
        float mean = muBias_[r];
        const float sb = sigmaOf(rhoBias_[r]);
        float var = sb * sb;
        for (std::size_t c = 0; c < cols; ++c) {
            mean += mu[c] * x[c];
            var += sigma[c] * sigma[c] * scratch.inputSquared[c];
        }
        const float sd = std::sqrt(std::max(var, 1e-16f));
        const float e = static_cast<float>(rng.gaussian());
        scratch.activationEps[r] = e;
        scratch.activationStd[r] = sd;
        out[r] = mean + sd * e;
    }
}

void
VariationalDense::lrtBackward(const float *x, const float *dy,
                              VariationalScratch &scratch,
                              VariationalGradients &grads, float *dx) const
{
    const std::size_t rows = outDim(), cols = inDim();
    if (dx)
        std::fill(dx, dx + cols, 0.0f);

    for (std::size_t r = 0; r < rows; ++r) {
        const float g = dy[r];
        const float *mu = muWeight_.row(r);
        float *gmu = grads.muWeight.row(r);
        float *grho = grads.rhoWeight.row(r);

        // dL/dvar = g * eps / (2 sd); dL/dmean = g.
        const float dvar =
            g * scratch.activationEps[r] /
            (2.0f * scratch.activationStd[r]);

        grads.muBias[r] += g;
        {
            float sb, dsb;
            nn::softplusLogistic(rhoBias_[r], sb, dsb);
            grads.rhoBias[r] += dvar * 2.0f * sb * dsb;
        }

        fillSigmaRow(r, scratch);
        const float *sigma = scratch.sigmaRow.data();
        const float *dsigma = scratch.dSigmaRow.data();
        for (std::size_t c = 0; c < cols; ++c) {
            gmu[c] += g * x[c];
            const float s = sigma[c];
            grho[c] += dvar * 2.0f * s * scratch.inputSquared[c] * dsigma[c];
            if (dx) {
                dx[c] += g * mu[c] +
                    dvar * s * s * 2.0f * x[c];
            }
        }
    }
}

double
VariationalDense::klDivergence(float prior_sigma) const
{
    KlSum sum(prior_sigma);
    sum.addRows(muWeight_.data().data(), rhoWeight_.data().data(),
                muWeight_.size());
    sum.addRows(muBias_.data(), rhoBias_.data(), muBias_.size());
    return sum.value();
}

double
VariationalDense::klValueAndGrad(float prior_sigma, float scale,
                                 VariationalGradients &grads) const
{
    KlSum sum(prior_sigma, scale);
    sum.addRows(muWeight_.data().data(), rhoWeight_.data().data(),
                muWeight_.size(), grads.muWeight.data().data(),
                grads.rhoWeight.data().data());
    sum.addRows(muBias_.data(), rhoBias_.data(), muBias_.size(),
                grads.muBias.data(), grads.rhoBias.data());
    return sum.value();
}

} // namespace vibnn::bnn
