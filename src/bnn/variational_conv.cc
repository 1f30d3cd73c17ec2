/**
 * @file
 * Variational convolution kernels (see variational_conv.hh).
 */

#include "bnn/variational_conv.hh"

#include <cassert>
#include <cmath>

#include "accel/kernels/kernels.hh"
#include "bnn/kl_sum.hh"
#include "nn/activations.hh"

namespace vibnn::bnn
{

void
VariationalConvGradients::resize(const nn::ConvSpec &spec)
{
    muWeight = nn::Matrix(spec.outChannels, spec.patchSize());
    rhoWeight = nn::Matrix(spec.outChannels, spec.patchSize());
    muBias.assign(spec.outChannels, 0.0f);
    rhoBias.assign(spec.outChannels, 0.0f);
}

void
VariationalConvGradients::zero()
{
    muWeight.fill(0.0f);
    rhoWeight.fill(0.0f);
    std::fill(muBias.begin(), muBias.end(), 0.0f);
    std::fill(rhoBias.begin(), rhoBias.end(), 0.0f);
}

VariationalConv2d::VariationalConv2d(const nn::ConvSpec &spec, Rng &rng,
                                     float rho_init)
    : spec_(spec), muWeight_(spec.outChannels, spec.patchSize()),
      rhoWeight_(spec.outChannels, spec.patchSize()),
      muBias_(spec.outChannels, 0.0f), rhoBias_(spec.outChannels, rho_init)
{
    assert(spec_.valid());
    const float bound =
        std::sqrt(6.0f / static_cast<float>(spec_.patchSize()));
    for (auto &mu : muWeight_.data())
        mu = static_cast<float>(rng.uniform(-bound, bound));
    for (auto &rho : rhoWeight_.data())
        rho = rho_init + static_cast<float>(rng.uniform(-0.2, 0.2));
}

float
VariationalConv2d::sigmaOf(float rho)
{
    return nn::softplus(rho);
}

void
VariationalConv2d::fillSigmaRow(std::size_t oc,
                                VariationalConvScratch &scratch) const
{
    const std::size_t patch = spec_.patchSize();
    scratch.sigmaRow.resize(patch);
    scratch.dSigmaRow.resize(patch);
    accel::kernels::activeKernels().sigmaPlanes(
        rhoWeight_.row(oc), scratch.sigmaRow.data(), scratch.dSigmaRow.data(),
        nullptr, patch);
}

std::size_t
VariationalConv2d::paramCount() const
{
    return 2 * (muWeight_.size() + muBias_.size());
}

void
VariationalConv2d::prepareScratch(VariationalConvScratch &scratch) const
{
    const std::size_t patch = spec_.patchSize();
    if (scratch.epsWeight.rows() != spec_.outChannels ||
        scratch.epsWeight.cols() != patch) {
        scratch.epsWeight = nn::Matrix(spec_.outChannels, patch);
    }
    scratch.epsBias.resize(spec_.outChannels);
    scratch.activationEps.resize(spec_.outputSize());
    scratch.activationStd.resize(spec_.outputSize());
    scratch.weightSample.resize(patch);
}

void
VariationalConv2d::meanForward(const float *x, float *out,
                               VariationalConvScratch &scratch) const
{
    nn::im2col(spec_, x, scratch.patches);
    const std::size_t positions = spec_.positions();
    const std::size_t patch = spec_.patchSize();
    for (std::size_t oc = 0; oc < spec_.outChannels; ++oc) {
        const float *mu = muWeight_.row(oc);
        float *plane = out + oc * positions;
        for (std::size_t p = 0; p < positions; ++p) {
            const float *v = scratch.patches.row(p);
            float acc = muBias_[oc];
            for (std::size_t k = 0; k < patch; ++k)
                acc += mu[k] * v[k];
            plane[p] = acc;
        }
    }
}

void
VariationalConv2d::sampleBackward(const float *dy,
                                  VariationalConvScratch &scratch,
                                  VariationalConvGradients &grads,
                                  float *dx) const
{
    const std::size_t positions = spec_.positions();
    const std::size_t patch = spec_.patchSize();
    assert(scratch.patches.rows() == positions);

    const bool want_dx = dx != nullptr;
    if (want_dx) {
        if (scratch.dPatches.rows() != positions ||
            scratch.dPatches.cols() != patch)
            scratch.dPatches = nn::Matrix(positions, patch);
        scratch.dPatches.fill(0.0f);
    }

    for (std::size_t oc = 0; oc < spec_.outChannels; ++oc) {
        const float *mu = muWeight_.row(oc);
        const float *er = scratch.epsWeight.row(oc);
        const float *g = dy + oc * positions;
        float *gmu = grads.muWeight.row(oc);
        float *grho = grads.rhoWeight.row(oc);
        fillSigmaRow(oc, scratch);
        const float *sigma = scratch.sigmaRow.data();
        const float *dsigma = scratch.dSigmaRow.data();

        // Shared-weight chain rule: dL/dw[k] = sum_p dy[p] patch[p][k].
        float bias_acc = 0.0f;
        for (std::size_t p = 0; p < positions; ++p) {
            const float gp = g[p];
            bias_acc += gp;
            if (gp == 0.0f && !want_dx)
                continue;
            const float *v = scratch.patches.row(p);
            float *dv = want_dx ? scratch.dPatches.row(p) : nullptr;
            for (std::size_t k = 0; k < patch; ++k) {
                const float dw = gp * v[k];
                gmu[k] += dw;
                grho[k] += dw * er[k] * dsigma[k];
                if (dv) {
                    const float w = mu[k] + sigma[k] * er[k];
                    dv[k] += gp * w;
                }
            }
        }
        grads.muBias[oc] += bias_acc;
        grads.rhoBias[oc] += bias_acc * scratch.epsBias[oc] *
            nn::logistic(rhoBias_[oc]);
    }

    if (want_dx) {
        std::fill(dx, dx + spec_.inputSize(), 0.0f);
        nn::col2imAccumulate(spec_, scratch.dPatches, dx);
    }
}

void
VariationalConv2d::lrtForward(const float *x, float *out,
                              VariationalConvScratch &scratch, Rng &rng)
    const
{
    prepareScratch(scratch);
    nn::im2col(spec_, x, scratch.patches);
    const std::size_t positions = spec_.positions();
    const std::size_t patch = spec_.patchSize();

    if (scratch.patchesSquared.rows() != positions ||
        scratch.patchesSquared.cols() != patch)
        scratch.patchesSquared = nn::Matrix(positions, patch);
    for (std::size_t i = 0; i < scratch.patches.size(); ++i) {
        const float v = scratch.patches.data()[i];
        scratch.patchesSquared.data()[i] = v * v;
    }

    for (std::size_t oc = 0; oc < spec_.outChannels; ++oc) {
        const float *mu = muWeight_.row(oc);
        fillSigmaRow(oc, scratch);
        const float *sigma = scratch.sigmaRow.data();
        const float sb = sigmaOf(rhoBias_[oc]);
        float *plane = out + oc * positions;
        for (std::size_t p = 0; p < positions; ++p) {
            const float *v = scratch.patches.row(p);
            const float *v2 = scratch.patchesSquared.row(p);
            float mean = muBias_[oc];
            float var = sb * sb;
            for (std::size_t k = 0; k < patch; ++k) {
                mean += mu[k] * v[k];
                var += sigma[k] * sigma[k] * v2[k];
            }
            const float sd = std::sqrt(std::max(var, 1e-16f));
            const float e = static_cast<float>(rng.gaussian());
            const std::size_t flat = oc * positions + p;
            scratch.activationEps[flat] = e;
            scratch.activationStd[flat] = sd;
            plane[p] = mean + sd * e;
        }
    }
}

void
VariationalConv2d::lrtBackward(const float *dy,
                               VariationalConvScratch &scratch,
                               VariationalConvGradients &grads,
                               float *dx) const
{
    const std::size_t positions = spec_.positions();
    const std::size_t patch = spec_.patchSize();
    assert(scratch.patches.rows() == positions);
    assert(scratch.activationEps.size() == spec_.outputSize());

    const bool want_dx = dx != nullptr;
    if (want_dx) {
        if (scratch.dPatches.rows() != positions ||
            scratch.dPatches.cols() != patch)
            scratch.dPatches = nn::Matrix(positions, patch);
        scratch.dPatches.fill(0.0f);
    }

    for (std::size_t oc = 0; oc < spec_.outChannels; ++oc) {
        const float *mu = muWeight_.row(oc);
        const float *g = dy + oc * positions;
        float *gmu = grads.muWeight.row(oc);
        float *grho = grads.rhoWeight.row(oc);
        float sb, lb;
        nn::softplusLogistic(rhoBias_[oc], sb, lb);
        fillSigmaRow(oc, scratch);
        const float *sigma = scratch.sigmaRow.data();
        const float *dsigma = scratch.dSigmaRow.data();

        for (std::size_t p = 0; p < positions; ++p) {
            const float gp = g[p];
            const std::size_t flat = oc * positions + p;
            // dL/dvar = g eps / (2 sd); dL/dmean = g.
            const float dvar = gp * scratch.activationEps[flat] /
                (2.0f * scratch.activationStd[flat]);
            grads.muBias[oc] += gp;
            grads.rhoBias[oc] += dvar * 2.0f * sb * lb;
            if (gp == 0.0f && !want_dx)
                continue;
            const float *v = scratch.patches.row(p);
            const float *v2 = scratch.patchesSquared.row(p);
            float *dv = want_dx ? scratch.dPatches.row(p) : nullptr;
            for (std::size_t k = 0; k < patch; ++k) {
                gmu[k] += gp * v[k];
                const float s = sigma[k];
                grho[k] += dvar * 2.0f * s * v2[k] * dsigma[k];
                if (dv)
                    dv[k] += gp * mu[k] + dvar * s * s * 2.0f * v[k];
            }
        }
    }

    if (want_dx) {
        std::fill(dx, dx + spec_.inputSize(), 0.0f);
        nn::col2imAccumulate(spec_, scratch.dPatches, dx);
    }
}

double
VariationalConv2d::klDivergence(float prior_sigma) const
{
    KlSum sum(prior_sigma);
    sum.addRows(muWeight_.data().data(), rhoWeight_.data().data(),
                muWeight_.size());
    sum.addRows(muBias_.data(), rhoBias_.data(), muBias_.size());
    return sum.value();
}

double
VariationalConv2d::klValueAndGrad(float prior_sigma, float scale,
                                  VariationalConvGradients &grads) const
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
