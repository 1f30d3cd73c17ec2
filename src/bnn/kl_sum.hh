/**
 * @file
 * The per-element KL term of a factorized Gaussian posterior against a
 * zero-mean Gaussian prior, and its gradient — the one formula every
 * variational layer (dense, conv, matrix) sums over its parameters.
 */

#ifndef VIBNN_BNN_KL_SUM_HH
#define VIBNN_BNN_KL_SUM_HH

#include "accel/kernels/kernels.hh"

namespace vibnn::bnn
{

/**
 * KL(N(mu, s^2) || N(0, p^2)) = ln(p/s) + (s^2 + mu^2) / (2 p^2) - 1/2,
 * summed elementwise over a layer, and its gradient scaled by `scale`:
 * dKL/dmu = mu / p^2, dKL/drho = (s / p^2 - 1 / s) * dsigma/drho.
 * Each element is the kernel layer's KL element (accel::kernels::KlArgs),
 * added in order, so a layer's sum equals the batched trainer's
 * KernelOps::klSumGrad pass bit for bit.
 */
class KlSum
{
  public:
    explicit KlSum(float prior_sigma, float scale = 0.0f)
        : args_(accel::kernels::klArgs(prior_sigma, scale))
    {
    }

    /** Add one element's KL. */
    void
    add(float mu, float s)
    {
        kl_ += accel::kernels::klTerm(mu, s, args_);
    }

    /** Add one element's KL and accumulate its gradient, given
     *  ds = dsigma/drho. */
    void
    add(float mu, float s, float ds, float &gmu, float &grho)
    {
        add(mu, s);
        accel::kernels::klGrad(mu, s, ds, gmu, grho, args_);
    }

    double value() const { return kl_; }

  private:
    accel::kernels::KlArgs args_;
    double kl_ = 0.0;
};

} // namespace vibnn::bnn

#endif // VIBNN_BNN_KL_SUM_HH
