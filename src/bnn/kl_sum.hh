/**
 * @file
 * The per-element KL term of a factorized Gaussian posterior against a
 * zero-mean Gaussian prior, and its gradient — the one formula every
 * variational layer (dense, conv, matrix) sums over its parameters.
 */

#ifndef VIBNN_BNN_KL_SUM_HH
#define VIBNN_BNN_KL_SUM_HH

#include <cmath>

namespace vibnn::bnn
{

/**
 * KL(N(mu, s^2) || N(0, p^2)) = ln(p/s) + (s^2 + mu^2) / (2 p^2) - 1/2,
 * summed elementwise over a layer, and its gradient scaled by `scale`:
 * dKL/dmu = mu / p^2, dKL/drho = (s / p^2 - 1 / s) * dsigma/drho.
 */
class KlSum
{
  public:
    explicit KlSum(float prior_sigma, float scale = 0.0f)
        : p2_(static_cast<double>(prior_sigma) * prior_sigma),
          logP_(std::log(static_cast<double>(prior_sigma))),
          invP2_(1.0f / (prior_sigma * prior_sigma)), scale_(scale)
    {
    }

    /** Add one element's KL. */
    void
    add(float mu, float s)
    {
        kl_ += logP_ - std::log(static_cast<double>(s)) +
            (static_cast<double>(s) * s + static_cast<double>(mu) * mu) /
                (2.0 * p2_) -
            0.5;
    }

    /** Add one element's KL and accumulate its gradient, given
     *  ds = dsigma/drho. */
    void
    add(float mu, float s, float ds, float &gmu, float &grho)
    {
        add(mu, s);
        gmu += scale_ * mu * invP2_;
        grho += scale_ * (s * invP2_ - 1.0f / s) * ds;
    }

    double value() const { return kl_; }

  private:
    double p2_, logP_;
    float invP2_, scale_;
    double kl_ = 0.0;
};

} // namespace vibnn::bnn

#endif // VIBNN_BNN_KL_SUM_HH
