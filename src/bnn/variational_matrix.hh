/**
 * @file
 * A reusable factorized-Gaussian parameter block: a matrix of (mu, rho)
 * pairs with sigma = softplus(rho), sampling, closed-form KL to a
 * zero-mean Gaussian prior, and the chain-rule mapping from a sampled-
 * weight gradient back to (mu, rho) space. The Bayesian RNN composes
 * its recurrences from these; the dense/conv layers keep their fused
 * implementations for speed.
 */

#ifndef VIBNN_BNN_VARIATIONAL_MATRIX_HH
#define VIBNN_BNN_VARIATIONAL_MATRIX_HH

#include <cstddef>

#include "accel/kernels/kernels.hh"
#include "common/rng.hh"
#include "nn/tensor.hh"

namespace vibnn::bnn
{

/** Factorized Gaussian posterior over a rows x cols parameter block. */
class VariationalMatrix
{
  public:
    VariationalMatrix() = default;

    /**
     * @param rows Block rows.
     * @param cols Block columns (1 for bias vectors).
     * @param rng Initialization source.
     * @param init_bound mu ~ U(-bound, bound); 0 keeps mu at zero.
     * @param rho_init Initial rho, jittered +-0.2.
     */
    VariationalMatrix(std::size_t rows, std::size_t cols, Rng &rng,
                      float init_bound, float rho_init = -5.0f);

    std::size_t rows() const { return mu_.rows(); }
    std::size_t cols() const { return mu_.cols(); }
    std::size_t count() const { return mu_.size(); }

    /**
     * Draw one weight sample: w = mu + softplus(rho) * eps, recording
     * eps for the backward mapping. w and eps are resized as needed.
     */
    template <typename EpsFn>
    void
    sample(nn::Matrix &w, nn::Matrix &eps, EpsFn &&draw) const
    {
        ensureShape(w);
        ensureShape(eps);
        // sigma = softplus(rho) into w by the plane op; eps holds
        // dsigma/drho until the draws overwrite it.
        accel::kernels::activeKernels().sigmaPlanes(
            rho_.data().data(), w.data().data(), eps.data().data(),
            nullptr, mu_.size());
        for (std::size_t i = 0; i < mu_.size(); ++i) {
            const float e = static_cast<float>(draw());
            eps.data()[i] = e;
            w.data()[i] = mu_.data()[i] + w.data()[i] * e;
        }
    }

    /** Deterministic mean weights (eps = 0). */
    void meanInto(nn::Matrix &w) const;

    /**
     * Map a sampled-weight gradient to parameter space:
     * d mu += dw, d rho += dw * eps * logistic(rho).
     */
    void accumulateSampleGrad(const nn::Matrix &dw, const nn::Matrix &eps,
                              nn::Matrix &g_mu, nn::Matrix &g_rho) const;

    /** KL(q || N(0, prior^2)) over the block. */
    double klDivergence(float prior_sigma) const;

    /** klDivergence, plus its gradients scaled by `scale` accumulated
     *  into g_mu / g_rho, in one pass. The returned value is
     *  bit-identical to klDivergence. */
    double klValueAndGrad(float prior_sigma, float scale, nn::Matrix &g_mu,
                          nn::Matrix &g_rho) const;

    nn::Matrix &mu() { return mu_; }
    const nn::Matrix &mu() const { return mu_; }
    nn::Matrix &rho() { return rho_; }
    const nn::Matrix &rho() const { return rho_; }

  private:
    void ensureShape(nn::Matrix &m) const;

    nn::Matrix mu_, rho_;
};

} // namespace vibnn::bnn

#endif // VIBNN_BNN_VARIATIONAL_MATRIX_HH
