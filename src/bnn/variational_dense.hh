/**
 * @file
 * Variational dense layer — the Bayesian building block of VIBNN
 * (paper Section 2).
 *
 * Every weight and bias carries a factorized Gaussian posterior
 * q(w; theta) with theta = (mu, rho) and sigma = softplus(rho) =
 * ln(1 + exp(rho)) (paper equation between (1) and (2)). A concrete
 * weight sample is w = mu + sigma * eps with eps ~ N(0, 1) (equation
 * (2)); that sampling step is precisely what the hardware GRNGs feed.
 *
 * Training follows Bayes-by-Backprop (Blundell et al., the paper's
 * reference [9]) with a closed-form KL to a zero-mean Gaussian prior.
 * Two estimators are implemented:
 *
 *  - direct: sample eps per weight, backprop through w (the textbook
 *    estimator; exactly the computation the accelerator performs at
 *    inference time);
 *  - local reparameterization: sample per-activation instead, using
 *    mean = mu x and variance = sigma^2 x^2 — mathematically the same
 *    posterior over pre-activations but O(fan-out) samples instead of
 *    O(weights), which is what makes host-side training tractable on
 *    one core.
 */

#ifndef VIBNN_BNN_VARIATIONAL_DENSE_HH
#define VIBNN_BNN_VARIATIONAL_DENSE_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "nn/tensor.hh"

namespace vibnn::bnn
{

/** Gradient buffers for a variational layer. */
struct VariationalGradients
{
    nn::Matrix muWeight, rhoWeight;
    std::vector<float> muBias, rhoBias;

    void resize(std::size_t out_dim, std::size_t in_dim);
    void zero();
};

/** Scratch for one sample's forward/backward through one layer. */
struct VariationalScratch
{
    /** Direct mode: sampled eps per weight / bias. */
    nn::Matrix epsWeight;
    std::vector<float> epsBias;
    /** LRT mode: per-activation eps and std-dev. */
    std::vector<float> activationEps, activationStd;
    /** Cached squared input (LRT). */
    std::vector<float> inputSquared;
    /** sigma = softplus(rho) and dsigma/drho = logistic(rho) of the
     *  current output row's weights, evaluated once per weight. */
    std::vector<float> sigmaRow, dSigmaRow;
};

/** Dense layer with Gaussian-posterior weights. */
class VariationalDense
{
  public:
    /**
     * @param in_dim Inputs.
     * @param out_dim Outputs.
     * @param rng Initialization source.
     * @param rho_init Initial rho (sigma = softplus(rho_init)).
     */
    VariationalDense(std::size_t in_dim, std::size_t out_dim, Rng &rng,
                     float rho_init = -5.0f);

    std::size_t inDim() const { return muWeight_.cols(); }
    std::size_t outDim() const { return muWeight_.rows(); }

    /** Mean-field forward using mu only (no sampling). */
    void meanForward(const float *x, float *out) const;

    /**
     * Direct-sampling forward: draws eps from `eps_source` (any callable
     * returning doubles targeting N(0,1) — an Rng lambda or a hardware
     * GRNG), materializes w = mu + sigma*eps into scratch, computes out.
     */
    template <typename EpsFn>
    void
    sampleForward(const float *x, float *out, VariationalScratch &scratch,
                  EpsFn &&eps) const
    {
        prepareScratch(scratch);
        const std::size_t rows = outDim(), cols = inDim();
        for (std::size_t r = 0; r < rows; ++r) {
            const float *mu = muWeight_.row(r);
            fillSigmaRow(r, scratch);
            const float *sigma = scratch.sigmaRow.data();
            float *er = scratch.epsWeight.row(r);
            float acc;
            {
                const float e = static_cast<float>(eps());
                scratch.epsBias[r] = e;
                acc = muBias_[r] + sigmaOf(rhoBias_[r]) * e;
            }
            for (std::size_t c = 0; c < cols; ++c) {
                const float e = static_cast<float>(eps());
                er[c] = e;
                acc += (mu[c] + sigma[c] * e) * x[c];
            }
            out[r] = acc;
        }
    }

    /** Backward for the direct estimator (uses scratch.epsWeight). */
    void sampleBackward(const float *x, const float *dy,
                        VariationalScratch &scratch,
                        VariationalGradients &grads, float *dx) const;

    /** LRT forward: out = (mu x + b_mu) + sqrt(sigma^2 x^2 + sb^2) e. */
    void lrtForward(const float *x, float *out,
                    VariationalScratch &scratch, Rng &rng) const;

    /** Backward for the LRT estimator. */
    void lrtBackward(const float *x, const float *dy,
                     VariationalScratch &scratch,
                     VariationalGradients &grads, float *dx) const;

    /**
     * KL(q || N(0, prior_sigma^2)) summed over the layer's weights and
     * biases (closed form for Gaussians).
     */
    double klDivergence(float prior_sigma) const;

    /** klDivergence, plus d(KL)/d(params) scaled by `scale`
     *  accumulated into grads, in one pass over the parameters. The
     *  returned value is bit-identical to klDivergence. */
    double klValueAndGrad(float prior_sigma, float scale,
                          VariationalGradients &grads) const;

    /** sigma = softplus(rho). */
    static float sigmaOf(float rho);

    nn::Matrix &muWeight() { return muWeight_; }
    const nn::Matrix &muWeight() const { return muWeight_; }
    nn::Matrix &rhoWeight() { return rhoWeight_; }
    const nn::Matrix &rhoWeight() const { return rhoWeight_; }
    std::vector<float> &muBias() { return muBias_; }
    const std::vector<float> &muBias() const { return muBias_; }
    std::vector<float> &rhoBias() { return rhoBias_; }
    const std::vector<float> &rhoBias() const { return rhoBias_; }

    /** Size scratch buffers for this layer. */
    void prepareScratch(VariationalScratch &scratch) const;

  private:
    /** Fill scratch.sigmaRow / dSigmaRow for output row r (the active
     *  kernel tier's plane op: bitwise nn::softplusLogistic). */
    void fillSigmaRow(std::size_t r, VariationalScratch &scratch) const;

    nn::Matrix muWeight_, rhoWeight_;
    std::vector<float> muBias_, rhoBias_;
};

} // namespace vibnn::bnn

#endif // VIBNN_BNN_VARIATIONAL_DENSE_HH
