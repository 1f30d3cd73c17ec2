/**
 * @file
 * Variational 2-D convolution layer — the Bayesian-CNN extension.
 *
 * The paper (Section 1) states that VIBNN's design principles "are
 * orthogonal to the optimization techniques on convolutional layers ...
 * and can be applied to CNNs and RNNs as well". This layer realizes the
 * claim: every filter weight carries a factorized Gaussian posterior
 * (mu, rho) with sigma = softplus(rho), exactly as in the dense case,
 * and a sampled filter w = mu + sigma * eps is drawn once per forward
 * pass (a weight sample is shared across all output positions — the
 * weight-sharing semantics a hardware weight generator would implement:
 * one GRN per physical parameter per Monte-Carlo pass).
 *
 * Two training estimators mirror bnn/variational_dense.hh:
 *  - direct: per-weight eps, backprop through the sampled filter — the
 *    computation the accelerator performs at inference;
 *  - local reparameterization (LRT): per-output-position eps with
 *    mean = conv(mu, x) and variance = conv(sigma^2, x^2). For
 *    convolutions the LRT drops the cross-position correlation induced
 *    by weight sharing (the standard practice, cf. variational dropout
 *    literature); the gradient it estimates is still unbiased for the
 *    factorized per-activation posterior and is what makes host-side
 *    training tractable. The equivalence tests bound the moment gap.
 */

#ifndef VIBNN_BNN_VARIATIONAL_CONV_HH
#define VIBNN_BNN_VARIATIONAL_CONV_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "nn/conv.hh"
#include "nn/tensor.hh"

namespace vibnn::bnn
{

/** Gradient buffers for a variational convolution layer. */
struct VariationalConvGradients
{
    nn::Matrix muWeight, rhoWeight;
    std::vector<float> muBias, rhoBias;

    void resize(const nn::ConvSpec &spec);
    void zero();
};

/** Per-sample scratch for one variational convolution layer. */
struct VariationalConvScratch
{
    /** im2col patches of the last forward input. */
    nn::Matrix patches;
    /** Element-wise squared patches (LRT variance path). */
    nn::Matrix patchesSquared;
    /** Direct mode: per-weight eps (outChannels x patchSize). */
    nn::Matrix epsWeight;
    std::vector<float> epsBias;
    /** LRT mode: per-output eps and std-dev (outChannels*positions). */
    std::vector<float> activationEps, activationStd;
    /** Materialized filter sample for the current output channel. */
    std::vector<float> weightSample;
    /** sigma = softplus(rho) and dsigma/drho = logistic(rho) of the
     *  current output channel's filter, evaluated once per weight. */
    std::vector<float> sigmaRow, dSigmaRow;
    /** Patch-space gradient (backward). */
    nn::Matrix dPatches;
};

/** Convolution layer with Gaussian-posterior filters. */
class VariationalConv2d
{
  public:
    /**
     * @param spec Geometry (must be valid()).
     * @param rng Initialization source.
     * @param rho_init Initial rho (sigma = softplus(rho_init)).
     */
    VariationalConv2d(const nn::ConvSpec &spec, Rng &rng,
                      float rho_init = -5.0f);

    const nn::ConvSpec &spec() const { return spec_; }

    /** Mean-field forward using mu only (no sampling). */
    void meanForward(const float *x, float *out,
                     VariationalConvScratch &scratch) const;

    /**
     * Direct-sampling forward: draws one eps per filter weight from
     * `eps` (any callable returning doubles targeting N(0,1)),
     * materializes w = mu + sigma*eps, and convolves. One filter
     * sample serves every output position.
     */
    template <typename EpsFn>
    void
    sampleForward(const float *x, float *out,
                  VariationalConvScratch &scratch, EpsFn &&eps) const
    {
        prepareScratch(scratch);
        nn::im2col(spec_, x, scratch.patches);
        const std::size_t positions = spec_.positions();
        const std::size_t patch = spec_.patchSize();
        for (std::size_t oc = 0; oc < spec_.outChannels; ++oc) {
            const float *mu = muWeight_.row(oc);
            fillSigmaRow(oc, scratch);
            const float *sigma = scratch.sigmaRow.data();
            float *er = scratch.epsWeight.row(oc);
            float *w = scratch.weightSample.data();
            for (std::size_t k = 0; k < patch; ++k) {
                const float e = static_cast<float>(eps());
                er[k] = e;
                w[k] = mu[k] + sigma[k] * e;
            }
            const float eb = static_cast<float>(eps());
            scratch.epsBias[oc] = eb;
            const float b = muBias_[oc] + sigmaOf(rhoBias_[oc]) * eb;
            float *plane = out + oc * positions;
            for (std::size_t p = 0; p < positions; ++p) {
                const float *v = scratch.patches.row(p);
                float acc = b;
                for (std::size_t k = 0; k < patch; ++k)
                    acc += w[k] * v[k];
                plane[p] = acc;
            }
        }
    }

    /** Backward for the direct estimator (uses scratch.epsWeight and
     *  scratch.patches from the matching forward). dx overwritten when
     *  non-null. */
    void sampleBackward(const float *dy, VariationalConvScratch &scratch,
                        VariationalConvGradients &grads, float *dx) const;

    /** LRT forward: out = conv(mu, x) + sqrt(conv(sigma^2, x^2)) e. */
    void lrtForward(const float *x, float *out,
                    VariationalConvScratch &scratch, Rng &rng) const;

    /** Backward for the LRT estimator. */
    void lrtBackward(const float *dy, VariationalConvScratch &scratch,
                     VariationalConvGradients &grads, float *dx) const;

    /** KL(q || N(0, prior_sigma^2)) over the layer's parameters. */
    double klDivergence(float prior_sigma) const;

    /** klDivergence, plus d(KL)/d(params) scaled by `scale`
     *  accumulated into grads, in one pass over the parameters. The
     *  returned value is bit-identical to klDivergence. */
    double klValueAndGrad(float prior_sigma, float scale,
                          VariationalConvGradients &grads) const;

    /** sigma = softplus(rho). */
    static float sigmaOf(float rho);

    /** Scalar parameter count (mu and rho, weights and biases). */
    std::size_t paramCount() const;

    nn::Matrix &muWeight() { return muWeight_; }
    const nn::Matrix &muWeight() const { return muWeight_; }
    nn::Matrix &rhoWeight() { return rhoWeight_; }
    const nn::Matrix &rhoWeight() const { return rhoWeight_; }
    std::vector<float> &muBias() { return muBias_; }
    const std::vector<float> &muBias() const { return muBias_; }
    std::vector<float> &rhoBias() { return rhoBias_; }
    const std::vector<float> &rhoBias() const { return rhoBias_; }

    /** Size scratch buffers for this layer. */
    void prepareScratch(VariationalConvScratch &scratch) const;

  private:
    /** Fill scratch.sigmaRow / dSigmaRow for output channel oc (the
     *  active kernel tier's plane op: bitwise nn::softplusLogistic). */
    void fillSigmaRow(std::size_t oc, VariationalConvScratch &scratch) const;

    nn::ConvSpec spec_;
    nn::Matrix muWeight_, rhoWeight_;
    std::vector<float> muBias_, rhoBias_;
};

} // namespace vibnn::bnn

#endif // VIBNN_BNN_VARIATIONAL_CONV_HH
