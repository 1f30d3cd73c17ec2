/**
 * @file
 * Activation functions. The accelerator implements ReLU (Section 5.1);
 * softmax exists for the software classification head.
 */

#ifndef VIBNN_NN_ACTIVATIONS_HH
#define VIBNN_NN_ACTIVATIONS_HH

#include <cmath>
#include <cstddef>
#include <vector>

namespace vibnn::nn
{

/** In-place ReLU. */
void reluForward(float *values, std::size_t count);

/** ReLU backward: dx = dy where pre-activation > 0, else 0. */
void reluBackward(const float *pre_activation, const float *dy, float *dx,
                  std::size_t count);

/** Numerically stable in-place softmax. */
void softmax(float *values, std::size_t count);

/** softplus(x) = ln(1 + exp(x)), stable for large |x|. */
float softplus(float x);

/** d softplus / dx = logistic(x). */
float logistic(float x);

/**
 * sp = softplus(x) and lg = logistic(x), bit-identical to the two
 * functions, with one exp(x) for both when x < 0 (where each function
 * takes its own). Callers that need sigma = softplus(rho) and
 * dsigma/drho = logistic(rho) of the same rho use this.
 */
inline void
softplusLogistic(float x, float &sp, float &lg)
{
    if (x >= 0.0f) {
        sp = softplus(x);
        lg = logistic(x);
        return;
    }
    const float z = std::exp(x);
    sp = x < -20.0f ? z : std::log1p(z);
    lg = z / (1.0f + z);
}

} // namespace vibnn::nn

#endif // VIBNN_NN_ACTIVATIONS_HH
