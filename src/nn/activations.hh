/**
 * @file
 * Activation functions. The accelerator implements ReLU (Section 5.1);
 * softmax exists for the software classification head.
 */

#ifndef VIBNN_NN_ACTIVATIONS_HH
#define VIBNN_NN_ACTIVATIONS_HH

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

/** softplus(x) = ln(1 + exp(x)): accel::kernels::softplus, the
 *  repository's one definition (double-internal, rounded once; x above
 *  20, exp(x) below -20). */
float softplus(float x);

/** d softplus / dx = logistic(x) (accel::kernels::logistic). */
float logistic(float x);

/**
 * sp = softplus(x) and lg = logistic(x), bit-identical to the two
 * functions, from one exp. Callers that need sigma = softplus(rho) and
 * dsigma/drho = logistic(rho) of the same rho use this.
 */
void softplusLogistic(float x, float &sp, float &lg);

} // namespace vibnn::nn

#endif // VIBNN_NN_ACTIVATIONS_HH
