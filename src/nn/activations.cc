#include "nn/activations.hh"

#include <algorithm>
#include <cmath>

#include "accel/kernels/kernels.hh"

namespace vibnn::nn
{

void
reluForward(float *values, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        values[i] = std::max(0.0f, values[i]);
}

void
reluBackward(const float *pre_activation, const float *dy, float *dx,
             std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        dx[i] = pre_activation[i] > 0.0f ? dy[i] : 0.0f;
}

void
softmax(float *values, std::size_t count)
{
    if (count == 0)
        return;
    float peak = values[0];
    for (std::size_t i = 1; i < count; ++i)
        peak = std::max(peak, values[i]);
    float total = 0.0f;
    for (std::size_t i = 0; i < count; ++i) {
        values[i] = std::exp(values[i] - peak);
        total += values[i];
    }
    const float inv = 1.0f / total;
    for (std::size_t i = 0; i < count; ++i)
        values[i] *= inv;
}

float
softplus(float x)
{
    return accel::kernels::softplus(x);
}

float
logistic(float x)
{
    return accel::kernels::logistic(x);
}

void
softplusLogistic(float x, float &sp, float &lg)
{
    accel::kernels::softplusLogistic(x, sp, lg);
}

} // namespace vibnn::nn
