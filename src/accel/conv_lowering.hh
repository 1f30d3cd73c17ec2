/**
 * @file
 * Convolution-on-accelerator lowering: geometry helpers.
 *
 * The paper's Section 1 claims VIBNN's design principles "are
 * orthogonal to the optimization techniques on convolutional layers"
 * — i.e. the PE array + weight generator serve CNNs too. The standard
 * im2col mapping makes that concrete: one output *position* of a conv
 * layer is a dense neuron bank (outChannels neurons of patchSize
 * inputs), so a conv layer executes as positions() time-multiplexed
 * bank schedules on the unmodified datapath. The weight generator
 * samples a fresh w = mu + sigma*eps per position-pass from the same
 * WPMem planes — the hardware analogue of drawing an independent
 * filter sample per receptive field (a *local* reparameterization in
 * hardware terms; the software direct estimator shares one filter
 * sample across positions, and the tests pin down both semantics).
 *
 * The lowering itself lives in the compiler front-end
 * (accel/program.hh: compile(BayesianConvNet) emits ConvLowered ops,
 * and compile(VariationalConv2d) compiles one conv layer on its own for
 * layer-level studies) and every executor runs it natively. This
 * module keeps only the raw-grid geometry helpers the executors share:
 * im2colRaw and maxPoolRaw.
 */

#ifndef VIBNN_ACCEL_CONV_LOWERING_HH
#define VIBNN_ACCEL_CONV_LOWERING_HH

#include <cstdint>
#include <vector>

#include "nn/conv.hh"

namespace vibnn::accel
{

/**
 * im2col on raw activation-grid values: patches is resized to
 * positions() x patchSize() row-major; row p holds the receptive field
 * of output position p (channel-major, then kernel row, then kernel
 * column), with zeros where the field overhangs the padded border —
 * the exact integer mirror of nn::im2col (gather commutes with
 * element-wise quantization, and the padding zero is fromReal(0)).
 */
void im2colRaw(const nn::ConvSpec &spec, const std::int64_t *x,
               std::vector<std::int64_t> &patches);

/** The same gather on the batched executor's narrowed int32 SoA
 *  buffers (identical indexing code, instantiated per width). */
void im2colRaw(const nn::ConvSpec &spec, const std::int32_t *x,
               std::vector<std::int32_t> &patches);

/**
 * Max pooling on raw activation-grid values (CHW in, CHW out). Max is
 * monotone on the fixed-point grid, so pooling raw values is exactly
 * the quantization of pooling real values.
 */
void maxPoolRaw(const nn::PoolSpec &spec, const std::int64_t *x,
                std::int64_t *out);

/** int32 variant for the batched executor's activation buffers. */
void maxPoolRaw(const nn::PoolSpec &spec, const std::int32_t *x,
                std::int32_t *out);

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_CONV_LOWERING_HH
