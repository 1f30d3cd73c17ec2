/**
 * @file
 * Quantized program IR — the single compile-and-execute pipeline for
 * every workload that runs on the modeled accelerator.
 *
 * A QuantizedProgram is an ordered list of typed ops:
 *
 *   - Dense:       one fully-connected layer (a round-scheduled bank of
 *                  outDim neurons with inDim inputs),
 *   - ConvLowered: one convolution layer lowered via im2col — a filter
 *                  bank of outChannels neurons with patchSize inputs,
 *                  time-multiplexed over the conv's output positions,
 *                  drawing a *fresh* weight sample per position from the
 *                  same WPMem parameter planes,
 *   - Pool:        max pooling over CHW maps on the activation grid
 *                  (max is monotone on the grid, so pooling raw values
 *                  is exact),
 *   - Flatten:     the CHW -> flat-vector boundary (pure relabeling;
 *                  the buffers are already flat),
 *   - Output:      terminal staging — marks where the final activation
 *                  window is collected from the IFMem.
 *
 * Programs are produced only by the compiler front-end compile(), which
 * lowers a trained BayesianMlp, BayesianConvNet or conv layer onto the
 * config's fixed-point grids and validates the whole program against the
 * paper's equation-(15) constraint system once. Both executors — the
 * fast FunctionalRunner and the cycle-level Simulator — execute
 * programs, consuming GRNG eps in one canonical
 * (op, position, round, chunk, set, pe, lane) order, so the two are
 * bit-exact by construction for any program (a ctest asserts this on
 * multi-op CNN programs). See docs/ARCHITECTURE.md for the op
 * semantics, the eps-consumption contract, and how to add a new op.
 */

#ifndef VIBNN_ACCEL_PROGRAM_HH
#define VIBNN_ACCEL_PROGRAM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/config.hh"
#include "nn/conv.hh"

namespace vibnn::bnn
{
class BayesianConvNet;
class BayesianMlp;
class VariationalConv2d;
}

namespace vibnn::accel
{

/** Kinds of program ops the executors understand. */
enum class OpKind
{
    /** Fully-connected neuron bank (round-scheduled on the PE array). */
    Dense,
    /** im2col-lowered convolution: the filter bank runs once per output
     *  position with fresh weight samples each time. */
    ConvLowered,
    /** Max pool over CHW maps (memory-distributor datapath). */
    Pool,
    /** CHW -> flat relabeling (no data movement, no cycles). */
    Flatten,
    /** Terminal staging: collect the final activation window. */
    Output,
};

/** Human-readable op kind name (reports, per-op cycle tables). */
const char *opKindName(OpKind kind);

/** One typed op of a quantized program. */
struct ProgramOp
{
    OpKind kind = OpKind::Dense;
    /** Diagnostic label ("conv1 1->8 5x5", "dense 784->64", ...). */
    std::string label;
    /** Element count flowing into / out of the op. */
    std::size_t inSize = 0;
    std::size_t outSize = 0;
    /** Dense/ConvLowered: ReLU on the PE output stage (finishNeuron)
     *  vs. pass-through (finishOutputNeuron, terminal classifier). */
    bool relu = true;
    /** Dense/ConvLowered: the quantized parameter bank. Dense uses the
     *  whole layer (outSize x inSize); ConvLowered uses the filter bank
     *  (outChannels x patchSize). */
    QuantizedLayer bank;
    /** ConvLowered only: the im2col geometry. */
    nn::ConvSpec conv;
    /** Pool only: the pooling geometry. */
    nn::PoolSpec pool;

    /** True for ops that run neuron banks on the PE array (and
     *  therefore consume eps and occupy WPMem). */
    bool isCompute() const
    {
        return kind == OpKind::Dense || kind == OpKind::ConvLowered;
    }
};

/** A whole network lowered to an executable fixed-point program. */
struct QuantizedProgram
{
    std::vector<ProgramOp> ops;
    fixed::FixedPointFormat activationFormat{8, 4};
    fixed::FixedPointFormat weightFormat{8, 6};
    fixed::FixedPointFormat epsFormat{8, 5};

    /** Program input width. fatal() on an empty program. */
    std::size_t inputDim() const;
    /** Program output width. fatal() on an empty program. */
    std::size_t outputDim() const;

    /** Input widths of every compute op (the quantities the write-drain
     *  constraint of equation (14a) ranges over). */
    std::vector<std::size_t> bankInputSizes() const;
};

/**
 * Structural + architectural validation, run once per program: op
 * chaining, bank shapes, and the paper's equation-(15) constraint
 * system (WPMem word width, IFMem write-drain feasibility) for the
 * given accelerator geometry. fatal() on violation.
 */
void validateProgram(const QuantizedProgram &program,
                     const AcceleratorConfig &config);

/**
 * Quantize one variational neuron bank onto the program's grids —
 * the shared lowering core behind every compiler front-end (dense
 * layers and conv filter banks alike).
 * Weight planes are row-major outDim x inDim of (mu, rho); sigma =
 * softplus(rho) is quantized on the weight grid.
 */
QuantizedLayer quantizeBank(const float *mu_weight, const float *rho_weight,
                            const float *mu_bias, const float *rho_bias,
                            std::size_t in_dim, std::size_t out_dim,
                            const fixed::FixedPointFormat &weight_format);

/** Compile a trained Bayesian MLP into a validated program. */
QuantizedProgram compile(const bnn::BayesianMlp &net,
                         const AcceleratorConfig &config);

/** Compile a trained Bayesian CNN into a validated program:
 *  (ConvLowered [Pool])* Flatten Dense* Output. */
QuantizedProgram compile(const bnn::BayesianConvNet &net,
                         const AcceleratorConfig &config);

/** Compile one variational conv layer into a validated
 *  ConvLowered + Output program — a single-layer study on the same
 *  pipeline. @param relu Apply the PE output stage's ReLU (hidden conv
 *  layers); false for a terminal layer. */
QuantizedProgram compile(const bnn::VariationalConv2d &layer,
                         const AcceleratorConfig &config, bool relu);

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_PROGRAM_HH
