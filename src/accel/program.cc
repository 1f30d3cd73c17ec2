/**
 * @file
 * Quantized program IR: compiler front-ends and validation (see
 * program.hh).
 */

#include "accel/program.hh"

#include <algorithm>

#include "accel/kernels/kernels.hh"
#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace vibnn::accel
{

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Dense:
        return "dense";
      case OpKind::ConvLowered:
        return "conv";
      case OpKind::Pool:
        return "pool";
      case OpKind::Flatten:
        return "flatten";
      case OpKind::Output:
        return "output";
    }
    return "?";
}

std::size_t
QuantizedProgram::inputDim() const
{
    if (ops.empty())
        fatal("QuantizedProgram::inputDim(): program has no ops "
              "(compile a network first)");
    return ops.front().inSize;
}

std::size_t
QuantizedProgram::outputDim() const
{
    if (ops.empty())
        fatal("QuantizedProgram::outputDim(): program has no ops "
              "(compile a network first)");
    return ops.back().outSize;
}

std::vector<std::size_t>
QuantizedProgram::bankInputSizes() const
{
    std::vector<std::size_t> sizes;
    for (const auto &op : ops) {
        if (op.isCompute())
            sizes.push_back(op.bank.inDim);
    }
    return sizes;
}

void
validateProgram(const QuantizedProgram &program,
                const AcceleratorConfig &config)
{
    if (program.ops.empty())
        fatal("validateProgram: program has no ops");

    std::size_t flowing = program.ops.front().inSize;
    bool seen_compute = false;
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        const auto &op = program.ops[i];
        if (op.inSize != flowing) {
            fatal(strfmt("program op %zu (%s): inSize %zu does not chain "
                         "with previous outSize %zu",
                         i, opKindName(op.kind), op.inSize, flowing));
        }
        switch (op.kind) {
          case OpKind::Dense:
            if (op.bank.inDim != op.inSize ||
                op.bank.outDim != op.outSize) {
                fatal(strfmt("program op %zu (dense): bank %zux%zu does "
                             "not match op sizes %zu->%zu",
                             i, op.bank.outDim, op.bank.inDim, op.inSize,
                             op.outSize));
            }
            seen_compute = true;
            break;
          case OpKind::ConvLowered:
            if (!op.conv.valid())
                fatal(strfmt("program op %zu (conv): invalid geometry",
                             i));
            if (op.inSize != op.conv.inputSize() ||
                op.outSize != op.conv.outputSize() ||
                op.bank.inDim != op.conv.patchSize() ||
                op.bank.outDim != op.conv.outChannels) {
                fatal(strfmt("program op %zu (conv): bank/geometry "
                             "mismatch",
                             i));
            }
            seen_compute = true;
            break;
          case OpKind::Pool:
            if (!op.pool.valid())
                fatal(strfmt("program op %zu (pool): invalid geometry",
                             i));
            if (op.inSize != op.pool.inputSize() ||
                op.outSize != op.pool.outputSize()) {
                fatal(strfmt("program op %zu (pool): geometry does not "
                             "match op sizes",
                             i));
            }
            break;
          case OpKind::Flatten:
          case OpKind::Output:
            if (op.outSize != op.inSize)
                fatal(strfmt("program op %zu (%s): must be identity-"
                             "sized",
                             i, opKindName(op.kind)));
            break;
        }
        flowing = op.outSize;
    }
    if (!seen_compute)
        fatal("validateProgram: program has no compute ops");
    if (program.ops.back().kind != OpKind::Output)
        fatal("validateProgram: program must end in an Output staging op");

    // Equation-(15) constraint system, applied once over the whole
    // program: the write-drain condition ranges over every compute
    // op's bank input (AcceleratorConfig::validate takes the min over
    // all entries but the last, so append the output width).
    std::vector<std::size_t> sizes = program.bankInputSizes();
    sizes.push_back(program.outputDim());
    config.validate(sizes);
}

namespace
{

/** mu and softplus(rho) of n parameters on the weight grid, sigma from
 *  the active tier's plane op. */
void
quantizeMuSigma(const float *mu, const float *rho, std::size_t n,
                const fixed::FixedPointFormat &format,
                std::vector<std::int32_t> &mu_raw,
                std::vector<std::int32_t> &sigma_raw)
{
    mu_raw.resize(n);
    sigma_raw.resize(n);
    kernels::forSigmaChunks(
        kernels::activeKernels(), rho, n,
        [&](std::size_t i, std::size_t len, const float *sigma,
            const float *) {
            for (std::size_t j = 0; j < len; ++j) {
                mu_raw[i + j] =
                    static_cast<std::int32_t>(format.fromReal(mu[i + j]));
                sigma_raw[i + j] =
                    static_cast<std::int32_t>(format.fromReal(sigma[j]));
            }
        });
}

} // namespace

QuantizedLayer
quantizeBank(const float *mu_weight, const float *rho_weight,
             const float *mu_bias, const float *rho_bias,
             std::size_t in_dim, std::size_t out_dim,
             const fixed::FixedPointFormat &weight_format)
{
    QuantizedLayer bank;
    bank.inDim = in_dim;
    bank.outDim = out_dim;
    quantizeMuSigma(mu_weight, rho_weight, in_dim * out_dim, weight_format,
                    bank.muWeight, bank.sigmaWeight);
    quantizeMuSigma(mu_bias, rho_bias, out_dim, weight_format, bank.muBias,
                    bank.sigmaBias);
    return bank;
}

namespace
{

void
applyFormats(QuantizedProgram &program, const AcceleratorConfig &config)
{
    program.activationFormat = config.activationFormat();
    program.weightFormat = config.weightFormat();
    program.epsFormat = config.epsFormat();
}

ProgramOp
makeDenseOp(const bnn::VariationalDense &layer, bool relu,
            const fixed::FixedPointFormat &weight_format,
            std::size_t index)
{
    ProgramOp op;
    op.kind = OpKind::Dense;
    op.inSize = layer.inDim();
    op.outSize = layer.outDim();
    op.relu = relu;
    op.bank = quantizeBank(
        layer.muWeight().data().data(), layer.rhoWeight().data().data(),
        layer.muBias().data(), layer.rhoBias().data(), layer.inDim(),
        layer.outDim(), weight_format);
    op.label = strfmt("dense%zu %zu->%zu", index, op.inSize, op.outSize);
    return op;
}

ProgramOp
makeConvOp(const bnn::VariationalConv2d &layer, bool relu,
           const fixed::FixedPointFormat &weight_format,
           std::size_t index)
{
    const auto &spec = layer.spec();
    ProgramOp op;
    op.kind = OpKind::ConvLowered;
    op.conv = spec;
    op.inSize = spec.inputSize();
    op.outSize = spec.outputSize();
    op.relu = relu;
    op.bank = quantizeBank(
        layer.muWeight().data().data(), layer.rhoWeight().data().data(),
        layer.muBias().data(), layer.rhoBias().data(), spec.patchSize(),
        spec.outChannels, weight_format);
    op.label = strfmt("conv%zu %zu->%zu %zux%zu @%zux%zu", index,
                      spec.inChannels, spec.outChannels, spec.kernel,
                      spec.kernel, spec.inHeight, spec.inWidth);
    return op;
}

ProgramOp
makeOutputOp(std::size_t dim)
{
    ProgramOp op;
    op.kind = OpKind::Output;
    op.inSize = dim;
    op.outSize = dim;
    op.relu = false;
    op.label = strfmt("output %zu", dim);
    return op;
}

} // namespace

QuantizedProgram
compile(const bnn::BayesianMlp &net, const AcceleratorConfig &config)
{
    QuantizedProgram program;
    applyFormats(program, config);

    const auto &layers = net.layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
        program.ops.push_back(makeDenseOp(
            layers[i], /*relu=*/i + 1 < layers.size(),
            program.weightFormat, i));
    }
    if (!program.ops.empty())
        program.ops.push_back(makeOutputOp(program.ops.back().outSize));

    validateProgram(program, config);
    return program;
}

QuantizedProgram
compile(const bnn::BayesianConvNet &net, const AcceleratorConfig &config)
{
    QuantizedProgram program;
    applyFormats(program, config);

    // Conv(+pool) stages: the block list is the authoritative stage
    // order; each conv layer carries its own geometry.
    const auto &blocks = net.config().blocks;
    const auto &convs = net.convLayers();
    VIBNN_ASSERT(blocks.size() == convs.size(),
                 "conv block/layer count mismatch");
    for (std::size_t i = 0; i < convs.size(); ++i) {
        program.ops.push_back(makeConvOp(convs[i], /*relu=*/true,
                                         program.weightFormat, i));

        const auto &spec = convs[i].spec();
        if (blocks[i].pool) {
            nn::PoolSpec pool;
            pool.channels = spec.outChannels;
            pool.inHeight = spec.outHeight();
            pool.inWidth = spec.outWidth();
            pool.window = blocks[i].poolWindow;
            pool.stride = blocks[i].poolWindow;
            ProgramOp pop;
            pop.kind = OpKind::Pool;
            pop.pool = pool;
            pop.inSize = pool.inputSize();
            pop.outSize = pool.outputSize();
            pop.relu = false;
            pop.label = strfmt("pool%zu %zux%zu", i, pool.window,
                               pool.window);
            program.ops.push_back(std::move(pop));
        }
    }

    // CHW -> flat boundary before the dense head.
    {
        ProgramOp op;
        op.kind = OpKind::Flatten;
        op.inSize = program.ops.back().outSize;
        op.outSize = op.inSize;
        op.relu = false;
        op.label = strfmt("flatten %zu", op.inSize);
        program.ops.push_back(std::move(op));
    }

    const auto &dense = net.denseLayers();
    for (std::size_t i = 0; i < dense.size(); ++i) {
        program.ops.push_back(makeDenseOp(
            dense[i], /*relu=*/i + 1 < dense.size(),
            program.weightFormat, i));
    }
    program.ops.push_back(makeOutputOp(net.outputDim()));

    validateProgram(program, config);
    return program;
}

QuantizedProgram
compile(const bnn::VariationalConv2d &layer,
        const AcceleratorConfig &config, bool relu)
{
    QuantizedProgram program;
    applyFormats(program, config);
    program.ops.push_back(
        makeConvOp(layer, relu, program.weightFormat, /*index=*/0));
    program.ops.push_back(makeOutputOp(program.ops.back().outSize));

    validateProgram(program, config);
    return program;
}

} // namespace vibnn::accel
