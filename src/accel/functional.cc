#include "accel/functional.hh"

#include <algorithm>

#include "accel/conv_lowering.hh"
#include "common/logging.hh"

namespace vibnn::accel
{

namespace
{

/** Elements padded up to whole N-wide IFMem words. */
std::size_t
paddedWords(std::size_t elements, int n)
{
    return (elements + n - 1) / n * static_cast<std::size_t>(n);
}

} // namespace

FunctionalRunner::FunctionalRunner(const QuantizedProgram &program,
                                   const AcceleratorConfig &config,
                                   grng::GaussianGenerator *generator)
    : program_(program), config_(config),
      kernel_(program_.activationFormat, program_.weightFormat,
              program_.epsFormat),
      weightGen_(kernel_, generator)
{
    validateProgram(program_, config_);
}

void
FunctionalRunner::setGenerator(grng::GaussianGenerator *generator)
{
    weightGen_.setGenerator(generator);
}

void
FunctionalRunner::runBank(const QuantizedLayer &bank, bool relu,
                          const std::int64_t *in, std::int64_t *out)
{
    const int t_sets = config_.peSets;
    const int s_pes = config_.pesPerSet;
    const int n = config_.peInputs();
    const int m = config_.totalPes();

    const std::size_t rounds = (bank.outDim + m - 1) / m;
    const std::size_t chunks = (bank.inDim + n - 1) / n;

    // Accumulators for the M in-flight neurons of a round.
    acc_.assign(m, 0);

    for (std::size_t r = 0; r < rounds; ++r) {
        std::fill(acc_.begin(), acc_.end(), 0);
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::int64_t *inputs = in + c * n;
            for (int t = 0; t < t_sets; ++t) {
                for (int s = 0; s < s_pes; ++s) {
                    const std::size_t pe =
                        static_cast<std::size_t>(t) * s_pes + s;
                    const std::size_t neuron = r * m + pe;
                    std::int64_t sum = 0;
                    for (int k = 0; k < n; ++k) {
                        // eps is consumed for every lane every chunk —
                        // identical order to the cycle simulator.
                        std::int64_t mu = 0, sg = 0;
                        const std::size_t input =
                            c * static_cast<std::size_t>(n) + k;
                        if (neuron < bank.outDim &&
                            input < bank.inDim) {
                            const std::size_t idx =
                                neuron * bank.inDim + input;
                            mu = bank.muWeight[idx];
                            sg = bank.sigmaWeight[idx];
                        }
                        const std::int64_t w =
                            weightGen_.sample(mu, sg);
                        sum += w * inputs[k];
                    }
                    acc_[pe] += sum;
                }
            }
        }
        for (int pe = 0; pe < m; ++pe) {
            const std::size_t neuron = r * m + pe;
            if (neuron >= bank.outDim)
                continue;
            out[neuron] =
                relu ? kernel_.finishNeuron(acc_[pe],
                                            bank.muBias[neuron])
                     : kernel_.finishOutputNeuron(acc_[pe],
                                                  bank.muBias[neuron]);
        }
    }
}

std::vector<std::int64_t>
FunctionalRunner::runPass(const float *x)
{
    const int n = config_.peInputs();
    const auto &act = program_.activationFormat;

    // Quantize the input onto the activation grid, padded to a whole
    // number of N-wide words (as the IFMem stores it).
    const std::size_t in_dim = program_.inputDim();
    bufferA_.assign(paddedWords(in_dim, n), 0);
    for (std::size_t i = 0; i < in_dim; ++i)
        bufferA_[i] = act.fromReal(x[i]);

    for (const auto &op : program_.ops) {
        switch (op.kind) {
          case OpKind::Dense: {
            bufferB_.assign(
                std::max<std::size_t>(paddedWords(op.outSize, n), n), 0);
            runBank(op.bank, op.relu, bufferA_.data(), bufferB_.data());
            bufferA_.swap(bufferB_);
            break;
          }
          case OpKind::ConvLowered: {
            im2colRaw(op.conv, bufferA_.data(), patches_);
            const std::size_t positions = op.conv.positions();
            const std::size_t patch = op.conv.patchSize();
            const std::size_t patch_padded = paddedWords(patch, n);
            bufferB_.assign(
                std::max<std::size_t>(paddedWords(op.outSize, n), n), 0);
            bankOut_.assign(op.conv.outChannels, 0);
            for (std::size_t p = 0; p < positions; ++p) {
                // Pad this position's patch to whole words and run the
                // filter bank — fresh weight samples per position.
                patchBuf_.assign(patch_padded, 0);
                std::copy(patches_.begin() + p * patch,
                          patches_.begin() + (p + 1) * patch,
                          patchBuf_.begin());
                runBank(op.bank, op.relu, patchBuf_.data(),
                        bankOut_.data());
                for (std::size_t oc = 0; oc < op.conv.outChannels; ++oc)
                    bufferB_[oc * positions + p] = bankOut_[oc];
            }
            bufferA_.swap(bufferB_);
            break;
          }
          case OpKind::Pool: {
            bufferB_.assign(
                std::max<std::size_t>(paddedWords(op.outSize, n), n), 0);
            maxPoolRaw(op.pool, bufferA_.data(), bufferB_.data());
            bufferA_.swap(bufferB_);
            break;
          }
          case OpKind::Flatten:
          case OpKind::Output:
            // Pure relabeling / staging.
            break;
        }
    }

    // Pass/sample accounting (no cycles on the untimed path).
    stats_.grnSamples = weightGen_.samplesDrawn();
    ++stats_.images;

    bufferA_.resize(program_.outputDim());
    return bufferA_;
}

} // namespace vibnn::accel
