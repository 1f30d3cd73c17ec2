/**
 * @file
 * Fast functional model of the accelerator datapath, driven by the
 * QuantizedProgram IR.
 *
 * Bit-exact with the cycle-level Simulator (a ctest asserts this on
 * both MLP and CNN programs): it consumes GRNG samples in the identical
 * canonical (op, position, round, chunk, set, pe, lane) order and runs
 * the identical DatapathKernel arithmetic, but skips the memory
 * modeling and cycle accounting. Accuracy benches (Tables 6/7, Figure
 * 18, the CNN extension) evaluate thousands of images x MC samples;
 * this path makes that feasible while the Simulator provides the
 * timing on a sample of images.
 */

#ifndef VIBNN_ACCEL_FUNCTIONAL_HH
#define VIBNN_ACCEL_FUNCTIONAL_HH

#include <cstdint>
#include <vector>

#include "accel/config.hh"
#include "accel/executor.hh"
#include "accel/program.hh"
#include "accel/weight_generator.hh"

namespace vibnn::accel
{

/** Functional (untimed) quantized inference engine — the "functional"
 *  executor backend. */
class FunctionalRunner : public Executor
{
  public:
    FunctionalRunner(const QuantizedProgram &program,
                     const AcceleratorConfig &config,
                     grng::GaussianGenerator *generator);

    /** One forward pass; raw outputs on the activation grid. */
    std::vector<std::int64_t> runPass(const float *x) override;

    /** Swap the eps source (per-unit scheduling). Not owned. */
    void setGenerator(grng::GaussianGenerator *generator) override;

    /** Pass/sample counters only: this backend has no timing model,
     *  so the cycle and port fields stay zero. */
    const CycleStats &stats() const override { return stats_; }

    const QuantizedProgram &program() const override { return program_; }
    const AcceleratorConfig &config() const override { return config_; }

  private:
    /** One bank schedule (rounds of M neurons) over a word-padded
     *  input window — the Dense op body and each ConvLowered position
     *  pass. Consumes eps for every lane of every chunk cycle, real
     *  neuron or not, exactly like the simulator. */
    void runBank(const QuantizedLayer &bank, bool relu,
                 const std::int64_t *in, std::int64_t *out);

    QuantizedProgram program_;
    AcceleratorConfig config_;
    DatapathKernel kernel_;
    WeightGenerator weightGen_;
    CycleStats stats_;
    std::vector<std::int64_t> bufferA_, bufferB_;
    std::vector<std::int64_t> patches_, patchBuf_, bankOut_;
    std::vector<std::int64_t> acc_;
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_FUNCTIONAL_HH
