/**
 * @file
 * VIBNN public facade — the API a downstream user adopts.
 *
 * A VibnnSystem owns a trained Bayesian network — an MLP *or* a CNN —
 * together with an accelerator configuration and provides the full
 * deployment flow of the paper:
 *
 *   train (host, Bayes-by-Backprop)
 *     -> compile into a QuantizedProgram on the B-bit grids
 *     -> run inference either in software (float, MC ensemble) or on
 *        the modeled hardware (functional fixed-point path, the
 *        cycle-level simulator for timing, or the parallel McEngine
 *        for batched classification)
 *     -> query the FPGA resource / power / throughput estimates.
 *
 * See examples/quickstart.cc (MLP) and examples/bayesian_lenet.cc
 * (CNN-on-accelerator) for the canonical usage.
 */

#ifndef VIBNN_CORE_VIBNN_HH
#define VIBNN_CORE_VIBNN_HH

#include <memory>
#include <string>

#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "bnn/bayesian_cnn.hh"
#include "bnn/bnn_trainer.hh"
#include "data/dataset.hh"
#include "grng/registry.hh"
#include "hwmodel/network_hw.hh"
#include "serve/session.hh"

namespace vibnn::core
{

/** Batched-inference execution mode — now owned by the serving layer;
 *  the facade keeps the name for its pre-session callers. */
using ExecMode = serve::ExecMode;

/** End-to-end VIBNN deployment handle. */
class VibnnSystem
{
  public:
    /**
     * @param net A (typically trained) Bayesian MLP; copied in.
     * @param config Accelerator geometry and bit-length.
     * @param grng_id GRNG design id (see grng::makeGenerator).
     * @param seed Seed for the hardware GRNG instance.
     */
    VibnnSystem(const bnn::BayesianMlp &net,
                const accel::AcceleratorConfig &config,
                std::string grng_id = "rlf", std::uint64_t seed = 1);

    /** Same deployment flow for a Bayesian CNN: the compiler lowers
     *  conv layers via im2col into ConvLowered program ops. */
    VibnnSystem(const bnn::BayesianConvNet &net,
                const accel::AcceleratorConfig &config,
                std::string grng_id = "rlf", std::uint64_t seed = 1);

    /** Train a fresh Bayesian MLP on a dataset and wrap it. */
    static VibnnSystem train(const data::Dataset &dataset,
                             const std::vector<std::size_t> &hidden,
                             const bnn::BnnTrainConfig &train_config,
                             const accel::AcceleratorConfig &accel_config,
                             const std::string &grng_id = "rlf");

    /** True when the wrapped model is a CNN. */
    bool isConvolutional() const { return cnn_ != nullptr; }

    /** The software MLP model (fatal if this system wraps a CNN). */
    const bnn::BayesianMlp &network() const;
    bnn::BayesianMlp &network();

    /** The software CNN model (fatal if this system wraps an MLP). */
    const bnn::BayesianConvNet &convNetwork() const;

    /** The compiled deployment program. */
    const accel::QuantizedProgram &program() const { return program_; }

    const accel::AcceleratorConfig &config() const { return config_; }
    const std::string &grngId() const { return grngId_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * A serving session over this system's program — the request /
     * response surface of serve::InferenceSession (async submit(),
     * micro-batching, per-image uncertainty). The facade's own
     * classifyBatch/hardwareAccuracyBatched are thin wrappers over
     * exactly this.
     */
    std::unique_ptr<serve::InferenceSession>
    makeSession(const serve::SessionOptions &options = {}) const;

    /** Software (float) MC-ensemble accuracy. */
    double softwareAccuracy(const nn::DataView &data,
                            std::size_t mc_samples,
                            std::uint64_t seed) const;

    /** Hardware (fixed-point functional path) MC-ensemble accuracy. */
    double hardwareAccuracy(const nn::DataView &data) const;

    /**
     * Batched MC-ensemble classification on McEngine — the parallel
     * hardware path, so examples/benches stop re-implementing the MC
     * loop. Bit-identical for any thread count in either mode.
     * @param data Images to classify.
     * @param threads Worker parallelism (0 sizes from the global pool).
     * @param probs Optional: count * outputDim averaged probabilities.
     * @param mode Fidelity (per-pass sampling, default) or Throughput
     *        (per-round weight reuse on the batched backend).
     * @return Predicted class per image.
     */
    std::vector<std::size_t>
    classifyBatch(const nn::DataView &data, std::size_t threads = 0,
                  float *probs = nullptr,
                  ExecMode mode = ExecMode::Fidelity) const;

    /** MC-ensemble accuracy via classifyBatch (parallel McEngine). */
    double
    hardwareAccuracyBatched(const nn::DataView &data,
                            std::size_t threads = 0,
                            ExecMode mode = ExecMode::Fidelity) const;

    /** Fresh executor backend by registry id ("simulator",
     *  "functional", "batched"); the eps stream is owned by the
     *  returned object. */
    std::unique_ptr<accel::Executor>
    makeExecutor(const std::string &id) const;

    /**
     * Cycle-accurate timing: simulate `images` single MC passes and
     * return the statistics (cycles per pass feeds Table 5; opCycles
     * breaks the cost down per program op).
     */
    accel::CycleStats simulateTiming(const nn::DataView &data,
                                     std::size_t images) const;

    /** FPGA resource/power estimate for this configuration. */
    hw::DesignEstimate resourceEstimate() const;

    /** Table 5 operating point given measured cycles per image pass. */
    hw::PerformanceModel performance(double cycles_per_image) const;

  private:
    std::unique_ptr<bnn::BayesianMlp> net_;
    std::unique_ptr<bnn::BayesianConvNet> cnn_;
    accel::AcceleratorConfig config_;
    accel::QuantizedProgram program_;
    std::string grngId_;
    std::uint64_t seed_;
};

} // namespace vibnn::core

#endif // VIBNN_CORE_VIBNN_HH
