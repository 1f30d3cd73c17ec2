/**
 * @file
 * Accelerator configuration and the shared datapath arithmetic.
 *
 * AcceleratorConfig captures the paper's architectural parameters — T
 * PE-sets of S PEs with N inputs each (S = N by design, Section 5.4),
 * operand bit-length B — and derives the fixed-point formats used along
 * the datapath:
 *
 *   - activations: Q(B, B-4) (inputs are [0,1] pixels / ReLU outputs)
 *   - weights (mu, sigma, bias): Q(B, B-2) (weights live in [-2, 2))
 *   - eps: Q(8, 5) (the GRNGs produce 8-bit unit Gaussians)
 *
 * QuantizedLayer is one neuron bank lowered onto those grids: the raw
 * integer mu/sigma planes the compiler (accel/program.hh) places in
 * each compute op of a QuantizedProgram.
 */

#ifndef VIBNN_ACCEL_CONFIG_HH
#define VIBNN_ACCEL_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fixed/fixed_point.hh"

namespace vibnn::accel
{

/** Architectural + numeric configuration. */
struct AcceleratorConfig
{
    /** Number of PE sets (paper: 16). */
    int peSets = 16;
    /** PEs per set == inputs per PE (paper: 8). */
    int pesPerSet = 8;
    /** Operand bit-length B (paper settles on 8). */
    int bits = 8;
    /** Monte-Carlo passes per classified image. */
    int mcSamples = 8;

    /** Total PEs (M = T * S). */
    int totalPes() const { return peSets * pesPerSet; }
    /** Inputs per PE (N = S). */
    int peInputs() const { return pesPerSet; }

    fixed::FixedPointFormat activationFormat() const;
    fixed::FixedPointFormat weightFormat() const;
    fixed::FixedPointFormat epsFormat() const;

    /**
     * Check against the paper's constraint system (equations (15)):
     * geometry and operand width in range, word widths within MaxWS,
     * and the write-drain feasibility condition
     * T <= ceil(min layer input / N).
     * @return The first violated constraint, or an empty string.
     */
    std::string
    constraintViolation(const std::vector<std::size_t> &layer_sizes) const;

    /** constraintViolation(), but fatal() on a violation. */
    void validate(const std::vector<std::size_t> &layer_sizes) const;
};

/** One quantized layer: raw integer parameter planes. */
struct QuantizedLayer
{
    std::size_t inDim = 0;
    std::size_t outDim = 0;
    /** Row-major outDim x inDim planes. */
    std::vector<std::int32_t> muWeight;
    std::vector<std::int32_t> sigmaWeight;
    std::vector<std::int32_t> muBias;
    std::vector<std::int32_t> sigmaBias;
};

/**
 * The shared datapath arithmetic — used identically by the cycle
 * simulator and the fast functional path so the two are bit-exact by
 * construction.
 */
struct DatapathKernel
{
    fixed::FixedPointFormat activation;
    fixed::FixedPointFormat weight;
    fixed::FixedPointFormat eps;

    DatapathKernel(const fixed::FixedPointFormat &activation_format,
                   const fixed::FixedPointFormat &weight_format,
                   const fixed::FixedPointFormat &eps_format)
        : activation(activation_format), weight(weight_format),
          eps(eps_format)
    {
    }

    /** Weight updater: w = mu + sigma * eps (floor-truncated product,
     *  saturated to the weight grid) — Figure 12's datapath. */
    std::int64_t
    sampleWeight(std::int64_t mu_raw, std::int64_t sigma_raw,
                 std::int64_t eps_raw) const
    {
        const std::int64_t scaled =
            (sigma_raw * eps_raw) >> eps.fracBits();
        return weight.saturate(mu_raw + scaled);
    }

    /** Accumulator frac bits: products carry weight+activation frac. */
    int accFracBits() const
    {
        return weight.fracBits() + activation.fracBits();
    }

    /** Bias aligned to the accumulator grid. */
    std::int64_t
    alignBias(std::int64_t bias_raw) const
    {
        return bias_raw << activation.fracBits();
    }

    /** Bias add + ReLU + requantize to the activation grid. */
    std::int64_t
    finishNeuron(std::int64_t acc, std::int64_t bias_raw) const
    {
        std::int64_t v = acc + alignBias(bias_raw);
        if (v < 0)
            v = 0; // ReLU before requantization
        return activation.saturate(v >> weight.fracBits());
    }

    /** Same, but without ReLU (output layer). */
    std::int64_t
    finishOutputNeuron(std::int64_t acc, std::int64_t bias_raw) const
    {
        const std::int64_t v = acc + alignBias(bias_raw);
        // Arithmetic shift floors negative values too.
        return activation.saturate(v >> weight.fracBits());
    }
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_CONFIG_HH
