/**
 * @file
 * Cycle-level simulator of the VIBNN accelerator (paper Figures 2, 13,
 * 14), driven by the QuantizedProgram IR.
 *
 * The simulated machine executes one program op at a time:
 *
 *  - Dense ops run the neuron bank in "rounds" of M = T*S neurons.
 *    Within a round, every cycle the active IFMem's read port delivers
 *    one word of N input features (broadcast to all PEs — the word-size
 *    insight of Section 5.4.1), every PE-set's WPMem delivers one mu
 *    word and one sigma word (B*N*S bits each, equation (15b)), the
 *    weight generator turns each (mu, sigma) pair plus a GRNG eps into
 *    a sampled weight, and each PE multiplies its N weights with the
 *    broadcast inputs and accumulates. After ceil(in/N) chunk cycles
 *    plus the pipeline drain (2-stage weight generator + 3-stage PE,
 *    Figure 14), the round's outputs pass through bias/ReLU and the
 *    memory distributor writes them — one S-wide word per PE-set —
 *    into the *other* IFMem (the ping-pong of Section 5.4.1),
 *    overlapped with the next round's compute.
 *
 *  - ConvLowered ops time-multiplex the same bank machinery over the
 *    conv's output positions: the host-side im2col gather (playing the
 *    memory distributor's role) stages one receptive-field patch per
 *    position into the active IFMem, the filter bank runs exactly like
 *    a dense op, and the outputs are re-staged as CHW maps. Each
 *    position pass draws *fresh* weight samples from the same WPMem
 *    planes — the hardware analogue of per-receptive-field sampling.
 *
 *  - Pool ops stream the maps through the distributor datapath: one
 *    word read per cycle, comparator tree, one word written per cycle.
 *    Max is monotone on the activation grid, so pooling raw values is
 *    exact.
 *
 *  - Flatten and Output ops are free relabeling / staging.
 *
 * Port-budget violations trip assertions inside DualPortRam. The
 * datapath arithmetic is shared with the fast functional path
 * (functional.hh) and eps is consumed in the canonical
 * (op, position, round, chunk, set, pe, lane) order, so `ctest`
 * enforces bit-exact agreement between the two executors on both MLP
 * and CNN programs.
 */

#ifndef VIBNN_ACCEL_SIMULATOR_HH
#define VIBNN_ACCEL_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/config.hh"
#include "accel/executor.hh"
#include "accel/pe.hh"
#include "accel/program.hh"
#include "accel/ram.hh"
#include "accel/weight_generator.hh"

namespace vibnn::accel
{

/** The cycle-level accelerator — the "simulator" executor backend. */
class Simulator : public Executor
{
  public:
    /**
     * @param program Quantized program to load (WPMems are packed per
     *        compute op at construction).
     * @param config Architecture geometry; the program is validated
     *        against it here.
     * @param generator The GRNG instance (not owned).
     */
    Simulator(const QuantizedProgram &program,
              const AcceleratorConfig &config,
              grng::GaussianGenerator *generator);

    /**
     * Run one forward pass (one MC sample) for an image given as real
     * features; returns raw output-layer values on the activation grid.
     */
    std::vector<std::int64_t> runPass(const float *x) override;

    /**
     * Swap the eps source (used by McEngine to give each Monte-Carlo
     * work unit an independently seeded stream). Not owned.
     */
    void setGenerator(grng::GaussianGenerator *generator) override;

    const CycleStats &stats() const override { return stats_; }
    const AcceleratorConfig &config() const override { return config_; }
    const QuantizedProgram &program() const override { return program_; }

  private:
    /**
     * Run one bank schedule (rounds of M neurons over the PE array):
     * the shared engine behind Dense ops and each ConvLowered position
     * pass. Input is read from `ifmem_in` words [0, chunks); outputs
     * are distributed into `ifmem_out` in neuron order.
     * @return Cycles consumed (chunk cycles, pipeline drain, and the
     *         final round's non-overlapped tail writes).
     */
    std::uint64_t runBankRounds(std::size_t wp_index,
                                const QuantizedLayer &bank, bool relu,
                                DualPortRam &ifmem_in,
                                DualPortRam &ifmem_out);

    void runDenseOp(std::size_t op_index);
    void runConvOp(std::size_t op_index);
    void runPoolOp(std::size_t op_index);

    /** Pack every compute op's parameters into the per-set WPMems. */
    void packWpmems();

    QuantizedProgram program_;
    AcceleratorConfig config_;
    DatapathKernel kernel_;
    WeightGenerator weightGen_;
    std::vector<Pe> pes_;

    /** Ping-pong input-feature memories. */
    std::unique_ptr<DualPortRam> ifmems_[2];
    int activeIfmem_ = 0;

    /**
     * Per PE-set weight memories, mu and sigma planes. Address layout:
     * sequential words in (compute op, round, chunk) order; each word
     * holds S * N values (N per PE in the set).
     */
    std::vector<std::unique_ptr<DualPortRam>> wpmemMu_;
    std::vector<std::unique_ptr<DualPortRam>> wpmemSigma_;
    /** First WPMem word of each op (staging ops share the next base). */
    std::vector<std::size_t> opWpBase_;

    /** Sampled weights of one WPMem word (all lanes of a PE set),
     *  reused across chunks/rounds/ops/passes. */
    std::vector<std::int64_t> weights_;
    /** Memory-distributor word staging, reused across rounds. */
    RamWord distWord_;
    /** Host-gather staging for conv/pool ops (the external im2col /
     *  line-buffer role), reused across ops and passes. */
    std::vector<std::int64_t> mapStage_;
    std::vector<std::int64_t> patchStage_;
    std::vector<std::int64_t> outStage_;

    CycleStats stats_;
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_SIMULATOR_HH
