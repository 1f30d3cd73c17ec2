/**
 * @file
 * Executor backend layer — the one seam every consumer of the
 * QuantizedProgram IR executes through.
 *
 * An Executor runs programs: `runPass(input) -> raw outputs` for one
 * Monte-Carlo sample, and `classify()` for the full ensemble estimate
 * (equation (6)). Backends register under a string id (mirroring
 * grng::makeGenerator), so McEngine, VibnnSystem, benches and tests
 * construct them declaratively:
 *
 *   "simulator"   the cycle-level machine (accel/simulator.hh) —
 *                 cycle-accurate, bit-exact canonical eps order
 *   "functional"  the fast untimed datapath (accel/functional.hh) —
 *                 bit-exact with "simulator" by construction
 *   "batched"     the throughput-first weight-reuse path
 *                 (accel/batched_runner.hh) — one weight sample per
 *                 compute op per MC round, shared across the whole
 *                 batch (and across conv positions), executed as
 *                 batch-vectorized GEMM against a sampled-weight
 *                 arena; statistically equivalent, not bit-exact
 *
 * The Monte-Carlo round over a batch — one weight draw per compute op
 * amortized over every image, so an ensemble costs T rounds instead of
 * T x B passes (the dominant serving win of Fan et al.'s FPGA BNN
 * accelerator, arXiv:2105.09163) — is BatchedRunner's own API
 * (runRoundBatch / runRoundBatchGather), not part of this interface:
 * the per-pass backends have no round, and McEngine fixes its schedule
 * from the backend it runs on.
 */

#ifndef VIBNN_ACCEL_EXECUTOR_HH
#define VIBNN_ACCEL_EXECUTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/config.hh"
#include "accel/program.hh"
#include "grng/generator.hh"

namespace vibnn::accel
{

/** Execution statistics for one or more inference passes. */
struct CycleStats
{
    std::uint64_t totalCycles = 0;
    /** Per-op cycle accounting, indexed like QuantizedProgram::ops
     *  (staging ops — Flatten, Output — read 0). */
    std::vector<std::uint64_t> opCycles;
    std::uint64_t ifmemReads = 0;
    std::uint64_t ifmemWrites = 0;
    std::uint64_t wpmemReads = 0;
    std::uint64_t grnSamples = 0;
    std::uint64_t macs = 0;
    std::uint64_t images = 0;

    /** PE-array utilization: useful MACs / peak MAC slots. */
    double utilization(int total_pes, int pe_inputs) const;

    /** Cycles per single forward pass (one MC sample). */
    double cyclesPerPass() const;

    /** Merge another run's counters into this one (McEngine replica
     *  aggregation). Lives next to the fields so a new counter cannot
     *  be forgotten in the merge. */
    CycleStats &operator+=(const CycleStats &other);
};

/** A program-executing backend. */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** The loaded program / the geometry it was validated against. */
    virtual const QuantizedProgram &program() const = 0;
    virtual const AcceleratorConfig &config() const = 0;

    /** Swap the eps source (McEngine gives every work unit an
     *  independently seeded stream). Not owned. */
    virtual void setGenerator(grng::GaussianGenerator *generator) = 0;

    /** One forward pass (one MC sample); raw output-layer values on
     *  the activation grid. */
    virtual std::vector<std::int64_t> runPass(const float *x) = 0;

    /** Execution statistics accumulated so far. */
    virtual const CycleStats &stats() const = 0;

    /**
     * Full Monte-Carlo classification (config().mcSamples passes with
     * softmax averaging, equation (6)) — the ensemble reduction
     * McEngine runs, inherited by every backend: per-pass
     * sampleSoftmax, accumulated in double in sample order by a
     * stats::SequentialPosteriorTest.
     * @param probs Optional: receives the averaged class probabilities.
     * @return The predicted class.
     */
    std::size_t classify(const float *x, float *probs = nullptr);
};

/** One MC sample's class distribution: the softmax of a pass's raw
 *  output-layer values (program.outputDim() of them) read on the
 *  activation grid. */
void sampleSoftmax(const QuantizedProgram &program,
                   const std::int64_t *raw, float *probs);

/**
 * Create an executor backend by registry id ("simulator", "functional",
 * "batched"). The generator is not owned. fatal() on unknown ids, with
 * the registered ids listed in the message.
 */
std::unique_ptr<Executor> makeExecutor(const std::string &id,
                                       const QuantizedProgram &program,
                                       const AcceleratorConfig &config,
                                       grng::GaussianGenerator *generator);

/**
 * Same, but the executor takes ownership of its eps stream (the
 * long-lived-backend case: facade handles, caches). Implemented by
 * deriving from the concrete backend, so every override — present and
 * future — is inherited rather than forwarded.
 */
std::unique_ptr<Executor>
makeExecutor(const std::string &id, const QuantizedProgram &program,
             const AcceleratorConfig &config,
             std::unique_ptr<grng::GaussianGenerator> generator);

/** All ids accepted by makeExecutor, in presentation order — the
 *  registry introspection facades and error messages build on. */
std::vector<std::string> registeredExecutorIds();

/** fatal() with makeExecutor's unknown-id message unless `id` is
 *  registered: for callers that check an id before its first use. */
void requireExecutorId(const std::string &id);

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_EXECUTOR_HH
