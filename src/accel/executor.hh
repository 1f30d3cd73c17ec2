/**
 * @file
 * Executor backend layer — the one seam every consumer of the
 * QuantizedProgram IR executes through.
 *
 * An Executor runs programs: `runPass(input) -> raw outputs` for one
 * Monte-Carlo sample, `runRoundBatch(batch) -> raw outputs` for one MC
 * round over a whole image batch, and `classify()` for the full
 * ensemble estimate (equation (6)). Backends advertise what they are
 * via ExecutorCaps and register under a string id (mirroring
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
 * The round-batch API is what makes weight-reuse batching expressible:
 * a backend with caps().batchedRounds == true draws ONE weight sample
 * per compute op and amortizes it over every image of the batch, so an
 * MC-ensemble classification costs T rounds instead of T x B passes
 * (the dominant serving win of Fan et al.'s FPGA BNN accelerator,
 * arXiv:2105.09163). Backends without the capability fall back to one
 * fresh-sample pass per image, which keeps round scheduling correct —
 * just not cheaper — on every backend.
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

namespace vibnn
{
class ThreadPool;
}

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

/** What an executor backend provides. */
struct ExecutorCaps
{
    /** runRoundBatch() reuses one weight sample per compute op across
     *  the whole batch (the throughput path); false means the default
     *  per-image fresh-sample fallback runs. */
    bool batchedRounds = false;
};

/** A program-executing backend. */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** The loaded program / the geometry it was validated against. */
    virtual const QuantizedProgram &program() const = 0;
    virtual const AcceleratorConfig &config() const = 0;

    /** Backend capability flags. */
    virtual ExecutorCaps caps() const = 0;

    /** Swap the eps source (round/unit scheduling gives every work
     *  unit an independently seeded stream). Not owned. */
    virtual void setGenerator(grng::GaussianGenerator *generator) = 0;

    /**
     * Offer the backend a worker pool (not owned; nullptr revokes) for
     * intra-pass parallelism — e.g. the batched runner fans the image
     * dimension of a round over it. Purely a performance hint: results
     * must stay bit-identical with any pool or none, and callers that
     * already parallelize ABOVE the executor (round- or unit-level
     * scheduling) must revoke it so one fan-out does not oversubscribe
     * the other's threads. Default: ignored (backends without
     * intra-pass parallelism).
     */
    virtual void setWorkPool(ThreadPool *pool) { (void)pool; }

    /** One forward pass (one MC sample); raw output-layer values on
     *  the activation grid. */
    virtual std::vector<std::int64_t> runPass(const float *x) = 0;

    /**
     * One Monte-Carlo round over a batch: `count` images of `stride`
     * floats each, row-major; `out` receives count * outputDim raw
     * values. Backends with caps().batchedRounds draw one weight
     * sample per compute op for the whole round; the base fallback
     * runs one fresh-sample runPass per image.
     */
    virtual void runRoundBatch(const float *xs, std::size_t count,
                               std::size_t stride, std::int64_t *out);

    /**
     * One Monte-Carlo round over an ACTIVE SUBSET of a batch: image i
     * of the round is row `indices[i]` of `xs` (count indices, rows of
     * `stride` floats); `out` receives count * outputDim raw values in
     * index order. This is the active-set compaction hook of the
     * adaptive early-exit path: retired images simply stop appearing
     * in `indices`, so they no longer occupy GEMM tiles. The weight
     * draw is identical to runRoundBatch (one sample per compute op
     * for the whole round, off the same stream positions), and each
     * selected image's output is bit-identical to the row it would get
     * from runRoundBatch over any superset — per-image results never
     * depend on which neighbours share the round. The base fallback
     * gathers the selected rows and delegates to runRoundBatch;
     * batched backends override it to gather during input
     * quantization instead (no staging copy).
     */
    virtual void runRoundBatchGather(const float *xs, std::size_t stride,
                                     const std::uint32_t *indices,
                                     std::size_t count,
                                     std::int64_t *out);

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

/** A backend's capability flags by registry id, without constructing
 *  it (scheduling policy — e.g. whether round coalescing is sound —
 *  is decided before any engine exists). fatal() on unknown ids.
 *  ctest-enforced equal to the constructed backend's caps(). */
ExecutorCaps executorCaps(const std::string &id);

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_EXECUTOR_HH
