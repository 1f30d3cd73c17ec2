/**
 * @file
 * Parallel Monte-Carlo inference engine.
 *
 * VIBNN's ensemble estimate (equation (6)) averages the softmax of
 * T independent forward passes. The engine computes it with one loop:
 * MC rounds run in increments over an active set of images, and every
 * image's per-sample softmaxes are accumulated in double precision in
 * sample order by its own stats::SequentialPosteriorTest. Fixed-T
 * classification is that loop with early exit off — the whole budget
 * as one increment over every image. Work units fan out over
 * ThreadPool workers, each owning a full executor backend replica
 * (any id registered with accel::makeExecutor). The backend fixes the
 * unit:
 *
 *  - PerUnit ("simulator", "functional"): the work unit is one
 *    (image, MC sample) pass. Every unit draws fresh weights — the
 *    paper's per-pass sampling contract — and runs with a generator
 *    freshly seeded from streamSeed(seedBase, i, s).
 *  - PerRound ("batched"): the work unit is one MC round over the
 *    WHOLE active set, seeded from roundSeed(seedBase, r), run through
 *    BatchedRunner's round API: one weight sample per compute op
 *    serves every image of the round, so the batch costs T rounds
 *    instead of T x B passes. When only one replica runs (rounds
 *    execute serially), the engine instead hands the pool to the
 *    runner (BatchedRunner::setWorkPool) so it can parallelize the
 *    image dimension inside each round; with multiple replicas the
 *    grant is revoked — round-level scheduling owns the workers, and
 *    intra-pass fan-out underneath it would oversubscribe them.
 *
 * McEngineConfig::schedule must name the backend's unit; the
 * constructor fatal()s on any other pairing. Early exit needs rounds,
 * so it runs on "batched" only.
 *
 * Determinism is by construction schedule-independent in both modes:
 * a unit's output is a pure function of (input(s), seeded eps stream),
 * so which replica executes it cannot change the result, outputs are
 * bit-identical for any thread count, and the per-image reduction runs
 * serially in sample order so the accumulation order is fixed too.
 * Aggregate CycleStats are merged by summation over replicas, which is
 * also schedule-independent.
 */

#ifndef VIBNN_ACCEL_MC_ENGINE_HH
#define VIBNN_ACCEL_MC_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/executor.hh"
#include "accel/program.hh"
#include "common/thread_pool.hh"
#include "grng/generator.hh"
#include "stats/sequential_test.hh"

namespace vibnn::accel
{

class BatchedRunner;

/** Work-unit granularity for the Monte-Carlo fan-out. The backend
 *  fixes it; the config states it so a mismatch fails loudly. */
enum class McSchedule
{
    /** One (image, MC sample) pass per unit — fresh weight samples
     *  every pass (the paper's fidelity semantics): "simulator" and
     *  "functional". */
    PerUnit,
    /** One MC round over the whole batch per unit — one weight draw
     *  per compute op per round: "batched". */
    PerRound,
};

/** Parallelization / seeding policy for McEngine. */
struct McEngineConfig
{
    /**
     * Worker parallelism. 0 sizes the engine from ThreadPool::global()
     * (workers + caller); an explicit value N runs on a private pool of
     * N executors (N == 1 means fully inline, no pool).
     */
    std::size_t threads = 0;
    /** Generator registry id used for every eps stream. */
    std::string generatorId = "rlf";
    /** Master seed; every (image, sample) stream derives from it. */
    std::uint64_t seedBase = 1;
    /** Executor backend registry id the replicas run on. */
    std::string backendId = "simulator";
    /** Fan-out granularity: must be the backend's (PerRound exactly
     *  for "batched"); the engine fatal()s otherwise. */
    McSchedule schedule = McSchedule::PerUnit;
};

/** Why an image's Monte-Carlo sampling stopped. */
enum class McExitReason
{
    /** Ran the full round budget (the hard images — and every image
     *  when the early-exit test is disabled). */
    Budget,
    /** The sequential CI test settled the argmax early. */
    Converged,
    /** The vote gap exceeded the remaining budget: mathematically
     *  frozen. */
    Decided,
    /** The wall-clock deadline expired (anytime mode): the running
     *  mean at that point is the best answer by the deadline. */
    Deadline,
};

/** Policy of classifyBatchAdaptive. */
struct McAdaptiveOptions
{
    /** Round budget per image; 0 uses config.mcSamples. */
    int budget = 0;
    /** Rounds per increment between convergence checkpoints. Small
     *  chunks exit earlier; larger ones amortize round dispatch. */
    int chunk = 4;
    /** The sequential convergence test (confidence, minSamples). */
    stats::SequentialTestConfig test;
    /** false disables early exit entirely: every image runs the full
     *  budget as one increment, with no checkpoint and no deadline —
     *  fixed-T classification (what classifyBatchDetailed runs). */
    bool enabled = true;
    /** Anytime deadline in seconds from call entry, checked at chunk
     *  boundaries; <= 0 means none. Ignored with early exit off.
     *  Wall-clock-dependent by nature, so the bit-determinism contract
     *  applies to runs without one. */
    double deadlineSeconds = 0.0;
};

/**
 * Batched classification output: per-image posterior plus how many
 * rounds each image actually consumed and why it stopped.
 */
struct McBatchResult
{
    /** Predicted class per image (count): argmax of the running
     *  mean (lowest index wins ties). */
    std::vector<std::size_t> predicted;
    /** Ensemble-mean probabilities at exit, count x outputDim
     *  (double-accumulated in sample order, then narrowed). */
    std::vector<float> probs;
    /** Per-sample softmax distributions, count x budget x outputDim
     *  row-major, zero-filled past each image's achieved rounds — the
     *  probability hook the serving layer's uncertainty decomposition
     *  (predictive entropy vs. mutual information) reads. Empty unless
     *  keep_sample_probs. */
    std::vector<float> sampleProbs;
    /** Rounds actually consumed per image. */
    std::vector<int> achieved;
    /** Why each image stopped. */
    std::vector<McExitReason> exitReason;
    /** Mean of achieved over the batch — the effective T. */
    double meanRounds = 0.0;
};

/** Parallel Monte-Carlo classification over executor-backend
 *  replicas. */
class McEngine
{
  public:
    McEngine(const QuantizedProgram &program,
             const AcceleratorConfig &config,
             const McEngineConfig &mc = McEngineConfig{});
    ~McEngine();

    McEngine(const McEngine &) = delete;
    McEngine &operator=(const McEngine &) = delete;

    /**
     * Classify a batch: `count` images of `stride` floats each,
     * row-major. MC rounds run in increments of options.chunk; each
     * image's per-round softmax feeds its own SequentialPosteriorTest,
     * and images retire from the active set as soon as the test says
     * more rounds cannot change the decision — the easy images finish
     * after minSamples rounds while the hard ones run to the budget.
     * Retired images leave the round via active-set compaction
     * (BatchedRunner::runRoundBatchGather), so they stop occupying
     * GEMM tiles immediately. With options.enabled == false the whole
     * budget runs as one increment over every image: fixed-T
     * classification, on either schedule.
     *
     * Determinism on the round schedule: round r is always seeded
     * roundSeed(seedBase, r) and the batched weight draw is
     * batch-independent, so a retained image's eps stream — and
     * therefore its sample sequence — is bit-identical to the fixed-T
     * run no matter which neighbours have already retired; decisions
     * and running means are serial per-image double-precision
     * reductions in sample order. Results are therefore bit-identical
     * across thread counts AND batch compositions (ctest-pinned).
     *
     * Early exit runs on the "batched" backend only (the per-pass
     * backends serve fixed-T ensembles); fatal() otherwise. With
     * keep_sample_probs false the count x budget x outputDim buffer is
     * never materialized (sampleProbs stays empty) — for large
     * prediction-only batches.
     */
    McBatchResult classifyBatchAdaptive(const float *xs, std::size_t count,
                                        std::size_t stride,
                                        const McAdaptiveOptions &options,
                                        bool keep_sample_probs = true);

    /** Fixed-T classification (config.mcSamples rounds per image):
     *  classifyBatchAdaptive with early exit off. */
    McBatchResult classifyBatchDetailed(const float *xs,
                                        std::size_t count,
                                        std::size_t stride,
                                        bool keep_sample_probs = true);

    /** Aggregate statistics merged (summed) over all replicas. */
    CycleStats stats() const;

    /** Replicas instantiated so far (grows up to the executor count). */
    std::size_t replicaCount() const { return replicas_.size(); }

    /** Executor parallelism the engine schedules for. */
    std::size_t executorCount() const;

    const AcceleratorConfig &config() const { return config_; }
    const QuantizedProgram &program() const { return program_; }
    /** The executor backend registry id the replicas run on. */
    const std::string &backendId() const { return mc_.backendId; }

    /**
     * Seed of the eps stream for (image, sample) under `seed_base` —
     * exposed so tests can reproduce any single pass serially.
     */
    static std::uint64_t streamSeed(std::uint64_t seed_base,
                                    std::uint64_t image,
                                    std::uint64_t sample);

    /**
     * Seed of the eps stream of MC round `round` in PerRound mode —
     * exposed so tests can reproduce any single round serially.
     */
    static std::uint64_t roundSeed(std::uint64_t seed_base,
                                   std::uint64_t round);

  private:
    struct Replica
    {
        /** The eps stream the executor reads: the current (or last)
         *  unit's generator, replaced by fanOut at every unit. */
        std::unique_ptr<grng::GaussianGenerator> generator;
        std::unique_ptr<Executor> executor;
        /** `executor` as the owner of the round API; null unless the
         *  engine runs rounds. */
        BatchedRunner *runner = nullptr;
    };

    /** Ensure replicas [0, n) exist. */
    void ensureReplicas(std::size_t n);

    /**
     * The one parallel fan-out: run work units [0, units), unit u as
     * body(replica, u) on a replica whose executor reads the eps
     * stream seeded seed_of(u). Partitioning is replica-static; a
     * unit's output depends only on its seeded stream and its inputs,
     * so the schedule is invisible in the output.
     */
    template <typename SeedOf, typename Body>
    void fanOut(std::size_t units, const SeedOf &seed_of,
                const Body &body);

    /**
     * Run global MC rounds [r_begin, r_end) over the active subset
     * `indices[0..count)` of the batch. `raw` is resized to
     * (r_end - r_begin) x count x outputDim, round-major. On a
     * per-unit backend every (image, round) pass is its own work unit,
     * seeded streamSeed(seedBase, indices[a], r); on "batched" a unit
     * is one gather round seeded roundSeed(seedBase, r). Either way
     * the seed carries the GLOBAL round index, so the stream any
     * surviving image sees is independent of chunking and of which
     * images remain.
     */
    void runRoundRange(const float *xs, std::size_t stride,
                       const std::uint32_t *indices, std::size_t count,
                       int r_begin, int r_end,
                       std::vector<std::int64_t> &raw);

    QuantizedProgram program_;
    AcceleratorConfig config_;
    McEngineConfig mc_;
    /** The work unit is a round on a BatchedRunner (the "batched"
     *  backend), else one (image, sample) pass. Fixed at
     *  construction. */
    bool rounds_;
    /** Private pool when an explicit thread count was requested. */
    std::unique_ptr<ThreadPool> ownPool_;
    std::vector<Replica> replicas_;
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_MC_ENGINE_HH
