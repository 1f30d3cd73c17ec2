/**
 * @file
 * The VIBNN serving layer — request in, uncertainty-decorated response
 * out.
 *
 * The paper's deployment story (and the follow-on FPGA serving work it
 * inspired, e.g. Fan et al., arXiv:2105.09163) is request → Monte-Carlo
 * ensemble → calibrated prediction. An InferenceSession is that story
 * as an API: it owns a compiled QuantizedProgram, one executor-backend
 * Monte-Carlo engine that serves every ensemble size, and a submission
 * queue, and turns InferenceRequests (one or many images) into
 * InferenceResults carrying the ensemble-mean probabilities plus the
 * full uncertainty decomposition (predictive entropy, mutual
 * information / BALD, max-prob confidence, top-k) per image.
 *
 * Two call styles:
 *
 *  - run(request): synchronous — executes inline on the caller's
 *    thread (the Monte-Carlo fan-out still parallelizes over the
 *    engine's ThreadPool workers).
 *  - submit(request): asynchronous — enqueues onto the session's
 *    dispatcher and returns a future-style ResultHandle. In Throughput
 *    mode the dispatcher COALESCES all concurrently pending requests
 *    of the same ensemble size into one per-round weight-reuse pass on
 *    the "batched" backend, so k queued single-image requests cost T
 *    rounds total instead of k * T.
 *
 * Determinism: a request's results are a pure function of (program,
 * options.seed, request images, ensemble size). Per-round weight draws
 * are seeded by McEngine::roundSeed(seed, round) independently of the
 * batch composition, and per-image outputs within a round are
 * independent of their neighbours, so micro-batching is invisible in
 * the output: submit() under any coalescing pattern returns exactly
 * what run() returns, bit for bit, for any thread count.
 *
 * Construction is through the fluent InferenceSession::Builder — from
 * a core::VibnnSystem, a trained Bayesian model (compiled here), a
 * QuantizedProgram, or a program file saved by core::model_io.
 */

#ifndef VIBNN_SERVE_SESSION_HH
#define VIBNN_SERVE_SESSION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "accel/config.hh"
#include "accel/executor.hh"
#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "nn/trainer.hh"
#include "nn/uncertainty.hh"
#include "serve/coalescer.hh"

namespace vibnn::bnn
{
class BayesianMlp;
class BayesianConvNet;
} // namespace vibnn::bnn

namespace vibnn::core
{
class VibnnSystem;
} // namespace vibnn::core

namespace vibnn::serve
{

/** How a session trades fidelity against throughput. The mode alone
 *  picks the executor backend and its Monte-Carlo schedule. */
enum class ExecMode
{
    /** Per-pass sampling fidelity: every (image, MC sample) unit draws
     *  fresh weights — the paper's semantics — on the "functional"
     *  backend (bit-exact with the cycle simulator by construction).
     *  A unit's stream is seeded by the image's position in its pass,
     *  so requests are never merged. */
    Fidelity,
    /** Weight-reuse throughput: one weight sample per compute op per
     *  MC round, shared across the whole (micro-)batch, on the
     *  "batched" backend — T rounds instead of T x B passes.
     *  Statistically equivalent per round; this is the mode the async
     *  micro-batching coalescer exploits. */
    Throughput,
};

/** Parse "fidelity" / "throughput"; fatal() on anything else. */
ExecMode parseExecMode(const std::string &name);

/** Canonical lower-case name of a mode. */
const char *execModeName(ExecMode mode);

/** Upper bound on any ensemble size (session, per-request or wire) —
 *  T drives count x T x outputDim allocations, so an absurd value must
 *  fail with a message, not a bad_alloc. */
constexpr int kMaxEnsembleSize = 65536;

/** Session-wide serving policy. */
struct SessionOptions
{
    /** GRNG design id (see grng::makeGenerator); empty inherits the
     *  model source's id (a Builder::system() session) or "rlf".
     *  "philox" (VIBNN_SERVE_GRNG=philox) selects the counter-based
     *  generator. */
    std::string grngId;
    /** Master seed; unset inherits the model source's seed (a
     *  Builder::system() session) or 1. Every eps stream derives from
     *  the resolved value. */
    std::optional<std::uint64_t> seed;
    /** Ensemble size T; 0 uses the accelerator config's mcSamples. */
    int mcSamples = 0;
    /** Monte-Carlo engine parallelism (0 sizes from the global pool). */
    std::size_t threads = 0;
    /** Fidelity (default) or Throughput. */
    ExecMode mode = ExecMode::Fidelity;
    /** Top-k entries reported per prediction (clamped to the class
     *  count at build()). */
    std::size_t topK = 3;
    /** When false the per-sample softmax distributions are never
     *  materialized — Prediction::mutualInformation reads 0 — which
     *  keeps large prediction-only batches allocation-lean (the
     *  facade's classifyBatch runs this way). */
    bool uncertainty = true;

    /** Latency budget in microseconds applied to submitted requests
     *  that carry none of their own (InferenceRequest::deadlineMicros
     *  wins when positive); 0 disables holding. A budget licenses the
     *  deadline-aware coalescer to HOLD a request — waiting for more
     *  same-T arrivals to fill the round — for up to the budget minus
     *  the expected pass time, never longer (serve/coalescer.hh). A
     *  request with no budget dispatches greedily, exactly the PR 4
     *  behavior. */
    std::int64_t defaultDeadlineMicros = 0;
    /** Image cap per coalesced pass; reaching it dispatches a held
     *  batch immediately (the round is full). 0 = unbounded. */
    std::size_t maxBatchImages = 0;

    /**
     * Adaptive early-exit / anytime Monte-Carlo (Throughput mode
     * only — the batched backend's per-image independence is what
     * makes early retirement invisible to the survivors). When
     * enabled, T becomes a round BUDGET: images retire as soon as the
     * sequential convergence test says more rounds cannot change the
     * decision, Prediction reports the achieved rounds and exit
     * reason, and a positive deadline turns the session anytime —
     * best answer by the deadline. enabled == false (the default)
     * reproduces the fixed-T path bit for bit.
     */
    struct AdaptivePolicy
    {
        /** Master switch for early exit. */
        bool enabled = false;
        /** One-sided confidence of the convergence test, in (0, 1);
         *  higher spends more rounds before exiting. */
        double confidence = 0.999;
        /** No image exits before this many rounds. */
        int minSamples = 4;
        /** Rounds per increment between convergence checkpoints. */
        int chunk = 4;
        /** Anytime wall-clock deadline per engine pass in seconds;
         *  <= 0 disables it (deadline exits are inherently
         *  clock-dependent; the bit-determinism contract covers runs
         *  without one). */
        double deadlineSeconds = 0.0;
    };
    AdaptivePolicy adaptive;

    /**
     * Overlay the VIBNN_SERVE_* environment knobs onto `defaults` —
     * the string-parsing front door benches and examples use:
     *   VIBNN_SERVE_MODE        fidelity | throughput
     *   VIBNN_SERVE_GRNG        generator id
     *   VIBNN_SERVE_T           ensemble size
     *   VIBNN_SERVE_THREADS     engine parallelism
     *   VIBNN_SERVE_SEED        master seed
     *   VIBNN_SERVE_TOPK       top-k entries per prediction
     *   VIBNN_SERVE_ADAPTIVE    0 | 1 — early-exit MC master switch
     *   VIBNN_SERVE_CONFIDENCE  convergence-test confidence in (0, 1)
     *   VIBNN_SERVE_MIN_T       minimum rounds before any exit
     *   VIBNN_SERVE_CHUNK       rounds per adaptive increment
     *   VIBNN_SERVE_DEADLINE_MS anytime deadline per pass (<= 0 off)
     *   VIBNN_SERVE_DEADLINE_US default request latency budget for
     *                           the deadline-aware coalescer (0 off)
     *   VIBNN_SERVE_MAX_BATCH   image cap per coalesced pass (0 off)
     */
    static SessionOptions fromEnv();
    static SessionOptions fromEnv(SessionOptions defaults);
};

/** One inference request: one or many images. */
struct InferenceRequest
{
    /** Request id; 0 lets the session assign the next sequential id. */
    std::uint64_t id = 0;
    /** Per-request ensemble size override; 0 uses the session's T. */
    int mcSamples = 0;
    /**
     * Per-request latency budget in microseconds, measured from
     * submit(); 0 falls back to the session's defaultDeadlineMicros.
     * A positive budget licenses the dispatcher to hold the request
     * to fill a round (never past the budget), and under the adaptive
     * policy also bounds the engine pass itself (anytime mode): the
     * remaining budget caps the pass's wall-clock deadline, so the
     * network caller's SLO and PR 7's best-answer-by-deadline
     * semantics are the same knob. Deadlines shape WHEN a pass runs,
     * never its outputs — a fixed-T request's results stay
     * bit-identical with or without one. Capped at
     * serve::kMaxDeadlineMicros (an unbounded budget would license an
     * unbounded dispatcher hold); validateRequest rejects more.
     */
    std::int64_t deadlineMicros = 0;
    /** Image count. */
    std::size_t count = 0;
    /** Floats per image; must equal the program's input dim. */
    std::size_t dim = 0;
    /** Borrowed row-major features (count x dim) when `storage` is
     *  empty; callers keep the memory alive for run(). submit()
     *  copies borrowed data into `storage` automatically. */
    const float *features = nullptr;
    /** Owning payload (used instead of `features` when non-empty). */
    std::vector<float> storage;

    /** Wrap caller-owned memory without copying (run()-friendly). */
    static InferenceRequest borrow(const float *xs, std::size_t count,
                                   std::size_t dim);
    /** Wrap a DataView's features without copying. */
    static InferenceRequest borrow(const nn::DataView &view);
    /** Copy the images into the request (submit()-friendly). */
    static InferenceRequest copy(const float *xs, std::size_t count,
                                 std::size_t dim);

    const float *data() const
    {
        return storage.empty() ? features : storage.data();
    }
};

/** One image's decorated prediction. */
struct Prediction
{
    /** argmax of the ensemble-mean probabilities. */
    std::size_t predicted = 0;
    /** Ensemble-mean class probabilities (outputDim). */
    std::vector<float> probs;
    /** Predictive entropy H[mean probs] in nats (total uncertainty). */
    double entropy = 0.0;
    /** Mutual information / BALD in nats (epistemic uncertainty). */
    double mutualInformation = 0.0;
    /** Probability mass of the argmax class. */
    float confidence = 0.0f;
    /** The top-k classes, descending by probability. */
    std::vector<nn::ClassScore> topk;
    /** MC rounds actually spent on this image — the full ensemble size
     *  on the fixed-T path, possibly fewer under adaptive early
     *  exit. */
    int achievedSamples = 0;
    /** Why sampling stopped (Budget on the fixed-T path). */
    accel::McExitReason exitReason = accel::McExitReason::Budget;
};

/** Canonical lower-case name of an exit reason ("budget",
 *  "converged", "decided", "deadline") — for logs and bench JSON. */
const char *exitReasonName(accel::McExitReason reason);

/** The response to one InferenceRequest. */
struct InferenceResult
{
    std::uint64_t requestId = 0;
    /** One decorated prediction per image, in request order. */
    std::vector<Prediction> predictions;
    /** Ensemble size (the round budget under adaptive early exit) the
     *  request was served with. */
    int mcSamples = 0;
    /** Mean achieved rounds over the request's images — equals
     *  mcSamples on the fixed-T path, below it when early exit
     *  fires. */
    double meanRounds = 0.0;
    /** Wall-clock latency in microseconds: compute time for run(),
     *  submit-to-completion for submit(). */
    double micros = 0.0;
    /** Images in the executed engine pass — greater than
     *  predictions.size() when the request was micro-batched with
     *  concurrently pending ones. */
    std::size_t batchedImages = 0;

    /** Convenience: the predicted class per image. */
    std::vector<std::size_t> predictedClasses() const;

    /** Fraction of predictions matching `labels` (one label per image,
     *  nn::DataView::labels layout); 0 for an empty result. */
    double accuracy(const int *labels) const;
};

/** Future-style handle to a submitted request. */
class ResultHandle
{
  public:
    ResultHandle() = default;

    /** True once the result is available. */
    bool ready() const;
    /** Block until the result is available. */
    void wait() const;
    /** Block and take the result (one-shot: moves it out). */
    InferenceResult get();

  private:
    friend class InferenceSession;
    struct Pending;
    std::shared_ptr<Pending> state_;
};

/** A serving session over one compiled program. */
class InferenceSession
{
  public:
    /** Fluent construction. Exactly one model source is required; the
     *  rest defaults sensibly. build() fatal()s on invalid input with
     *  the registered ids spelled out. */
    class Builder
    {
      public:
        Builder();
        ~Builder();
        Builder(Builder &&) noexcept;
        Builder &operator=(Builder &&) noexcept;

        /** Adopt a VibnnSystem's program, accelerator config, GRNG id
         *  and seed (options set later still override). */
        Builder &system(const core::VibnnSystem &sys);
        /** Compile a trained Bayesian MLP at build() time. */
        Builder &model(const bnn::BayesianMlp &net);
        /** Compile a trained Bayesian CNN at build() time. */
        Builder &model(const bnn::BayesianConvNet &net);
        /** Serve an already-compiled program. */
        Builder &program(accel::QuantizedProgram prog);
        /** Load a program saved by core::saveQuantizedProgram (or a
         *  legacy flat-network image, lifted at load time). */
        Builder &programFile(const std::string &path);
        /** Accelerator geometry (defaults to the paper's 16x8x8@8). */
        Builder &accelerator(const accel::AcceleratorConfig &config);

        /** Replace the whole option block. */
        Builder &options(const SessionOptions &opts);
        Builder &grng(std::string id);
        Builder &seed(std::uint64_t seed);
        Builder &mcSamples(int t);
        Builder &threads(std::size_t threads);
        Builder &mode(ExecMode mode);
        Builder &topK(std::size_t k);
        Builder &uncertainty(bool enabled);
        Builder &adaptive(const SessionOptions::AdaptivePolicy &policy);
        /** Default latency budget for submitted requests (micros). */
        Builder &defaultDeadline(std::int64_t micros);
        /** Image cap per coalesced pass (0 = unbounded). */
        Builder &maxBatchImages(std::size_t images);

        /** Validate and construct. fatal() on: no model source, an
         *  unloadable program file, an unknown GRNG id (in
         *  grng::requireGeneratorId's words, which list the registered
         *  ids), T < 1, or a program that fails geometry validation
         *  against the accelerator config. */
        std::unique_ptr<InferenceSession> build();

      private:
        struct State;
        std::unique_ptr<State> state_;
    };

    ~InferenceSession();

    InferenceSession(const InferenceSession &) = delete;
    InferenceSession &operator=(const InferenceSession &) = delete;

    /** Why `request` cannot be served — it does not match the program
     *  geometry or breaks a bound — or empty when it can. run() and
     *  submit() fatal() with this reason; the server answers wire
     *  requests with it instead. */
    std::string requestError(const InferenceRequest &request) const;

    /** Serve one request synchronously. */
    InferenceResult run(const InferenceRequest &request);

    /** Enqueue a request; borrowed feature memory is copied so the
     *  caller may release it immediately. */
    ResultHandle submit(InferenceRequest request);

    /** Block until every submitted request has completed. */
    void drain();

    /**
     * Microseconds the dispatcher's current engine pass has been
     * executing, or 0 when no pass is in flight. The watchdog's
     * wedge detector: a pass that exceeds its deadline many times
     * over means the shard is stuck, not slow.
     */
    std::int64_t currentPassMicros() const;

    /**
     * Permanently disable deadline-aware holding: any batch the
     * dispatcher is currently holding open dispatches immediately,
     * and future passes dispatch greedily. Sticky — the drain path
     * calls this so held requests flush instead of riding out their
     * budgets during shutdown.
     */
    void flushHolds();

    /** Serving statistics. */
    struct Counters
    {
        /** Requests completed (run + submit). */
        std::uint64_t requests = 0;
        /** Images classified. */
        std::uint64_t images = 0;
        /** Engine batch passes executed. */
        std::uint64_t passes = 0;
        /** Passes that merged two or more requests. */
        std::uint64_t coalescedPasses = 0;
        /** Passes the deadline-aware coalescer held open (waited on a
         *  latency budget for more arrivals) before dispatching. */
        std::uint64_t heldPasses = 0;
        /** Largest number of requests merged into one pass. */
        std::uint64_t maxCoalescedRequests = 0;
        /** Largest image count of one pass. */
        std::uint64_t maxBatchedImages = 0;
    };
    Counters counters() const;

    /** The engine's executor statistics, merged over its replicas. */
    accel::CycleStats stats() const;

    const SessionOptions &options() const { return opts_; }
    const accel::QuantizedProgram &program() const { return engine_.program(); }
    const accel::AcceleratorConfig &acceleratorConfig() const
    {
        return engine_.config();
    }
    std::size_t inputDim() const { return program().inputDim(); }
    std::size_t outputDim() const { return program().outputDim(); }
    /** The executor backend id the session runs on: "functional" in
     *  Fidelity mode, "batched" in Throughput mode. */
    const std::string &backendId() const { return engine_.backendId(); }

    /** The SIMD kernel tier the backends dispatch to ("scalar", "sse4",
     *  "avx2", "avx512"; avx512 serves with the avx2 inference kernels)
     *  — serving introspection: the tiers are bit-exact, so this only
     *  explains throughput. */
    static const char *kernelName();

  private:
    struct Queued;

    InferenceSession(const accel::QuantizedProgram &program,
                     const accel::AcceleratorConfig &config,
                     const SessionOptions &opts);

    /** Ensemble size a request is served with. */
    int effectiveSamples(const InferenceRequest &request) const;

    /** Latency budget a request is served under (its own, else the
     *  session default; 0 = none). */
    std::int64_t effectiveDeadline(const InferenceRequest &request) const;

    /** EWMA pass-time estimate for ensemble size `t`, micros (0 until
     *  the first observed pass at that T). */
    std::int64_t passEstimateMicros(int t) const;
    void observePassMicros(int t, double micros);

    /** fatal() with requestError()'s reason when it has one. */
    void validateRequest(const InferenceRequest &request) const;

    /** Run one engine pass over `items` (same effective T), build and
     *  fulfill/collect the per-request results. `held` marks a pass
     *  the deadline-aware coalescer kept open before dispatch. */
    void executePass(std::vector<Queued> &items, int t, bool held);

    /** Decorate one image range [first_image, first_image + count)
     *  of an engine result whose round budget is `t`. */
    InferenceResult buildResult(std::uint64_t request_id,
                                const accel::McBatchResult &detailed,
                                std::size_t first_image,
                                std::size_t count, int t,
                                std::size_t batched_images) const;

    /** The engine options resolved from opts_.adaptive with budget
     *  `t`; early exit is on only when the policy enables it.
     *  `tightest_deadline_micros` is the smallest remaining member
     *  latency budget (0 = none): with early exit on it caps the
     *  pass's anytime wall-clock deadline. */
    accel::McAdaptiveOptions adaptiveOptions(
        int t, std::int64_t tightest_deadline_micros) const;

    void workerLoop();
    void ensureWorker();

    SessionOptions opts_;

    /** Serializes engine use and counter updates. */
    mutable std::mutex execMutex_;
    /** Serves every T: each pass passes its T as the round budget, and
     *  round r's eps stream depends on the seed and r only, so one
     *  engine's replicas and draw cache serve every ensemble size. It
     *  also holds the session's program and accelerator config. */
    accel::McEngine engine_;
    Counters counters_;

    std::atomic<std::uint64_t> nextRequestId_{1};

    /** Leaf lock guarding the per-T pass-time EWMAs (written after
     *  every pass, read by the dispatcher while deciding a hold). */
    mutable std::mutex estimatorMutex_;
    std::map<int, PassTimeEstimator> passEstimators_;

    /** Dispatcher state (worker started lazily on first submit()). */
    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::condition_variable drainCv_;
    std::deque<Queued> queue_;
    std::size_t pendingRequests_ = 0;
    bool stopping_ = false;
    /** Sticky hold-disable switch (see flushHolds()). */
    std::atomic<bool> holdsFlushed_{false};
    /** steady_clock micros at which the in-flight engine pass
     *  started; 0 = none. Read lock-free by the watchdog. */
    std::atomic<std::int64_t> passStartMicros_{0};
    std::thread worker_;
};

} // namespace vibnn::serve

#endif // VIBNN_SERVE_SESSION_HH
