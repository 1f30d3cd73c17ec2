#include "serve/session.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"
#include "accel/kernels/kernels.hh"
#include "common/env.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "core/model_io.hh"
#include "core/vibnn.hh"
#include "grng/registry.hh"

namespace vibnn::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     start)
        .count();
}

std::int64_t
nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

ExecMode
parseExecMode(const std::string &name)
{
    if (name == "fidelity")
        return ExecMode::Fidelity;
    if (name == "throughput")
        return ExecMode::Throughput;
    fatal("unknown exec mode '" + name +
          "' (expected: fidelity, throughput)");
}

const char *
execModeName(ExecMode mode)
{
    return mode == ExecMode::Throughput ? "throughput" : "fidelity";
}

namespace
{

/**
 * Strict integer env parsing for the serving knobs: a set-but-garbled
 * value (stray suffix, hex, plain text, out of range) must fail
 * loudly — a seed or thread count silently falling back to a default,
 * or wrapping, turns into phantom nondeterminism downstream.
 */
std::int64_t
serveEnvInt(const char *name, std::int64_t fallback)
{
    const std::string raw = envString(name, "");
    if (raw.empty())
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(raw.c_str(), &end, 10);
    if (end == raw.c_str() || *end != '\0')
        fatal(std::string(name) + " must be a base-10 integer, got '" +
              raw + "'");
    if (errno == ERANGE)
        fatal(std::string(name) + " is out of range, got '" + raw +
              "'");
    return value;
}

/** serveEnvInt for a knob held in an int: a value outside int's range
 *  is fatal, not wrapped by the narrowing cast. */
int
serveEnvIntKnob(const char *name, int fallback)
{
    const std::int64_t value = serveEnvInt(name, fallback);
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max())
        fatal(std::string(name) + " must fit in an int, got " +
              std::to_string(value));
    return static_cast<int>(value);
}

/** serveEnvInt for a count knob: a negative value is fatal, not
 *  wrapped to a huge size_t by the cast. */
std::size_t
serveEnvCount(const char *name, std::size_t fallback)
{
    if (envString(name, "").empty())
        return fallback;
    const std::int64_t value = serveEnvInt(name, 0);
    if (value < 0)
        fatal(std::string(name) + " must be >= 0, got " +
              std::to_string(value));
    return static_cast<std::size_t>(value);
}

/** The same strictness for the real-valued adaptive knobs. */
double
serveEnvFloat(const char *name, double fallback)
{
    const std::string raw = envString(name, "");
    if (raw.empty())
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0')
        fatal(std::string(name) + " must be a decimal number, got '" +
              raw + "'");
    return value;
}

} // namespace

SessionOptions
SessionOptions::fromEnv()
{
    return fromEnv(SessionOptions{});
}

SessionOptions
SessionOptions::fromEnv(SessionOptions defaults)
{
    SessionOptions opts = std::move(defaults);
    const std::string mode =
        envString("VIBNN_SERVE_MODE", execModeName(opts.mode));
    opts.mode = parseExecMode(mode);
    opts.grngId = envString("VIBNN_SERVE_GRNG", opts.grngId);
    opts.mcSamples = serveEnvIntKnob("VIBNN_SERVE_T", opts.mcSamples);
    opts.threads = serveEnvCount("VIBNN_SERVE_THREADS", opts.threads);
    if (!envString("VIBNN_SERVE_SEED", "").empty()) {
        opts.seed = static_cast<std::uint64_t>(
            serveEnvInt("VIBNN_SERVE_SEED", 1));
    }
    opts.topK = serveEnvCount("VIBNN_SERVE_TOPK", opts.topK);
    opts.adaptive.enabled =
        serveEnvInt("VIBNN_SERVE_ADAPTIVE",
                    opts.adaptive.enabled ? 1 : 0) != 0;
    opts.adaptive.confidence = serveEnvFloat("VIBNN_SERVE_CONFIDENCE",
                                             opts.adaptive.confidence);
    opts.adaptive.minSamples =
        serveEnvIntKnob("VIBNN_SERVE_MIN_T", opts.adaptive.minSamples);
    opts.adaptive.chunk =
        serveEnvIntKnob("VIBNN_SERVE_CHUNK", opts.adaptive.chunk);
    opts.adaptive.deadlineSeconds =
        serveEnvFloat("VIBNN_SERVE_DEADLINE_MS",
                      opts.adaptive.deadlineSeconds * 1e3) /
        1e3;
    const std::int64_t deadline_us =
        serveEnvInt("VIBNN_SERVE_DEADLINE_US",
                    opts.defaultDeadlineMicros);
    if (deadline_us < 0 || deadline_us > kMaxDeadlineMicros)
        fatal("VIBNN_SERVE_DEADLINE_US must be in [0, " +
              std::to_string(kMaxDeadlineMicros) + "], got " +
              std::to_string(deadline_us));
    opts.defaultDeadlineMicros = deadline_us;
    opts.maxBatchImages =
        serveEnvCount("VIBNN_SERVE_MAX_BATCH", opts.maxBatchImages);
    return opts;
}

const char *
exitReasonName(accel::McExitReason reason)
{
    switch (reason) {
      case accel::McExitReason::Converged:
        return "converged";
      case accel::McExitReason::Decided:
        return "decided";
      case accel::McExitReason::Deadline:
        return "deadline";
      case accel::McExitReason::Budget:
        break;
    }
    return "budget";
}

// --------------------------------------------------------- InferenceRequest

InferenceRequest
InferenceRequest::borrow(const float *xs, std::size_t count,
                         std::size_t dim)
{
    InferenceRequest request;
    request.features = xs;
    request.count = count;
    request.dim = dim;
    return request;
}

InferenceRequest
InferenceRequest::borrow(const nn::DataView &view)
{
    return borrow(view.features, view.count, view.dim);
}

InferenceRequest
InferenceRequest::copy(const float *xs, std::size_t count,
                       std::size_t dim)
{
    InferenceRequest request;
    request.storage.assign(xs, xs + count * dim);
    request.count = count;
    request.dim = dim;
    return request;
}

// ---------------------------------------------------------- InferenceResult

std::vector<std::size_t>
InferenceResult::predictedClasses() const
{
    std::vector<std::size_t> classes(predictions.size());
    for (std::size_t i = 0; i < predictions.size(); ++i)
        classes[i] = predictions[i].predicted;
    return classes;
}

double
InferenceResult::accuracy(const int *labels) const
{
    if (predictions.empty())
        return 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        if (predictions[i].predicted ==
            static_cast<std::size_t>(labels[i]))
            ++correct;
    }
    return static_cast<double>(correct) /
        static_cast<double>(predictions.size());
}

// -------------------------------------------------------------- ResultHandle

struct ResultHandle::Pending
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    InferenceResult result;

    void
    fulfill(InferenceResult value)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            result = std::move(value);
            done = true;
        }
        cv.notify_all();
    }
};

bool
ResultHandle::ready() const
{
    if (!state_)
        return false;
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->done;
}

void
ResultHandle::wait() const
{
    VIBNN_ASSERT(state_, "waiting on an empty ResultHandle");
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
}

InferenceResult
ResultHandle::get()
{
    VIBNN_ASSERT(state_, "reading an empty ResultHandle");
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
    return std::move(state_->result);
}

// -------------------------------------------------------- InferenceSession

/** One queued submission. */
struct InferenceSession::Queued
{
    InferenceRequest request;
    std::shared_ptr<ResultHandle::Pending> pending;
    Clock::time_point enqueued;
};

// ---- Builder

struct InferenceSession::Builder::State
{
    std::optional<accel::QuantizedProgram> program;
    /** Deferred model compilation (runs at build(), once the
     *  accelerator config is final). */
    std::function<accel::QuantizedProgram(
        const accel::AcceleratorConfig &)>
        compileModel;
    accel::AcceleratorConfig config;
    SessionOptions opts;
    /** A system() source's GRNG id / seed — the inherited defaults
     *  when the options leave them unset. */
    std::string sourceGrngId;
    std::optional<std::uint64_t> sourceSeed;
};

InferenceSession::Builder::Builder() : state_(std::make_unique<State>())
{
}

InferenceSession::Builder::~Builder() = default;
InferenceSession::Builder::Builder(Builder &&) noexcept = default;
InferenceSession::Builder &
InferenceSession::Builder::operator=(Builder &&) noexcept = default;

InferenceSession::Builder &
InferenceSession::Builder::system(const core::VibnnSystem &sys)
{
    state_->program = sys.program();
    state_->config = sys.config();
    state_->sourceGrngId = sys.grngId();
    state_->sourceSeed = sys.seed();
    state_->compileModel = nullptr;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::model(const bnn::BayesianMlp &net)
{
    state_->program.reset();
    state_->compileModel =
        [net](const accel::AcceleratorConfig &config) {
            return accel::compile(net, config);
        };
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::model(const bnn::BayesianConvNet &net)
{
    state_->program.reset();
    state_->compileModel =
        [net](const accel::AcceleratorConfig &config) {
            return accel::compile(net, config);
        };
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::program(accel::QuantizedProgram prog)
{
    state_->program = std::move(prog);
    state_->compileModel = nullptr;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::programFile(const std::string &path)
{
    auto loaded = core::loadQuantizedProgram(path);
    if (!loaded)
        fatal("InferenceSession::Builder: cannot load a "
              "QuantizedProgram from '" +
              path + "'");
    state_->program = std::move(*loaded);
    state_->compileModel = nullptr;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::accelerator(
    const accel::AcceleratorConfig &config)
{
    state_->config = config;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::options(const SessionOptions &opts)
{
    state_->opts = opts;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::grng(std::string id)
{
    state_->opts.grngId = std::move(id);
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::seed(std::uint64_t seed)
{
    state_->opts.seed = seed;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::mcSamples(int t)
{
    state_->opts.mcSamples = t;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::threads(std::size_t threads)
{
    state_->opts.threads = threads;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::mode(ExecMode mode)
{
    state_->opts.mode = mode;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::topK(std::size_t k)
{
    state_->opts.topK = k;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::uncertainty(bool enabled)
{
    state_->opts.uncertainty = enabled;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::adaptive(
    const SessionOptions::AdaptivePolicy &policy)
{
    state_->opts.adaptive = policy;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::defaultDeadline(std::int64_t micros)
{
    state_->opts.defaultDeadlineMicros = micros;
    return *this;
}

InferenceSession::Builder &
InferenceSession::Builder::maxBatchImages(std::size_t images)
{
    state_->opts.maxBatchImages = images;
    return *this;
}

std::unique_ptr<InferenceSession>
InferenceSession::Builder::build()
{
    State &s = *state_;
    if (!s.program && s.compileModel)
        s.program = s.compileModel(s.config);
    if (!s.program)
        fatal("InferenceSession::Builder: no model source — provide "
              "system(), model(), program() or programFile() before "
              "build()");

    SessionOptions &opts = s.opts;
    if (opts.mcSamples < 0)
        fatal("InferenceSession::Builder: mcSamples must be >= 0 "
              "(0 = accelerator default), got " +
              std::to_string(opts.mcSamples));
    const int t =
        opts.mcSamples > 0 ? opts.mcSamples : s.config.mcSamples;
    if (t < 1)
        fatal("InferenceSession::Builder: the effective ensemble size "
              "must be >= 1, got " +
              std::to_string(t));
    if (t > kMaxEnsembleSize)
        fatal("InferenceSession::Builder: the effective ensemble size "
              "must be <= " +
              std::to_string(kMaxEnsembleSize) + ", got " +
              std::to_string(t));
    // Resolved: options() and acceleratorConfig() report the T the
    // session actually serves with (per-request overrides still apply
    // on top).
    opts.mcSamples = t;
    s.config.mcSamples = t;
    // A nonsense thread count (e.g. a negative value cast through
    // size_t) would otherwise surface as an allocation failure deep in
    // the engine.
    if (opts.threads > 4096)
        fatal("InferenceSession::Builder: threads must be <= 4096, "
              "got " +
              std::to_string(opts.threads));
    if (opts.defaultDeadlineMicros < 0 ||
        opts.defaultDeadlineMicros > kMaxDeadlineMicros)
        fatal("InferenceSession::Builder: defaultDeadlineMicros must "
              "be in [0, " +
              std::to_string(kMaxDeadlineMicros) + "], got " +
              std::to_string(opts.defaultDeadlineMicros));

    // Resolve the inherit-from-source defaults into the option block
    // ONCE — the session constructor reads only resolved values, so
    // validation and execution cannot diverge.
    if (opts.grngId.empty())
        opts.grngId = state_->sourceGrngId.empty()
                          ? "rlf"
                          : state_->sourceGrngId;
    if (!opts.seed)
        opts.seed = state_->sourceSeed ? *state_->sourceSeed : 1;

    grng::requireGeneratorId(opts.grngId);

    if (opts.adaptive.enabled) {
        // Early exit retires images between weight-reuse rounds (see
        // McEngine::classifyBatchAdaptive).
        if (opts.mode != ExecMode::Throughput)
            fatal("InferenceSession::Builder: adaptive early-exit MC "
                  "requires Throughput mode (mode " +
                  std::string(execModeName(opts.mode)) + ")");
        if (opts.adaptive.confidence <= 0.0 ||
            opts.adaptive.confidence >= 1.0)
            fatal("InferenceSession::Builder: adaptive confidence "
                  "must be in (0, 1), got " +
                  std::to_string(opts.adaptive.confidence));
        if (opts.adaptive.minSamples < 1)
            fatal("InferenceSession::Builder: adaptive minSamples "
                  "must be >= 1, got " +
                  std::to_string(opts.adaptive.minSamples));
        if (opts.adaptive.chunk < 1)
            fatal("InferenceSession::Builder: adaptive chunk must be "
                  ">= 1, got " +
                  std::to_string(opts.adaptive.chunk));
    }

    // Geometry errors surface here, not at the first request.
    accel::validateProgram(*s.program, s.config);

    opts.topK = std::min(opts.topK, s.program->outputDim());
    return std::unique_ptr<InferenceSession>(
        new InferenceSession(*s.program, s.config, opts));
}

// ---- session proper

namespace
{

/** The engine policy of a session with resolved options. The mode
 *  alone picks the backend and its schedule. */
accel::McEngineConfig
engineConfig(const SessionOptions &opts)
{
    // build() resolves every inherit default before handing the
    // options over.
    VIBNN_ASSERT(!opts.grngId.empty() && opts.seed.has_value(),
                 "InferenceSession constructed with unresolved options");
    const bool rounds = opts.mode == ExecMode::Throughput;
    accel::McEngineConfig mc;
    mc.threads = opts.threads;
    mc.generatorId = opts.grngId;
    mc.seedBase = *opts.seed;
    mc.backendId = rounds ? "batched" : "functional";
    mc.schedule = rounds ? accel::McSchedule::PerRound
                         : accel::McSchedule::PerUnit;
    return mc;
}

} // namespace

const char *
InferenceSession::kernelName()
{
    return accel::kernels::activeKernelName();
}

InferenceSession::InferenceSession(const accel::QuantizedProgram &program,
                                   const accel::AcceleratorConfig &config,
                                   const SessionOptions &opts)
    : opts_(opts), engine_(program, config, engineConfig(opts))
{
}

InferenceSession::~InferenceSession()
{
    if (worker_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            stopping_ = true;
        }
        queueCv_.notify_all();
        worker_.join();
    }
}

int
InferenceSession::effectiveSamples(const InferenceRequest &request) const
{
    return request.mcSamples > 0 ? request.mcSamples : opts_.mcSamples;
}

std::int64_t
InferenceSession::effectiveDeadline(const InferenceRequest &request) const
{
    return request.deadlineMicros > 0 ? request.deadlineMicros
                                      : opts_.defaultDeadlineMicros;
}

std::int64_t
InferenceSession::passEstimateMicros(int t) const
{
    std::lock_guard<std::mutex> lock(estimatorMutex_);
    const auto it = passEstimators_.find(t);
    return it == passEstimators_.end()
               ? 0
               : static_cast<std::int64_t>(
                     it->second.estimateMicros());
}

void
InferenceSession::observePassMicros(int t, double micros)
{
    std::lock_guard<std::mutex> lock(estimatorMutex_);
    passEstimators_[t].observe(micros);
}

std::string
InferenceSession::requestError(const InferenceRequest &request) const
{
    if (request.count == 0)
        return "InferenceSession: request holds no images";
    if (request.dim != inputDim())
        return "InferenceSession: request dim " +
            std::to_string(request.dim) +
            " does not match the program input dim " +
            std::to_string(inputDim());
    if (!request.data())
        return "InferenceSession: request carries no feature data";
    if (request.mcSamples < 0)
        return "InferenceSession: request mcSamples must be >= 0";
    if (request.mcSamples > kMaxEnsembleSize)
        return "InferenceSession: request mcSamples must be <= " +
            std::to_string(kMaxEnsembleSize) + ", got " +
            std::to_string(request.mcSamples);
    if (request.deadlineMicros < 0 ||
        request.deadlineMicros > kMaxDeadlineMicros)
        // An unbounded budget is an unbounded dispatcher-hold license
        // (and overflows wait_for's duration math) — cap it like
        // mcSamples above.
        return "InferenceSession: request deadlineMicros must be in "
               "[0, " +
            std::to_string(kMaxDeadlineMicros) + "], got " +
            std::to_string(request.deadlineMicros);
    return {};
}

void
InferenceSession::validateRequest(const InferenceRequest &request) const
{
    const std::string error = requestError(request);
    if (!error.empty())
        fatal(error);
}

InferenceResult
InferenceSession::buildResult(std::uint64_t request_id,
                              const accel::McBatchResult &detailed,
                              std::size_t first_image,
                              std::size_t count, int t,
                              std::size_t batched_images) const
{
    const std::size_t out_dim = outputDim();
    InferenceResult result;
    result.requestId = request_id;
    result.mcSamples = t;
    result.batchedImages = batched_images;
    result.predictions.resize(count);
    double total_rounds = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t image = first_image + i;
        const float *mean = detailed.probs.data() + image * out_dim;
        const int rounds = detailed.achieved[image];
        total_rounds += rounds;
        Prediction &p = result.predictions[i];
        p.predicted = detailed.predicted[image];
        p.probs.assign(mean, mean + out_dim);
        p.entropy = nn::predictiveEntropy(mean, out_dim);
        if (!detailed.sampleProbs.empty() && rounds > 0) {
            // Only the achieved rows are populated; each image's row
            // capacity is the budget t.
            p.mutualInformation = nn::mutualInformation(
                mean,
                detailed.sampleProbs.data() +
                    image * static_cast<std::size_t>(t) * out_dim,
                static_cast<std::size_t>(rounds), out_dim);
        }
        p.confidence = nn::maxProbability(mean, out_dim);
        if (opts_.topK > 0)
            p.topk = nn::topK(mean, out_dim, opts_.topK);
        p.achievedSamples = rounds;
        p.exitReason = detailed.exitReason[image];
    }
    result.meanRounds =
        count > 0 ? total_rounds / static_cast<double>(count) : 0.0;
    return result;
}

accel::McAdaptiveOptions
InferenceSession::adaptiveOptions(
    int t, std::int64_t tightest_deadline_micros) const
{
    accel::McAdaptiveOptions aopts;
    aopts.budget = t;
    aopts.chunk = opts_.adaptive.chunk;
    aopts.test.confidence = opts_.adaptive.confidence;
    aopts.test.minSamples = opts_.adaptive.minSamples;
    aopts.enabled = opts_.adaptive.enabled;
    aopts.deadlineSeconds = opts_.adaptive.deadlineSeconds;
    // A member's remaining latency budget bounds the pass itself:
    // anytime mode returns the best-so-far posterior by the tightest
    // deadline instead of blowing the caller's SLO. With early exit
    // off the engine ignores the deadline and runs all t rounds.
    if (tightest_deadline_micros > 0) {
        const double budget_s =
            static_cast<double>(tightest_deadline_micros) * 1e-6;
        aopts.deadlineSeconds = aopts.deadlineSeconds > 0.0
                                    ? std::min(aopts.deadlineSeconds,
                                               budget_s)
                                    : budget_s;
    }
    return aopts;
}

InferenceResult
InferenceSession::run(const InferenceRequest &request)
{
    validateRequest(request);
    const std::uint64_t id =
        request.id != 0 ? request.id : nextRequestId_.fetch_add(1);
    const int t = effectiveSamples(request);
    const auto start = Clock::now();

    std::lock_guard<std::mutex> lock(execMutex_);
    InferenceResult result = buildResult(
        id,
        engine_.classifyBatchAdaptive(
            request.data(), request.count, request.dim,
            adaptiveOptions(t, effectiveDeadline(request)),
            opts_.uncertainty),
        0, request.count, t, request.count);
    result.micros = microsSince(start);
    observePassMicros(t, result.micros);

    counters_.requests += 1;
    counters_.images += request.count;
    counters_.passes += 1;
    counters_.maxBatchedImages =
        std::max<std::uint64_t>(counters_.maxBatchedImages,
                                request.count);
    counters_.maxCoalescedRequests =
        std::max<std::uint64_t>(counters_.maxCoalescedRequests, 1);
    return result;
}

ResultHandle
InferenceSession::submit(InferenceRequest request)
{
    validateRequest(request);
    if (request.storage.empty()) {
        // The caller may free borrowed memory as soon as we return.
        request.storage.assign(request.features,
                               request.features +
                                   request.count * request.dim);
        request.features = nullptr;
    }
    if (request.id == 0)
        request.id = nextRequestId_.fetch_add(1);

    ResultHandle handle;
    handle.state_ = std::make_shared<ResultHandle::Pending>();

    Queued item;
    item.request = std::move(request);
    item.pending = handle.state_;
    item.enqueued = Clock::now();

    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        ensureWorker();
        queue_.push_back(std::move(item));
        ++pendingRequests_;
    }
    queueCv_.notify_one();
    return handle;
}

void
InferenceSession::drain()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    drainCv_.wait(lock, [&] { return pendingRequests_ == 0; });
}

std::int64_t
InferenceSession::currentPassMicros() const
{
    const std::int64_t start =
        passStartMicros_.load(std::memory_order_acquire);
    if (start == 0)
        return 0;
    return std::max<std::int64_t>(nowMicros() - start, 1);
}

void
InferenceSession::flushHolds()
{
    holdsFlushed_.store(true, std::memory_order_release);
    // The dispatcher may be parked inside a hold wait; wake it so the
    // held batch dispatches now.
    queueCv_.notify_all();
}

void
InferenceSession::ensureWorker()
{
    // Called with queueMutex_ held. Lazy start keeps sessions that
    // only ever run() synchronously thread-free.
    if (!worker_.joinable())
        worker_ = std::thread([this] { workerLoop(); });
}

void
InferenceSession::workerLoop()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    for (;;) {
        queueCv_.wait(lock,
                      [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }

        // Pop the oldest request, then — in Throughput mode — merge
        // every pending request of the same ensemble size into the
        // pass. A round's per-image outputs do not depend on the batch
        // composition, so the merge is a pure throughput decision:
        // results are bit-identical either way. Fidelity never merges:
        // a per-unit stream is seeded by the image's position in the
        // pass.
        std::vector<Queued> batch;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        const int t = effectiveSamples(batch.front().request);
        std::size_t batch_images = batch.front().request.count;
        const auto batchFull = [&] {
            return opts_.maxBatchImages != 0 &&
                batch_images >= opts_.maxBatchImages;
        };
        const auto mergePending = [&] {
            for (auto it = queue_.begin();
                 it != queue_.end() && !batchFull();) {
                if (effectiveSamples(it->request) == t) {
                    batch_images += it->request.count;
                    batch.push_back(std::move(*it));
                    it = queue_.erase(it);
                } else {
                    ++it;
                }
            }
        };
        bool held = false;
        if (opts_.mode == ExecMode::Throughput) {
            mergePending();
            // Deadline-aware hold: when every batch member carries a
            // latency budget with slack beyond the expected pass
            // time, wait for more same-T arrivals to fill the round —
            // up to the tightest member's allowance, never past it
            // (serve/coalescer.hh pins the bound). Members without a
            // budget contribute zero allowance, reproducing the
            // greedy PR 4 dispatch exactly.
            while (!stopping_ && !batchFull() &&
                   !holdsFlushed_.load(std::memory_order_acquire)) {
                const auto now = Clock::now();
                const std::int64_t estimate = passEstimateMicros(t);
                std::vector<std::int64_t> deadlines(batch.size());
                std::vector<std::int64_t> waited(batch.size());
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    deadlines[i] =
                        effectiveDeadline(batch[i].request);
                    waited[i] = static_cast<std::int64_t>(
                        std::chrono::duration_cast<
                            std::chrono::microseconds>(
                            now - batch[i].enqueued)
                            .count());
                }
                const std::int64_t allowance =
                    batchHoldAllowanceMicros(deadlines.data(),
                                             waited.data(),
                                             batch.size(), estimate);
                if (allowance <= 0)
                    break;
                held = true;
                // Wake on a queue-size change, not on mere
                // non-emptiness: a different-T request parked at the
                // head of the queue must not spin this loop.
                const std::size_t seen = queue_.size();
                // Deadlines are capped at every admission edge, so
                // the allowance is too; the clamp is belt and braces
                // against a wait_for duration-conversion overflow
                // should a path around validateRequest ever appear.
                queueCv_.wait_for(
                    lock,
                    std::chrono::microseconds(
                        std::min(allowance, kMaxDeadlineMicros)),
                    [&] {
                        return stopping_ ||
                            holdsFlushed_.load(
                                std::memory_order_acquire) ||
                            queue_.size() != seen;
                    });
                mergePending();
            }
        }

        lock.unlock();
        executePass(batch, t, held);
        lock.lock();
        pendingRequests_ -= batch.size();
        if (pendingRequests_ == 0)
            drainCv_.notify_all();
    }
}

void
InferenceSession::executePass(std::vector<Queued> &items, int t,
                              bool held)
{
    const std::size_t dim = inputDim();
    std::size_t total_images = 0;
    for (const auto &item : items)
        total_images += item.request.count;

    // One contiguous feature block for the whole micro-batch (a
    // single-request pass reuses the request's own storage).
    const float *xs = nullptr;
    std::vector<float> merged;
    if (items.size() == 1) {
        xs = items.front().request.data();
    } else {
        merged.reserve(total_images * dim);
        for (const auto &item : items) {
            const float *data = item.request.data();
            merged.insert(merged.end(), data,
                          data + item.request.count * dim);
        }
        xs = merged.data();
    }

    std::lock_guard<std::mutex> lock(execMutex_);
    const auto pass_start = Clock::now();
    // Publish the pass start so the server's watchdog can measure how
    // long this pass has been running (wedge detection).
    passStartMicros_.store(nowMicros(), std::memory_order_release);
    if (VIBNN_FAULT("serve.pass.stuck")) {
        // Simulated wedge: the pass sits on the clock (stamp already
        // published) long enough for a watchdog to notice.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            fault::fireDelayMillis("serve.pass.stuck", 200)));
    }
    // The tightest remaining member budget bounds an early-exit pass
    // (anytime mode) — waiting in the queue ate into it.
    std::int64_t tightest = 0;
    for (const auto &item : items) {
        const std::int64_t deadline = effectiveDeadline(item.request);
        if (deadline <= 0)
            continue;
        const std::int64_t waited = static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                pass_start - item.enqueued)
                .count());
        const std::int64_t remaining =
            std::max<std::int64_t>(deadline - waited, 1);
        tightest = tightest == 0 ? remaining
                                 : std::min(tightest, remaining);
    }
    const auto detailed = engine_.classifyBatchAdaptive(
        xs, total_images, dim, adaptiveOptions(t, tightest),
        opts_.uncertainty);
    // Per-image outputs are independent of the batch composition on
    // every coalesced path, so fulfilling per-request slices of one
    // pass is exact.
    std::size_t first = 0;
    for (auto &item : items) {
        InferenceResult result =
            buildResult(item.request.id, detailed, first,
                        item.request.count, t, total_images);
        result.micros = microsSince(item.enqueued);
        first += item.request.count;
        item.pending->fulfill(std::move(result));
    }
    passStartMicros_.store(0, std::memory_order_release);
    observePassMicros(t, microsSince(pass_start));

    counters_.requests += items.size();
    counters_.images += total_images;
    counters_.passes += 1;
    if (items.size() > 1)
        counters_.coalescedPasses += 1;
    if (held)
        counters_.heldPasses += 1;
    counters_.maxCoalescedRequests = std::max<std::uint64_t>(
        counters_.maxCoalescedRequests, items.size());
    counters_.maxBatchedImages = std::max<std::uint64_t>(
        counters_.maxBatchedImages, total_images);
}

InferenceSession::Counters
InferenceSession::counters() const
{
    std::lock_guard<std::mutex> lock(execMutex_);
    return counters_;
}

accel::CycleStats
InferenceSession::stats() const
{
    std::lock_guard<std::mutex> lock(execMutex_);
    return engine_.stats();
}

} // namespace vibnn::serve
