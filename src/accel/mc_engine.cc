#include "accel/mc_engine.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "accel/batched_runner.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "grng/registry.hh"

namespace vibnn::accel
{

McEngine::McEngine(const QuantizedProgram &program,
                   const AcceleratorConfig &config,
                   const McEngineConfig &mc)
    : program_(program), config_(config), mc_(mc),
      rounds_(mc.backendId == "batched")
{
    validateProgram(program_, config_);
    VIBNN_ASSERT(config_.mcSamples >= 1, "need at least one MC sample");
    // Unknown ids die here, in the registries' words, not at the first
    // classify.
    requireExecutorId(mc_.backendId);
    grng::requireGeneratorId(mc_.generatorId);
    // The backend fixes the unit: rounds mean weight reuse, which only
    // the batched runner has.
    if (rounds_ != (mc_.schedule == McSchedule::PerRound))
        fatal("McEngine: backend '" + mc_.backendId + "' runs " +
              (rounds_ ? "per-round" : "per-unit (image, sample)") +
              " work units, but McEngineConfig::schedule says " +
              (rounds_ ? "PerUnit" : "PerRound"));

    // threads == 0 borrows the global pool, first touched by a
    // fan-out: constructing such an engine (every session builds one)
    // starts no thread, so a process forked after it — a death test —
    // does not hang in fatal()'s exit-time pool teardown.
    if (mc_.threads > 1)
        ownPool_ = std::make_unique<ThreadPool>(mc_.threads - 1);
}

McEngine::~McEngine() = default;

std::size_t
McEngine::executorCount() const
{
    return mc_.threads == 0 ? ThreadPool::global().workerCount() + 1
                            : mc_.threads;
}

std::uint64_t
McEngine::streamSeed(std::uint64_t seed_base, std::uint64_t image,
                     std::uint64_t sample)
{
    // splitmix64 over a linear combination of the unit coordinates:
    // distinct (image, sample) pairs land on decorrelated streams, and
    // the mapping is schedule-free — it depends only on the unit.
    std::uint64_t state = seed_base +
        0x9E3779B97F4A7C15ULL * (image + 1) +
        0xBF58476D1CE4E5B9ULL * (sample + 1);
    return splitmix64Next(state);
}

std::uint64_t
McEngine::roundSeed(std::uint64_t seed_base, std::uint64_t round)
{
    // Its own multiplier keeps round streams off the per-unit seed
    // lattice; like streamSeed the mapping depends only on the unit
    // (the round), never on the schedule.
    std::uint64_t state = seed_base +
        0x94D049BB133111EBULL * (round + 1) + 0xD6E8FEB86659FD93ULL;
    return splitmix64Next(state);
}

void
McEngine::ensureReplicas(std::size_t n)
{
    while (replicas_.size() < n) {
        Replica replica;
        // Placeholder stream; every unit swaps in its own before use.
        replica.generator =
            grng::makeGenerator(mc_.generatorId, mc_.seedBase);
        if (rounds_) {
            auto runner = std::make_unique<BatchedRunner>(
                program_, config_, replica.generator.get());
            replica.runner = runner.get();
            replica.executor = std::move(runner);
        } else {
            replica.executor =
                makeExecutor(mc_.backendId, program_, config_,
                             replica.generator.get());
        }
        replicas_.push_back(std::move(replica));
    }
}

template <typename SeedOf, typename Body>
void
McEngine::fanOut(std::size_t units, const SeedOf &seed_of,
                 const Body &body)
{
    if (units == 0)
        return;
    const std::size_t replica_count =
        std::max<std::size_t>(1, std::min(executorCount(), units));
    ensureReplicas(replica_count);

    // Oversubscription guard: when unit-level scheduling fans the
    // units over the pool (replica_count > 1), runners must not also
    // fan the image dimension over the same workers. With a single
    // replica the rounds run serially, so the pool is free — hand it
    // to the runner for intra-pass (image-dim) parallelism; weights
    // are frozen per round, so results stay bit-identical either way.
    ThreadPool *pool =
        mc_.threads == 0 ? &ThreadPool::global() : ownPool_.get();
    const bool unit_level = pool != nullptr && replica_count > 1;
    if (rounds_)
        for (auto &replica : replicas_)
            replica.runner->setWorkPool(unit_level ? nullptr : pool);

    // Static unit assignment: replica r owns units r, r+R, r+2R, ...
    // Outputs depend only on the unit (seeded stream + pure pass), so
    // the partition is a performance choice, not a semantic one.
    auto run_replica = [&](std::size_t r) {
        Replica &replica = replicas_[r];
        for (std::size_t u = r; u < units; u += replica_count) {
            // The one stream switch: a generator constructed on the
            // unit's seed. The replica keeps it until its next unit,
            // so the executor never reads a freed stream.
            auto generator =
                grng::makeGenerator(mc_.generatorId, seed_of(u));
            replica.executor->setGenerator(generator.get());
            replica.generator = std::move(generator);
            body(replica, u);
        }
    };

    if (unit_level)
        pool->parallelFor(replica_count, run_replica);
    else
        for (std::size_t r = 0; r < replica_count; ++r)
            run_replica(r);
}

void
McEngine::runRoundRange(const float *xs, std::size_t stride,
                        const std::uint32_t *indices, std::size_t count,
                        int r_begin, int r_end,
                        std::vector<std::int64_t> &raw)
{
    const std::size_t out_dim = program_.outputDim();
    const std::size_t rounds = static_cast<std::size_t>(r_end - r_begin);
    raw.resize(rounds * count * out_dim);
    const auto global_round = [&](std::size_t r) {
        return static_cast<std::uint64_t>(r_begin) + r;
    };

    if (!rounds_) {
        // Unit u is (image a, round r) in image-major order; its pass
        // lands in the round-major slot the reduction reads.
        fanOut(count * rounds,
               [&](std::size_t u) {
                   return streamSeed(mc_.seedBase, indices[u / rounds],
                                     global_round(u % rounds));
               },
               [&](Replica &replica, std::size_t u) {
                   const std::size_t a = u / rounds;
                   const std::size_t r = u % rounds;
                   const auto pass =
                       replica.executor->runPass(xs + indices[a] * stride);
                   std::copy(pass.begin(), pass.end(),
                             raw.data() + (r * count + a) * out_dim);
               });
        return;
    }

    // Seed by the GLOBAL round index: the stream of round r_begin + u
    // is the one the fixed-T run uses for that same round, so surviving
    // images' samples are bit-identical to it regardless of chunking or
    // who else is still active.
    fanOut(rounds,
           [&](std::size_t u) {
               return roundSeed(mc_.seedBase, global_round(u));
           },
           [&](Replica &replica, std::size_t u) {
               replica.runner->runRoundBatchGather(
                   xs, stride, indices, count,
                   raw.data() + u * count * out_dim);
           });
}

McBatchResult
McEngine::classifyBatchAdaptive(const float *xs, std::size_t count,
                                std::size_t stride,
                                const McAdaptiveOptions &options,
                                bool keep_sample_probs)
{
    const std::size_t out_dim = program_.outputDim();
    const int budget =
        options.budget > 0 ? options.budget : config_.mcSamples;
    VIBNN_ASSERT(budget >= 1, "Monte-Carlo classification needs a "
                              "positive round budget");

    McBatchResult result;
    result.predicted.assign(count, 0);
    result.probs.assign(count * out_dim, 0.0f);
    result.achieved.assign(count, 0);
    result.exitReason.assign(count, McExitReason::Budget);
    if (keep_sample_probs)
        result.sampleProbs.assign(
            count * static_cast<std::size_t>(budget) * out_dim, 0.0f);
    if (count == 0)
        return result;

    // Early exit checkpoints between rounds of the weight-reuse path;
    // the per-pass backends serve fixed-T ensembles only.
    if (options.enabled && !rounds_)
        fatal("adaptive early-exit MC requires a batched-rounds "
              "backend (got '" + mc_.backendId + "')");

    // Early exit off: the whole budget is one increment, so neither
    // the convergence checkpoint nor the deadline below is ever
    // reached.
    const int chunk = options.enabled ? std::max(options.chunk, 1)
                                      : budget;
    std::vector<stats::SequentialPosteriorTest> tests(count);
    for (auto &test : tests)
        test.reset(out_dim);
    std::vector<std::uint32_t> active(count);
    std::iota(active.begin(), active.end(), 0u);

    const bool timed = options.deadlineSeconds > 0.0;
    const auto t_start = std::chrono::steady_clock::now();

    std::vector<std::int64_t> raw;
    std::vector<float> sample(out_dim);
    int done = 0;
    while (done < budget && !active.empty()) {
        const int next = std::min(done + chunk, budget);
        runRoundRange(xs, stride, active.data(), active.size(), done,
                      next, raw);

        // Serial per-image accumulation in global round order: every
        // image's running statistics are a pure function of its own
        // sample sequence, independent of schedule and neighbours.
        for (std::size_t a = 0; a < active.size(); ++a) {
            const std::uint32_t image = active[a];
            for (int r = done; r < next; ++r) {
                const std::int64_t *row = raw.data() +
                    (static_cast<std::size_t>(r - done) * active.size() +
                     a) *
                        out_dim;
                sampleSoftmax(program_, row, sample.data());
                if (keep_sample_probs)
                    std::copy(
                        sample.begin(), sample.end(),
                        result.sampleProbs.data() +
                            (static_cast<std::size_t>(image) * budget +
                             tests[image].samples()) *
                                out_dim);
                tests[image].add(sample.data());
            }
        }
        done = next;

        // Retire converged/decided images; compact the survivors.
        // This runs before the deadline check so images that settled
        // during this chunk report their true exit reason even when
        // the chunk also blew the deadline.
        std::vector<std::uint32_t> survivors;
        survivors.reserve(active.size());
        for (const std::uint32_t image : active) {
            if (done >= budget)
                break; // everyone left exits as Budget below
            const auto decision =
                tests[image].decide(options.test, budget);
            if (decision == stats::SequentialDecision::Converged)
                result.exitReason[image] = McExitReason::Converged;
            else if (decision == stats::SequentialDecision::Decided)
                result.exitReason[image] = McExitReason::Decided;
            else
                survivors.push_back(image);
        }
        if (done < budget)
            active.swap(survivors);

        // Anytime deadline (wall clock, chunk granularity): whatever
        // is still active keeps its running mean as the best answer by
        // the deadline. Images that just exhausted the budget keep
        // their Budget reason — the deadline only cuts rounds short.
        if (timed && done < budget && !active.empty()) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t_start)
                    .count();
            if (elapsed >= options.deadlineSeconds) {
                for (const std::uint32_t image : active)
                    result.exitReason[image] = McExitReason::Deadline;
                active.clear();
                break;
            }
        }
    }

    double total_rounds = 0.0;
    for (std::size_t image = 0; image < count; ++image) {
        result.achieved[image] = tests[image].samples();
        total_rounds += result.achieved[image];
        tests[image].mean(result.probs.data() + image * out_dim);
        result.predicted[image] = tests[image].predicted();
    }
    result.meanRounds = total_rounds / static_cast<double>(count);
    return result;
}

McBatchResult
McEngine::classifyBatchDetailed(const float *xs, std::size_t count,
                                std::size_t stride,
                                bool keep_sample_probs)
{
    McAdaptiveOptions fixed_t;
    fixed_t.enabled = false;
    return classifyBatchAdaptive(xs, count, stride, fixed_t,
                                 keep_sample_probs);
}

CycleStats
McEngine::stats() const
{
    CycleStats merged;
    for (const auto &replica : replicas_)
        merged += replica.executor->stats();
    return merged;
}

} // namespace vibnn::accel
