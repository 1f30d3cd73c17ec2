/**
 * @file
 * Layer-by-layer replay of one engine pass shape.
 *
 * The traced run re-executes the pass shapes the workload produced, in
 * process, calling each layer's public entry point with the inputs the
 * layer above would pass it and timing the call from outside:
 *
 *   InferenceSession::run                        (serve/session)
 *   McEngine::classifyBatchDetailed / ...Adaptive  (accel/mc_engine)
 *   BatchedRunner::runRoundBatch[Gather], seeded with
 *     McEngine::roundSeed for each round          (accel/batched_runner)
 *
 * Below the executor it times the kernel calls a round makes, on the
 * program's op shapes: GaussianGenerator::fillFixed for the round's eps,
 * kernels sampleWeights + packInt16 per op, and gemmBatch per op over
 * the round's images. Those calls run on the benchmark's own buffers,
 * not inside the runner, so the executor's self time (its time minus
 * the kernels') is an estimate.
 *
 * The served sessions run single-threaded, and so does the replay, so
 * each layer's call does the work of its caller's span minus the
 * caller's own. The replay checks itself: session and engine must return
 * the same probabilities, and neither the session's nor the engine's
 * self time may fall below -5% of its span (a child that outlasts its
 * parent means the spans do not nest). The margin is the replay's
 * resolution on a shared host, where a pass's time moves by several
 * percent from one repetition to the next.
 */

#ifndef VIBNN_BENCH_E2E_REPLAY_HH
#define VIBNN_BENCH_E2E_REPLAY_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "accel/batched_runner.hh"
#include "accel/kernels/kernels.hh"
#include "accel/mc_engine.hh"
#include "gauge.hh"
#include "grng/registry.hh"
#include "serve/session.hh"
#include "stats.hh"

namespace vibnn::bench::e2e
{

/** One pass shape: `batch` images at ensemble size (or adaptive round
 *  budget) `t`. */
struct ReplayShape
{
    std::string label;
    std::size_t batch = 1;
    int t = 8;
    bool adaptive = false;
};

/** Microseconds spent in each layer's entry point. */
struct LayerTimes
{
    double session = 0.0;
    double engine = 0.0;
    double executor = 0.0;
    double grng = 0.0;
    /** sampleWeights + packInt16 of the sampled weights. */
    double sample = 0.0;
    double gemm = 0.0;

    double kernels() const { return grng + sample + gemm; }
};

/**
 * The replay of one shape. A repetition times every layer once, moments
 * apart, with the gauge read between layers; times are scaled to the
 * nominal host speed (gauge.hh). Every time is the median over the
 * repetitions, and every self time the median of the repetitions' own
 * differences. On a shared host a pass runs at one speed or up to ~2x
 * slower depending on what shares its core: unscaled, a layer's fastest
 * repetition could catch a moment its parent's did not, which made a
 * session's fastest span read 7% shorter than its engine's.
 */
struct ShapeResult
{
    ReplayShape shape;
    int reps = 0;
    /** Per-pass totals. */
    LayerTimes pass;
    /** Per-round times (executor and below). */
    std::vector<LayerTimes> rounds;
    /** Self times, microseconds: a layer's pass time minus its
     *  children's, per repetition. The executor's is an estimate (see
     *  the file comment). */
    double selfSession = 0.0, selfEngine = 0.0, selfExecutor = 0.0;
    double meanRounds = 0.0;
    std::uint64_t macsPerPass = 0;
    std::uint64_t epsPerRound = 0;

    double roundCount() const { return static_cast<double>(rounds.size()); }
};

class LayerReplay
{
  public:
    /** Self times may dip this far below zero, as a share of the span,
     *  before the spans count as not nesting. */
    static constexpr double kSelfFloor = -0.05;

    LayerReplay(const accel::QuantizedProgram &program,
                const accel::AcceleratorConfig &config)
        : program_(program), config_(config)
    {
        const auto &w = program_.weightFormat;
        const auto &a = program_.activationFormat;
        std::size_t width = 0;
        for (const auto &op : program_.ops) {
            if (op.kind == accel::OpKind::ConvLowered ||
                op.kind == accel::OpKind::Pool)
                fatal("bench_e2e replay: only dense programs are "
                      "supported");
            if (op.kind != accel::OpKind::Dense)
                continue;
            dense_.push_back({&op, weightCount_});
            weightCount_ += op.bank.outDim * op.bank.inDim;
            width = std::max({width, op.bank.inDim, op.bank.outDim});
        }
        // The paper's 8-bit formats take the runner's int16 GEMM path;
        // GemmArgs states when that path is exact.
        const std::int64_t w_abs = -w.rawMin(), a_abs = -a.rawMin();
        if (w_abs > INT16_MAX || a_abs > INT16_MAX ||
            static_cast<std::int64_t>(width) * w_abs * a_abs > INT32_MAX)
            fatal("bench_e2e replay: formats too wide for the int16 GEMM");
        weights_.assign(weightCount_, 0);
        weights16_.assign(weightCount_, 0);
        eps_.assign(accel::WeightGenerator::epsBlock, 0);
        width_ = width;

        params_.epsShift = program_.epsFormat.fracBits();
        params_.wMin = static_cast<std::int32_t>(w.rawMin());
        params_.wMax = static_cast<std::int32_t>(w.rawMax());
        params_.sigmaAbsMax = -w.rawMin();
        params_.epsAbsMax = -program_.epsFormat.rawMin();
        finish_.biasShift = a.fracBits();
        finish_.outShift = w.fracBits();
        finish_.outMin = static_cast<std::int32_t>(a.rawMin());
        finish_.outMax = static_cast<std::int32_t>(a.rawMax());
    }

    /**
     * Replay `shape` over the images `xs` (batch x inputDim) with the
     * served session options `served`, for about `budget_s` seconds of
     * repetitions (at least 5).
     * @return false with `error` when two layers disagree or the spans
     *         do not nest.
     */
    bool
    run(const ReplayShape &shape, const serve::SessionOptions &served,
        const float *xs, double budget_s, ShapeResult &out,
        std::string &error)
    {
        const std::size_t dim = program_.inputDim();
        const std::size_t out_dim = program_.outputDim();
        const std::size_t batch = shape.batch;
        const std::uint64_t seed = *served.seed;
        grngId_ = served.grngId;

        auto session = serve::InferenceSession::Builder()
                           .program(program_)
                           .accelerator(config_)
                           .options(served)
                           .build();
        auto request = serve::InferenceRequest::borrow(xs, batch, dim);
        request.mcSamples = shape.t;

        accel::AcceleratorConfig engine_config = config_;
        engine_config.mcSamples = shape.t;
        accel::McEngineConfig mc;
        mc.threads = served.threads;
        mc.generatorId = served.grngId;
        mc.seedBase = seed;
        mc.backendId = "batched";
        mc.schedule = accel::McSchedule::PerRound;
        accel::McEngine engine(program_, engine_config, mc);
        accel::McAdaptiveOptions aopts;
        aopts.budget = shape.t;
        aopts.chunk = served.adaptive.chunk;
        aopts.test.confidence = served.adaptive.confidence;
        aopts.test.minSamples = served.adaptive.minSamples;

        auto idle = grng::makeGenerator(served.grngId, seed);
        accel::BatchedRunner runner(program_, engine_config, idle.get());
        const std::size_t tile = runner.imageTile();
        acts_.assign(tile * width_, 0);
        acts16_.assign(tile * width_, 0);
        gemmOut_.assign(tile * width_, 0);

        // Untimed pass: warms every layer and fixes the per-round active
        // sets (adaptive images leave after their achieved rounds).
        std::vector<std::vector<std::uint32_t>> active;
        int reps = 5;
        std::int64_t t0 = nowNs();
        GaugeTrack gauge;
        const double gauge_us = micros(t0);
        {
            t0 = nowNs();
            const auto result = session->run(request);
            // A repetition runs the pass about four times over and reads
            // the gauge four times.
            reps = std::max(5, static_cast<int>(
                                   budget_s * 1e6 /
                                   (4.0 * (micros(t0) + gauge_us))));
            std::vector<float> engine_probs;
            if (shape.adaptive) {
                const auto r = engine.classifyBatchAdaptive(
                    xs, batch, dim, aopts, served.uncertainty);
                engine_probs = r.probs;
                out.meanRounds = r.meanRounds;
                const int max_rounds =
                    *std::max_element(r.achieved.begin(), r.achieved.end());
                active.resize(static_cast<std::size_t>(max_rounds));
                for (int round = 0; round < max_rounds; ++round)
                    for (std::uint32_t i = 0; i < batch; ++i)
                        if (r.achieved[i] > round)
                            active[round].push_back(i);
            } else {
                engine_probs = engine.classifyBatchDetailed(
                                         xs, batch, dim, served.uncertainty)
                                   .probs;
                out.meanRounds = shape.t;
                active.assign(static_cast<std::size_t>(shape.t),
                              std::vector<std::uint32_t>(batch));
                for (auto &set : active)
                    for (std::uint32_t i = 0; i < batch; ++i)
                        set[i] = i;
            }
            for (std::size_t i = 0; i < batch; ++i)
                if (std::memcmp(result.predictions[i].probs.data(),
                                engine_probs.data() + i * out_dim,
                                out_dim * sizeof(float)) != 0) {
                    error = shape.label + ": session.run and McEngine "
                                          "probabilities disagree";
                    return false;
                }
        }

        const std::size_t n_rounds = active.size();
        std::uint64_t macs_per_image = 0;
        for (const auto &d : dense_)
            macs_per_image += d.op->bank.inDim * d.op->bank.outDim;
        out.macsPerPass = 0;
        for (const auto &set : active)
            out.macsPerPass += set.size() * macs_per_image;
        out.epsPerRound = weightCount_;

        // Each layer's calls run back to back, as its caller makes them,
        // so no layer is timed with another's data in its caches. The
        // gauge is read between the layers, and each layer's times are
        // scaled to the nominal host speed by the readings around them.
        std::vector<std::vector<LayerTimes>> samples(
            n_rounds, std::vector<LayerTimes>(static_cast<std::size_t>(reps)));
        std::vector<LayerTimes> totals(static_cast<std::size_t>(reps));
        std::vector<std::int64_t> raw;
        gauge.next();
        for (int rep = 0; rep < reps; ++rep) {
            LayerTimes &total = totals[static_cast<std::size_t>(rep)];
            // Alternate which of the two goes first, so neither always
            // runs on the other's caches.
            for (int turn = 0; turn < 2; ++turn) {
                t0 = nowNs();
                if ((rep + turn) % 2 == 0) {
                    session->run(request);
                    total.session = micros(t0);
                    total.session *= gauge.next();
                } else {
                    if (shape.adaptive)
                        engine.classifyBatchAdaptive(xs, batch, dim, aopts,
                                                     served.uncertainty);
                    else
                        engine.classifyBatchDetailed(xs, batch, dim,
                                                     served.uncertainty);
                    total.engine = micros(t0);
                    total.engine *= gauge.next();
                }
            }

            for (std::size_t round = 0; round < n_rounds; ++round) {
                const auto &set = active[round];
                raw.resize(set.size() * out_dim);
                auto generator = grng::makeGenerator(
                    served.grngId, accel::McEngine::roundSeed(seed, round));
                runner.setGenerator(generator.get());
                t0 = nowNs();
                if (shape.adaptive)
                    runner.runRoundBatchGather(xs, dim, set.data(),
                                               set.size(), raw.data());
                else
                    runner.runRoundBatch(xs, batch, dim, raw.data());
                samples[round][static_cast<std::size_t>(rep)].executor =
                    micros(t0);
                runner.setGenerator(idle.get());
            }
            const double executor_scale = gauge.next();
            for (std::size_t round = 0; round < n_rounds; ++round) {
                LayerTimes &lt = samples[round][static_cast<std::size_t>(rep)];
                lt.executor *= executor_scale;
                if (!timeKernels(accel::McEngine::roundSeed(seed, round),
                                 active[round].size(), tile, lt)) {
                    error = shape.label + ": generator " + grngId_ +
                        " has no fixed-point fill";
                    return false;
                }
            }
            const double kernel_scale = gauge.next();
            for (std::size_t round = 0; round < n_rounds; ++round) {
                LayerTimes &lt = samples[round][static_cast<std::size_t>(rep)];
                lt.grng *= kernel_scale;
                lt.sample *= kernel_scale;
                lt.gemm *= kernel_scale;
                total.executor += lt.executor;
                total.grng += lt.grng;
                total.sample += lt.sample;
                total.gemm += lt.gemm;
            }
        }

        out.shape = shape;
        out.reps = reps;
        out.pass = medianTimes(totals);
        out.rounds.clear();
        for (const auto &per_round : samples)
            out.rounds.push_back(medianTimes(per_round));
        // Each self time is the median of the repetitions' own
        // differences, which were timed moments apart.
        const auto self = [&](auto own) {
            std::vector<double> d;
            for (const LayerTimes &t : totals)
                d.push_back(own(t));
            return median(std::move(d));
        };
        out.selfSession =
            self([](const LayerTimes &t) { return t.session - t.engine; });
        out.selfEngine =
            self([](const LayerTimes &t) { return t.engine - t.executor; });
        out.selfExecutor = self(
            [](const LayerTimes &t) { return t.executor - t.kernels(); });
        for (const auto &[name, own, span] :
             {std::tuple{"session.run", out.selfSession, out.pass.session},
              std::tuple{"mc_engine", out.selfEngine, out.pass.engine}})
            if (own < kSelfFloor * span) {
                error = shape.label + ": " + name + " self time " +
                    std::to_string(own) + " us is below -5% of its " +
                    std::to_string(span) + " us span";
                return false;
            }
        return true;
    }

  private:
    /** A dense op and where its weights start in the arena. */
    struct DenseOp
    {
        const accel::ProgramOp *op;
        std::size_t base;
    };

    static double
    micros(std::int64_t start_ns)
    {
        return static_cast<double>(nowNs() - start_ns) * 1e-3;
    }

    static LayerTimes
    medianTimes(const std::vector<LayerTimes> &v)
    {
        const auto field = [&](double LayerTimes::*member) {
            std::vector<double> values;
            for (const auto &t : v)
                values.push_back(t.*member);
            return median(std::move(values));
        };
        LayerTimes m;
        for (auto member :
             {&LayerTimes::session, &LayerTimes::engine,
              &LayerTimes::executor, &LayerTimes::grng, &LayerTimes::sample,
              &LayerTimes::gemm})
            m.*member = field(member);
        return m;
    }

    /**
     * Time the kernel calls of one round over `images` images: the
     * round's eps, one ring block at a time as the weight generator
     * draws them; sampleWeights + packInt16 of every op's weights; and
     * gemmBatch op by op in image tiles. The activations are zero: their
     * values do not change the work of an integer GEMM.
     */
    bool
    timeKernels(std::uint64_t round_seed, std::size_t images,
                std::size_t tile, LayerTimes &lt)
    {
        const auto &ops = accel::kernels::activeKernels();
        const std::size_t ring = eps_.size();
        auto generator = grng::makeGenerator(grngId_, round_seed);

        std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < weightCount_; i += ring)
            if (!generator->fillFixed(eps_.data(),
                                      std::min(ring, weightCount_ - i),
                                      program_.epsFormat))
                return false;
        lt.grng = micros(t0);

        t0 = nowNs();
        for (const auto &d : dense_) {
            const std::size_t n = d.op->bank.outDim * d.op->bank.inDim;
            for (std::size_t i = 0; i < n; i += ring)
                ops.sampleWeights(d.op->bank.muWeight.data() + i,
                                  d.op->bank.sigmaWeight.data() + i,
                                  eps_.data(), weights_.data() + d.base + i,
                                  std::min(ring, n - i), params_);
            ops.packInt16(weights_.data() + d.base,
                          weights16_.data() + d.base, n);
        }
        lt.sample = micros(t0);

        t0 = nowNs();
        for (const auto &d : dense_) {
            accel::kernels::GemmArgs args;
            args.weights = weights_.data() + d.base;
            args.weights16 = weights16_.data() + d.base;
            args.ldw = d.op->bank.inDim;
            args.acts = acts_.data();
            args.acts16 = acts16_.data();
            args.lda = width_;
            args.bias = d.op->bank.muBias.data();
            args.out = gemmOut_.data();
            args.outNeuronStride = 1;
            args.outImageStride = width_;
            args.inDim = d.op->bank.inDim;
            args.outDim = d.op->bank.outDim;
            args.finish = finish_;
            args.finish.relu = d.op->relu;
            for (std::size_t b = 0; b < images; b += tile) {
                args.images = std::min(tile, images - b);
                ops.gemmBatch(args);
            }
        }
        lt.gemm = micros(t0);
        return true;
    }

    const accel::QuantizedProgram &program_;
    accel::AcceleratorConfig config_;
    std::string grngId_;

    std::vector<DenseOp> dense_;
    std::size_t weightCount_ = 0;
    /** Widest activation row of any op. */
    std::size_t width_ = 0;
    accel::kernels::SampleParams params_;
    accel::kernels::GemmFinish finish_;
    accel::kernels::AlignedVector<std::int32_t> eps_, weights_, acts_,
        gemmOut_;
    accel::kernels::AlignedVector<std::int16_t> weights16_, acts16_;
};

} // namespace vibnn::bench::e2e

#endif // VIBNN_BENCH_E2E_REPLAY_HH
