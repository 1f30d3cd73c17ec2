#include "bnn/bnn_trainer.hh"

#include <atomic>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "nn/loss.hh"

namespace vibnn::bnn
{

namespace ak = accel::kernels;

double
evaluateBnnAccuracy(const BayesianMlp &net, const nn::DataView &data,
                    std::size_t mc_samples, std::uint64_t seed,
                    ThreadPool *pool)
{
    if (data.count == 0)
        return 0.0;
    if (!pool)
        pool = &ThreadPool::global();
    std::atomic<std::size_t> correct{0};
    pool->parallelFor(data.count, [&](std::size_t i) {
        // Per-image stream keyed on (seed, i): any thread may classify
        // any image and the draws are identical — accuracy cannot
        // depend on the pool size or partition.
        std::uint64_t state = seed + (i + 1) * 0x9E3779B97F4A7C15ULL;
        Rng rng(splitmix64Next(state));
        if (net.mcClassify(data.sample(i), mc_samples, rng) ==
            static_cast<std::size_t>(data.labels[i]))
            correct.fetch_add(1, std::memory_order_relaxed);
    });
    return static_cast<double>(correct.load()) /
        static_cast<double>(data.count);
}

nn::TrainHistory
trainBnn(BayesianMlp &net, const nn::DataView &train,
         const BnnTrainConfig &config)
{
    VIBNN_ASSERT(train.count > 0, "empty training set");
    VIBNN_ASSERT(train.dim == net.inputDim(), "feature dim mismatch");

    nn::TrainHistory history;
    Rng rng(config.seed);
    nn::AdamOptimizer optimizer(config.learningRate);
    optimizer.ensureState(net.paramCount());

    BnnWorkspace ws = net.makeWorkspace();
    // The optimizer steps the layers' own storage through these
    // segments — no per-minibatch gather/scatter copies, identical
    // trajectory (the segmented sweep is the same arithmetic in the
    // same flat order).
    const std::vector<ParamSegment> segments =
        net.paramSegments(ws.gradients);
    std::vector<std::size_t> order(train.count);
    std::iota(order.begin(), order.end(), 0);

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        double epoch_loss = 0.0;
        std::size_t seen = 0;

        for (std::size_t start = 0; start < train.count;
             start += config.batchSize) {
            const std::size_t end =
                std::min(start + config.batchSize, train.count);
            const std::size_t batch = end - start;
            net.zeroGrads(ws);
            for (std::size_t k = start; k < end; ++k) {
                const std::size_t i = order[k];
                epoch_loss += net.trainSample(
                    train.sample(i),
                    static_cast<std::size_t>(train.labels[i]), ws, rng,
                    config.useLocalReparameterization);
            }
            seen += batch;

            // KL weighting: the step divides every gradient by the
            // batch sample count, so pre-scale by batch/N to land at
            // KL/N per sample overall (uniform minibatch weighting).
            const float kl_scale = config.klWeight *
                static_cast<float>(batch) /
                static_cast<float>(train.count);
            const double kl =
                net.accumulateKl(ws, config.priorSigma, kl_scale);
            epoch_loss += kl * batch / train.count;

            const float inv = ws.sampleCount > 0
                ? 1.0f / static_cast<float>(ws.sampleCount)
                : 1.0f;
            optimizer.beginStep();
            std::size_t offset = 0;
            for (const auto &seg : segments) {
                optimizer.stepRange(seg.params, seg.grads, seg.count,
                                    offset, inv);
                offset += seg.count;
            }
        }

        const double mean_loss = epoch_loss / static_cast<double>(seen);
        history.trainLoss.push_back(mean_loss);
        double acc = -1.0;
        if (config.evalSet) {
            acc = evaluateBnnAccuracy(net, *config.evalSet,
                                      config.evalSamples,
                                      config.seed + 977 + epoch);
        }
        history.evalAccuracy.push_back(acc);
        if (config.onEpoch)
            config.onEpoch(epoch, mean_loss, acc);
    }
    return history;
}

// ------------------------------------------------------- batched engine

namespace
{

/** Run piece(lo, hi) over [0, rows) — sharded on the pool when one is
 *  given. Pieces touch disjoint output rows and each element's
 *  arithmetic is identical in every partition, so any pool (or none)
 *  produces bit-identical results. */
template <typename Fn>
void
shardRows(ThreadPool *pool, std::size_t rows, Fn &&piece)
{
    if (!pool || pool->parties() <= 1 || rows < 2) {
        piece(static_cast<std::size_t>(0), rows);
        return;
    }
    const std::size_t parts = std::min(rows, pool->parties());
    pool->parallelFor(parts, [&](std::size_t p) {
        piece(rows * p / parts, rows * (p + 1) / parts);
    });
}

} // namespace

struct BnnBatchTrainer::Impl
{
    BayesianMlp &net;
    BnnBatchedTrainConfig cfg;
    const ak::KernelOps &ops;
    ThreadPool *pool;
    grng::PhiloxGrng philox;
    nn::AdamOptimizer opt;
    std::vector<VariationalGradients> grads;
    std::vector<ParamSegment> segments;

    /** Per-layer derived planes and per-minibatch scratch. */
    struct Layer
    {
        std::size_t in = 0, out = 0;
        // Derived from (mu, rho) by refreshParams().
        ak::AlignedVector<float> sigmaW, sigmaB;     // softplus(rho)
        ak::AlignedVector<float> dSigmaW, dSigmaB;   // logistic(rho)
        ak::AlignedVector<float> sigmaSqW, sigmaSqB; // LRT variance GEMM
        // QAT raw planes (weight grid) + the dequantized bias.
        ak::AlignedVector<std::int32_t> rawMuW, rawSigmaW, rawMuB;
        ak::AlignedVector<float> bQuant;
        // Per-step noise and sampled weights (direct/QAT).
        ak::AlignedVector<float> epsW, epsB, wEff, bEff;
        ak::AlignedVector<std::int32_t> rawEpsW, rawW;
        // Per-minibatch activations (batch-major rows).
        ak::AlignedVector<float> pre, act;            // batch x out
        ak::AlignedVector<float> mean, var, sd, eps;  // batch x out (LRT)
        ak::AlignedVector<float> xsq;                 // batch x in (LRT)
        ak::AlignedVector<float> dvar;                // batch x out (LRT)
        ak::AlignedVector<float> dxa, dxb;            // batch x in
        // Weight-shaped backward scratch.
        ak::AlignedVector<float> gw, gbScratch;       // out x in, out
    };
    std::vector<Layer> layers;

    ak::AlignedVector<float> x0;       // batch x inputDim
    ak::AlignedVector<float> deltaA, deltaB;
    ak::AlignedVector<double> dscratch;
    std::vector<std::size_t> labels;
    std::size_t cap = 0;

    ak::SampleParams qatSample;

    Impl(BayesianMlp &n, const BnnBatchedTrainConfig &c)
        : net(n), cfg(c),
          ops(c.kernels ? *c.kernels : ak::activeKernels()),
          pool(c.pool), philox(c.seed), opt(c.learningRate)
    {
        VIBNN_ASSERT(!cfg.quantizeAware ||
                         cfg.estimator ==
                             BnnEstimator::DirectWeightSample,
                     "QAT requires the direct weight-sample estimator");
        const auto &ls = net.layers();
        grads.resize(ls.size());
        layers.resize(ls.size());
        for (std::size_t l = 0; l < ls.size(); ++l) {
            Layer &st = layers[l];
            st.in = ls[l].inDim();
            st.out = ls[l].outDim();
            grads[l].resize(st.out, st.in);
            const std::size_t w = st.out * st.in;
            st.sigmaW.resize(w);
            st.sigmaB.resize(st.out);
            st.dSigmaW.resize(w);
            st.dSigmaB.resize(st.out);
            if (cfg.estimator == BnnEstimator::LocalReparam) {
                st.sigmaSqW.resize(w);
                st.sigmaSqB.resize(st.out);
            } else {
                st.epsW.resize(w);
                st.epsB.resize(st.out);
                st.wEff.resize(w);
                st.bEff.resize(st.out);
                st.gw.resize(w);
                st.gbScratch.resize(st.out);
            }
            if (cfg.quantizeAware) {
                st.rawMuW.resize(w);
                st.rawSigmaW.resize(w);
                st.rawMuB.resize(st.out);
                st.bQuant.resize(st.out);
                st.rawEpsW.resize(w);
                st.rawW.resize(w);
            }
            if (cfg.estimator == BnnEstimator::LocalReparam) {
                st.gw.resize(w); // dvar^T xsq accumulator
                st.gbScratch.resize(st.out);
            }
        }
        segments = net.paramSegments(grads);
        opt.ensureState(net.paramCount());

        qatSample.epsShift = cfg.qatEps.fracBits();
        qatSample.wMin = static_cast<std::int32_t>(cfg.qatWeight.rawMin());
        qatSample.wMax = static_cast<std::int32_t>(cfg.qatWeight.rawMax());
        qatSample.sigmaAbsMax = -cfg.qatWeight.rawMin();
        qatSample.epsAbsMax = -cfg.qatEps.rawMin();

        refreshParams();
    }

    void
    ensureBatch(std::size_t batch)
    {
        if (batch <= cap)
            return;
        cap = batch;
        std::size_t max_dim = net.inputDim();
        for (const Layer &st : layers)
            max_dim = std::max(max_dim, st.out);
        x0.resize(cap * net.inputDim());
        deltaA.resize(cap * max_dim);
        deltaB.resize(cap * max_dim);
        labels.resize(cap);
        for (Layer &st : layers) {
            st.pre.resize(cap * st.out);
            st.act.resize(cap * st.out);
            if (cfg.estimator == BnnEstimator::LocalReparam) {
                st.mean.resize(cap * st.out);
                st.var.resize(cap * st.out);
                st.sd.resize(cap * st.out);
                st.eps.resize(cap * st.out);
                st.dvar.resize(cap * st.out);
                st.xsq.resize(cap * st.in);
                st.dxb.resize(cap * st.in);
            }
            st.dxa.resize(cap * st.in);
        }
    }

    /** Fill `dst` with n standard normals: from the host Rng when
     *  given (trajectory parity with the per-sample trainer), else
     *  sequentially off the Philox block stream. Always serial — the
     *  draw order never depends on the pool. */
    void
    drawEps(float *dst, std::size_t n, Rng *host_rng)
    {
        if (host_rng) {
            for (std::size_t i = 0; i < n; ++i)
                dst[i] = static_cast<float>(host_rng->gaussian());
            return;
        }
        if (dscratch.size() < n)
            dscratch.resize(n);
        philox.fill(dscratch.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = static_cast<float>(dscratch[i]);
    }

    void
    refreshParams()
    {
        const auto &ls = net.layers();
        for (std::size_t l = 0; l < ls.size(); ++l) {
            Layer &st = layers[l];
            const float *rhoW = ls[l].rhoWeight().data().data();
            const float *rhoB = ls[l].rhoBias().data();
            const std::size_t w = st.out * st.in;
            const bool lrt = cfg.estimator == BnnEstimator::LocalReparam;
            ops.sigmaPlanes(rhoW, st.sigmaW.data(), st.dSigmaW.data(),
                            lrt ? st.sigmaSqW.data() : nullptr, w);
            ops.sigmaPlanes(rhoB, st.sigmaB.data(), st.dSigmaB.data(),
                            lrt ? st.sigmaSqB.data() : nullptr, st.out);
            if (cfg.quantizeAware) {
                const auto &wf = cfg.qatWeight;
                ops.quantizeFloat(
                    ls[l].muWeight().data().data(), st.rawMuW.data(), w,
                    wf.fracBits(),
                    static_cast<std::int32_t>(wf.rawMin()),
                    static_cast<std::int32_t>(wf.rawMax()));
                ops.quantizeFloat(
                    st.sigmaW.data(), st.rawSigmaW.data(), w,
                    wf.fracBits(),
                    static_cast<std::int32_t>(wf.rawMin()),
                    static_cast<std::int32_t>(wf.rawMax()));
                ops.quantizeFloat(
                    ls[l].muBias().data(), st.rawMuB.data(), st.out,
                    wf.fracBits(),
                    static_cast<std::int32_t>(wf.rawMin()),
                    static_cast<std::int32_t>(wf.rawMax()));
                const float res =
                    static_cast<float>(wf.resolution());
                for (std::size_t i = 0; i < st.out; ++i)
                    st.bQuant[i] =
                        static_cast<float>(st.rawMuB[i]) * res;
            }
        }
    }

    const float *
    inputOf(std::size_t l) const
    {
        return l == 0 ? x0.data() : layers[l - 1].act.data();
    }

    void
    gatherInputs(const nn::DataView &data, const std::size_t *idx,
                 std::size_t batch)
    {
        const std::size_t dim = net.inputDim();
        for (std::size_t b = 0; b < batch; ++b) {
            const float *src = data.sample(idx[b]);
            float *dst = x0.data() + b * dim;
            if (cfg.quantizeAware) {
                // The executor quantizes inputs round-to-nearest onto
                // the activation grid; emulate that exactly.
                for (std::size_t c = 0; c < dim; ++c)
                    dst[c] = static_cast<float>(cfg.qatActivation.quantize(
                        static_cast<double>(src[c]),
                        fixed::RoundMode::Nearest));
            } else {
                std::copy(src, src + dim, dst);
            }
            labels[b] =
                static_cast<std::size_t>(data.labels[idx[b]]);
        }
    }

    /** Sampled weights of one direct/QAT layer from the current
     *  parameter planes and the layer's stored eps. */
    void
    materializeWeights(std::size_t l)
    {
        Layer &st = layers[l];
        const auto &layer = net.layers()[l];
        const std::size_t w = st.out * st.in;
        if (cfg.quantizeAware) {
            // Raw-domain draw, exactly DatapathKernel::sampleWeight:
            // w = sat(mu_raw + ((sigma_raw * eps_raw) >> epsFrac)).
            ops.sampleWeights(st.rawMuW.data(), st.rawSigmaW.data(),
                              st.rawEpsW.data(), st.rawW.data(), w,
                              qatSample);
            const float res =
                static_cast<float>(cfg.qatWeight.resolution());
            for (std::size_t i = 0; i < w; ++i)
                st.wEff[i] = static_cast<float>(st.rawW[i]) * res;
            // The accelerator's GEMM bias is the quantized mu bias
            // (deterministic — see BatchedRunner).
            std::copy(st.bQuant.begin(), st.bQuant.end(),
                      st.bEff.begin());
            return;
        }
        const float *muW = layer.muWeight().data().data();
        const float *muB = layer.muBias().data();
        for (std::size_t i = 0; i < w; ++i)
            st.wEff[i] = muW[i] + st.sigmaW[i] * st.epsW[i];
        for (std::size_t i = 0; i < st.out; ++i)
            st.bEff[i] = muB[i] + st.sigmaB[i] * st.epsB[i];
    }

    /** Forward through layer l for `batch` rows. `redraw` pulls fresh
     *  eps; false reuses the stored block (finite-difference probes). */
    void
    forwardLayer(std::size_t l, std::size_t batch, bool redraw,
                 Rng *host_rng)
    {
        Layer &st = layers[l];
        const auto &layer = net.layers()[l];
        const float *x = inputOf(l);
        const bool last = l + 1 == layers.size();

        if (cfg.estimator == BnnEstimator::LocalReparam) {
            for (std::size_t t = 0; t < batch * st.in; ++t)
                st.xsq[t] = x[t] * x[t];
            ak::GemmF32Args gm;
            gm.a = x;
            gm.lda = st.in;
            gm.b = layer.muWeight().data().data();
            gm.ldb = st.in;
            gm.c = st.mean.data();
            gm.ldc = st.out;
            gm.m = batch;
            gm.n = st.out;
            gm.k = st.in;
            gm.bias = layer.muBias().data();
            shardRows(pool, batch, [&](std::size_t lo, std::size_t hi) {
                ak::GemmF32Args part = gm;
                part.a = gm.a + lo * gm.lda;
                part.c = gm.c + lo * gm.ldc;
                part.m = hi - lo;
                ops.gemmBatchF32(part);
            });
            ak::GemmF32Args gv = gm;
            gv.a = st.xsq.data();
            gv.b = st.sigmaSqW.data();
            gv.c = st.var.data();
            gv.bias = st.sigmaSqB.data();
            shardRows(pool, batch, [&](std::size_t lo, std::size_t hi) {
                ak::GemmF32Args part = gv;
                part.a = gv.a + lo * gv.lda;
                part.c = gv.c + lo * gv.ldc;
                part.m = hi - lo;
                ops.gemmBatchF32(part);
            });
            if (redraw)
                drawEps(st.eps.data(), batch * st.out, host_rng);
            for (std::size_t t = 0; t < batch * st.out; ++t) {
                const float sd =
                    std::sqrt(std::max(st.var[t], 1e-16f));
                st.sd[t] = sd;
                st.pre[t] = st.mean[t] + sd * st.eps[t];
            }
        } else {
            if (redraw) {
                drawEps(st.epsW.data(), st.out * st.in, host_rng);
                drawEps(st.epsB.data(), st.out, host_rng);
                if (cfg.quantizeAware) {
                    const auto &ef = cfg.qatEps;
                    ops.quantizeFloat(
                        st.epsW.data(), st.rawEpsW.data(),
                        st.out * st.in, ef.fracBits(),
                        static_cast<std::int32_t>(ef.rawMin()),
                        static_cast<std::int32_t>(ef.rawMax()));
                    // The STE chain differentiates through the
                    // quantized eps the datapath actually multiplies.
                    const float res =
                        static_cast<float>(ef.resolution());
                    for (std::size_t i = 0; i < st.out * st.in; ++i)
                        st.epsW[i] =
                            static_cast<float>(st.rawEpsW[i]) * res;
                }
            }
            materializeWeights(l);
            ak::GemmF32Args gm;
            gm.a = x;
            gm.lda = st.in;
            gm.b = st.wEff.data();
            gm.ldb = st.in;
            gm.c = st.pre.data();
            gm.ldc = st.out;
            gm.m = batch;
            gm.n = st.out;
            gm.k = st.in;
            gm.bias = st.bEff.data();
            shardRows(pool, batch, [&](std::size_t lo, std::size_t hi) {
                ak::GemmF32Args part = gm;
                part.a = gm.a + lo * gm.lda;
                part.c = gm.c + lo * gm.ldc;
                part.m = hi - lo;
                ops.gemmBatchF32(part);
            });
        }

        // act = relu(pre) on hidden layers, a plain copy (the loss
        // input) on the last; QAT floor-quantizes onto the activation
        // grid exactly like finishNeuron / finishOutputNeuron.
        float *act = st.act.data();
        const float *pre = st.pre.data();
        const std::size_t n = batch * st.out;
        if (last) {
            std::copy(pre, pre + n, act);
        } else {
            for (std::size_t t = 0; t < n; ++t)
                act[t] = pre[t] > 0.0f ? pre[t] : 0.0f;
        }
        if (cfg.quantizeAware) {
            for (std::size_t t = 0; t < n; ++t)
                act[t] = static_cast<float>(cfg.qatActivation.quantize(
                    static_cast<double>(act[t]),
                    fixed::RoundMode::Floor));
        }
    }

    double
    forward(const nn::DataView &data, const std::size_t *idx,
            std::size_t batch, Rng *host_rng, bool redraw,
            bool want_delta)
    {
        ensureBatch(batch);
        // Resolve the delta pointer only after ensureBatch may have
        // reallocated the arena.
        float *delta_out = want_delta ? deltaA.data() : nullptr;
        gatherInputs(data, idx, batch);
        for (std::size_t l = 0; l < layers.size(); ++l)
            forwardLayer(l, batch, redraw, host_rng);

        Layer &lastL = layers.back();
        const std::size_t out = lastL.out;
        double loss = 0.0;
        for (std::size_t b = 0; b < batch; ++b) {
            float *logits = lastL.act.data() + b * out;
            float *grad =
                delta_out ? delta_out + b * out : nullptr;
            loss += nn::softmaxCrossEntropy(logits, out, labels[b],
                                            grad);
        }
        return loss;
    }

    void
    backward(std::size_t batch)
    {
        float *cur = deltaA.data();
        float *prev = deltaB.data();
        for (std::size_t l = layers.size(); l-- > 0;) {
            Layer &st = layers[l];
            auto &layer = net.layers()[l];
            VariationalGradients &g = grads[l];
            const float *x = inputOf(l);
            const std::size_t w = st.out * st.in;

            if (cfg.estimator == BnnEstimator::LocalReparam) {
                for (std::size_t t = 0; t < batch * st.out; ++t)
                    st.dvar[t] =
                        cur[t] * st.eps[t] / (2.0f * st.sd[t]);

                // dMu / dMuBias straight off dy.
                ak::GemmF32Args ga;
                ga.a = cur;
                ga.lda = st.out;
                ga.b = x;
                ga.ldb = st.in;
                ga.c = g.muWeight.data().data();
                ga.ldc = st.in;
                ga.m = batch;
                ga.n = st.out;
                ga.k = st.in;
                ga.colSums = g.muBias.data();
                shardRows(pool, st.out,
                          [&](std::size_t lo, std::size_t hi) {
                              ak::GemmF32Args part = ga;
                              part.a = ga.a + lo;
                              part.c = ga.c + lo * ga.ldc;
                              part.colSums = ga.colSums + lo;
                              part.n = hi - lo;
                              ops.gemmAtBF32(part);
                          });

                // dVar contracted against x^2, then chained to rho.
                std::fill(st.gw.begin(), st.gw.begin() + w, 0.0f);
                std::fill(st.gbScratch.begin(), st.gbScratch.end(),
                          0.0f);
                ak::GemmF32Args gb = ga;
                gb.a = st.dvar.data();
                gb.b = st.xsq.data();
                gb.c = st.gw.data();
                gb.colSums = st.gbScratch.data();
                shardRows(pool, st.out,
                          [&](std::size_t lo, std::size_t hi) {
                              ak::GemmF32Args part = gb;
                              part.a = gb.a + lo;
                              part.c = gb.c + lo * gb.ldc;
                              part.colSums = gb.colSums + lo;
                              part.n = hi - lo;
                              ops.gemmAtBF32(part);
                          });
                float *grhoW = g.rhoWeight.data().data();
                for (std::size_t i = 0; i < w; ++i)
                    grhoW[i] += st.gw[i] * 2.0f * st.sigmaW[i] *
                        st.dSigmaW[i];
                for (std::size_t i = 0; i < st.out; ++i)
                    g.rhoBias[i] += st.gbScratch[i] * 2.0f *
                        st.sigmaB[i] * st.dSigmaB[i];

                if (l > 0) {
                    ak::GemmF32Args da;
                    da.a = cur;
                    da.lda = st.out;
                    da.b = layer.muWeight().data().data();
                    da.ldb = st.in;
                    da.c = st.dxa.data();
                    da.ldc = st.in;
                    da.m = batch;
                    da.n = st.out;
                    da.k = st.in;
                    shardRows(pool, batch,
                              [&](std::size_t lo, std::size_t hi) {
                                  ak::GemmF32Args part = da;
                                  part.a = da.a + lo * da.lda;
                                  part.c = da.c + lo * da.ldc;
                                  part.m = hi - lo;
                                  ops.gemmABF32(part);
                              });
                    ak::GemmF32Args db = da;
                    db.a = st.dvar.data();
                    db.b = st.sigmaSqW.data();
                    db.c = st.dxb.data();
                    shardRows(pool, batch,
                              [&](std::size_t lo, std::size_t hi) {
                                  ak::GemmF32Args part = db;
                                  part.a = db.a + lo * db.lda;
                                  part.c = db.c + lo * db.ldc;
                                  part.m = hi - lo;
                                  ops.gemmABF32(part);
                              });
                    const float *prev_pre = layers[l - 1].pre.data();
                    for (std::size_t t = 0; t < batch * st.in; ++t) {
                        const float d =
                            st.dxa[t] + st.dxb[t] * 2.0f * x[t];
                        prev[t] = prev_pre[t] > 0.0f ? d : 0.0f;
                    }
                }
            } else {
                // Raw dW = dy^T x (+ column sums for the bias grad).
                std::fill(st.gw.begin(), st.gw.begin() + w, 0.0f);
                std::fill(st.gbScratch.begin(), st.gbScratch.end(),
                          0.0f);
                ak::GemmF32Args ga;
                ga.a = cur;
                ga.lda = st.out;
                ga.b = x;
                ga.ldb = st.in;
                ga.c = st.gw.data();
                ga.ldc = st.in;
                ga.m = batch;
                ga.n = st.out;
                ga.k = st.in;
                ga.colSums = st.gbScratch.data();
                shardRows(pool, st.out,
                          [&](std::size_t lo, std::size_t hi) {
                              ak::GemmF32Args part = ga;
                              part.a = ga.a + lo;
                              part.c = ga.c + lo * ga.ldc;
                              part.colSums = ga.colSums + lo;
                              part.n = hi - lo;
                              ops.gemmAtBF32(part);
                          });
                float *gmuW = g.muWeight.data().data();
                float *grhoW = g.rhoWeight.data().data();
                for (std::size_t i = 0; i < w; ++i) {
                    // Straight-through in QAT: the quantizers pass the
                    // gradient to the underlying mu/rho unchanged.
                    gmuW[i] += st.gw[i];
                    grhoW[i] += st.gw[i] * st.epsW[i] * st.dSigmaW[i];
                }
                for (std::size_t i = 0; i < st.out; ++i) {
                    g.muBias[i] += st.gbScratch[i];
                    if (!cfg.quantizeAware)
                        g.rhoBias[i] += st.gbScratch[i] * st.epsB[i] *
                            st.dSigmaB[i];
                    // QAT: the datapath bias is deterministic (mu
                    // only), so rhoBias sees no data gradient.
                }

                if (l > 0) {
                    ak::GemmF32Args da;
                    da.a = cur;
                    da.lda = st.out;
                    da.b = st.wEff.data();
                    da.ldb = st.in;
                    da.c = st.dxa.data();
                    da.ldc = st.in;
                    da.m = batch;
                    da.n = st.out;
                    da.k = st.in;
                    shardRows(pool, batch,
                              [&](std::size_t lo, std::size_t hi) {
                                  ak::GemmF32Args part = da;
                                  part.a = da.a + lo * da.lda;
                                  part.c = da.c + lo * da.ldc;
                                  part.m = hi - lo;
                                  ops.gemmABF32(part);
                              });
                    const float *prev_pre = layers[l - 1].pre.data();
                    for (std::size_t t = 0; t < batch * st.in; ++t)
                        prev[t] =
                            prev_pre[t] > 0.0f ? st.dxa[t] : 0.0f;
                }
            }
            std::swap(cur, prev);
        }
    }
};

BnnBatchTrainer::BnnBatchTrainer(BayesianMlp &net,
                                 const BnnBatchedTrainConfig &config)
    : impl_(std::make_unique<Impl>(net, config))
{
}

BnnBatchTrainer::~BnnBatchTrainer() = default;

void
BnnBatchTrainer::refreshParams()
{
    impl_->refreshParams();
}

void
BnnBatchTrainer::zeroGrads()
{
    for (auto &g : impl_->grads)
        g.zero();
}

double
BnnBatchTrainer::forwardBackward(const nn::DataView &data,
                                 const std::size_t *indices,
                                 std::size_t batch, Rng *host_rng)
{
    VIBNN_ASSERT(batch > 0, "empty minibatch");
    const double loss = impl_->forward(data, indices, batch, host_rng,
                                       /*redraw=*/true,
                                       /*want_delta=*/true);
    impl_->backward(batch);
    return loss;
}

double
BnnBatchTrainer::forwardLoss(const nn::DataView &data,
                             const std::size_t *indices,
                             std::size_t batch)
{
    VIBNN_ASSERT(batch > 0, "empty minibatch");
    return impl_->forward(data, indices, batch, nullptr,
                          /*redraw=*/false, /*want_delta=*/false);
}

double
BnnBatchTrainer::applyKlAndStep(std::size_t batch,
                                std::size_t dataset_size)
{
    Impl &im = *impl_;
    const float kl_scale = im.cfg.klWeight * static_cast<float>(batch) /
        static_cast<float>(dataset_size);
    const ak::KlArgs kl_args = ak::klArgs(im.cfg.priorSigma, kl_scale);
    double kl = 0.0;
    const auto &ls = im.net.layers();
    for (std::size_t l = 0; l < ls.size(); ++l) {
        const Impl::Layer &st = im.layers[l];
        VariationalGradients &g = im.grads[l];
        // One accumulator over the weights, then the biases: the
        // layer's klDivergence sum.
        double layer_kl = im.ops.klSumGrad(
            ls[l].muWeight().data().data(), st.sigmaW.data(),
            st.dSigmaW.data(), g.muWeight.data().data(),
            g.rhoWeight.data().data(), st.out * st.in, kl_args, 0.0);
        layer_kl = im.ops.klSumGrad(ls[l].muBias().data(), st.sigmaB.data(),
                                    st.dSigmaB.data(), g.muBias.data(),
                                    g.rhoBias.data(), st.out, kl_args,
                                    layer_kl);
        kl += layer_kl;
    }

    const float inv = 1.0f / static_cast<float>(batch);
    im.opt.beginStep();
    std::size_t offset = 0;
    for (const auto &seg : im.segments) {
        im.opt.stepRange(seg.params, seg.grads, seg.count, offset, inv);
        offset += seg.count;
    }
    im.refreshParams();
    return kl;
}

const std::vector<VariationalGradients> &
BnnBatchTrainer::gradients() const
{
    return impl_->grads;
}

nn::AdamOptimizer &
BnnBatchTrainer::optimizer()
{
    return impl_->opt;
}

nn::TrainHistory
trainBnnBatched(BayesianMlp &net, const nn::DataView &train,
                const BnnBatchedTrainConfig &config)
{
    VIBNN_ASSERT(train.count > 0, "empty training set");
    VIBNN_ASSERT(train.dim == net.inputDim(), "feature dim mismatch");

    BnnBatchedTrainConfig cfg = config;
    if (cfg.quantizeAware)
        cfg.estimator = BnnEstimator::DirectWeightSample;

    nn::TrainHistory history;
    BnnBatchTrainer engine(net, cfg);
    Rng rng(cfg.seed);
    std::vector<std::size_t> order(train.count);
    std::iota(order.begin(), order.end(), 0);

    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        rng.shuffle(order);
        double epoch_loss = 0.0;
        std::size_t seen = 0;

        for (std::size_t start = 0; start < train.count;
             start += cfg.batchSize) {
            const std::size_t end =
                std::min(start + cfg.batchSize, train.count);
            const std::size_t batch = end - start;
            engine.zeroGrads();
            epoch_loss += engine.forwardBackward(
                train, order.data() + start, batch,
                cfg.hostRngEps ? &rng : nullptr);
            const double kl = engine.applyKlAndStep(batch, train.count);
            epoch_loss += kl * batch / train.count;
            seen += batch;
        }

        const double mean_loss = epoch_loss / static_cast<double>(seen);
        history.trainLoss.push_back(mean_loss);
        double acc = -1.0;
        if (cfg.evalSet) {
            acc = evaluateBnnAccuracy(net, *cfg.evalSet,
                                      cfg.evalSamples,
                                      cfg.seed + 977 + epoch, cfg.pool);
        }
        history.evalAccuracy.push_back(acc);
        if (cfg.onEpoch)
            cfg.onEpoch(epoch, mean_loss, acc);
    }
    return history;
}

nn::TrainHistory
qatFineTune(BayesianMlp &net, const nn::DataView &train,
            BnnBatchedTrainConfig config)
{
    config.quantizeAware = true;
    config.estimator = BnnEstimator::DirectWeightSample;
    return trainBnnBatched(net, train, config);
}

} // namespace vibnn::bnn
