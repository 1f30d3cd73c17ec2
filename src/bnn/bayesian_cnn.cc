/**
 * @file
 * Bayesian convolutional network assembly and trainer (see
 * bayesian_cnn.hh).
 */

#include "bnn/bayesian_cnn.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "nn/activations.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "nn/uncertainty.hh"

namespace vibnn::bnn
{

namespace
{

/** Placeholder eps source for forward modes that never sample. */
struct NullEps
{
    double operator()() const { return 0.0; }
};

} // namespace

BayesianConvNet::BayesianConvNet(const nn::ConvNetConfig &config, Rng &rng,
                                 float rho_init)
    : config_(config)
{
    std::size_t channels = config.inChannels;
    std::size_t height = config.imageHeight;
    std::size_t width = config.imageWidth;

    for (const auto &block : config.blocks) {
        nn::ConvSpec spec;
        spec.inChannels = channels;
        spec.inHeight = height;
        spec.inWidth = width;
        spec.outChannels = block.outChannels;
        spec.kernel = block.kernel;
        spec.stride = block.stride;
        spec.pad = block.pad;
        VIBNN_ASSERT(spec.valid(), "invalid conv block geometry");

        stages_.push_back(Stage::Conv);
        stageIndex_.push_back(convs_.size());
        stageOutSize_.push_back(spec.outputSize());
        stageRelu_.push_back(true);
        convs_.emplace_back(spec, rng, rho_init);

        channels = spec.outChannels;
        height = spec.outHeight();
        width = spec.outWidth();

        if (block.pool) {
            nn::PoolSpec pool;
            pool.channels = channels;
            pool.inHeight = height;
            pool.inWidth = width;
            pool.window = block.poolWindow;
            pool.stride = block.poolWindow;
            VIBNN_ASSERT(pool.valid(), "invalid pool geometry");

            stages_.push_back(Stage::Pool);
            stageIndex_.push_back(pools_.size());
            stageOutSize_.push_back(pool.outputSize());
            stageRelu_.push_back(false);
            pools_.emplace_back(pool);

            height = pool.outHeight();
            width = pool.outWidth();
        }
    }

    std::size_t flat = channels * height * width;
    for (std::size_t hidden : config.denseHidden) {
        stages_.push_back(Stage::Dense);
        stageIndex_.push_back(dense_.size());
        stageOutSize_.push_back(hidden);
        stageRelu_.push_back(true);
        dense_.emplace_back(flat, hidden, rng, rho_init);
        flat = hidden;
    }
    stages_.push_back(Stage::Dense);
    stageIndex_.push_back(dense_.size());
    stageOutSize_.push_back(config.numClasses);
    stageRelu_.push_back(false);
    dense_.emplace_back(flat, config.numClasses, rng, rho_init);
}

std::size_t
BayesianConvNet::inputDim() const
{
    return config_.inChannels * config_.imageHeight * config_.imageWidth;
}

BcnnWorkspace
BayesianConvNet::makeWorkspace() const
{
    BcnnWorkspace ws;
    ws.buffers.resize(stages_.size() + 1);
    ws.buffers[0].resize(inputDim());
    ws.preActs.resize(stages_.size());
    std::size_t widest = inputDim();
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        ws.buffers[s + 1].resize(stageOutSize_[s]);
        if (stageRelu_[s])
            ws.preActs[s].resize(stageOutSize_[s]);
        widest = std::max(widest, stageOutSize_[s]);
    }
    ws.convScratch.resize(convs_.size());
    for (std::size_t i = 0; i < convs_.size(); ++i)
        convs_[i].prepareScratch(ws.convScratch[i]);
    ws.poolScratch.resize(pools_.size());
    ws.denseScratch.resize(dense_.size());
    for (std::size_t i = 0; i < dense_.size(); ++i)
        dense_[i].prepareScratch(ws.denseScratch[i]);
    ws.convGrads.resize(convs_.size());
    for (std::size_t i = 0; i < convs_.size(); ++i)
        ws.convGrads[i].resize(convs_[i].spec());
    ws.denseGrads.resize(dense_.size());
    for (std::size_t i = 0; i < dense_.size(); ++i)
        ws.denseGrads[i].resize(dense_[i].outDim(), dense_[i].inDim());
    ws.deltaA.resize(widest);
    ws.deltaB.resize(widest);
    return ws;
}

void
BayesianConvNet::zeroGrads(BcnnWorkspace &ws) const
{
    for (auto &g : ws.convGrads)
        g.zero();
    for (auto &g : ws.denseGrads)
        g.zero();
    ws.lossSum = 0.0;
    ws.sampleCount = 0;
}

void
BayesianConvNet::meanForward(const float *x, float *logits,
                             BcnnWorkspace &ws) const
{
    NullEps *none = nullptr;
    forwardImpl(x, logits, ws, ForwardMode::Mean, nullptr, none);
}

void
BayesianConvNet::backwardImpl(float *delta, float *next_delta,
                              BcnnWorkspace &ws, bool use_lrt) const
{
    for (std::size_t s = stages_.size(); s-- > 0;) {
        if (stageRelu_[s]) {
            nn::reluBackward(ws.preActs[s].data(), delta, delta,
                             stageOutSize_[s]);
        }
        const float *in = ws.buffers[s].data();
        const bool want_dx = s > 0;
        const std::size_t idx = stageIndex_[s];
        switch (stages_[s]) {
          case Stage::Conv:
            if (use_lrt) {
                convs_[idx].lrtBackward(delta, ws.convScratch[idx],
                                        ws.convGrads[idx],
                                        want_dx ? next_delta : nullptr);
            } else {
                convs_[idx].sampleBackward(delta, ws.convScratch[idx],
                                           ws.convGrads[idx],
                                           want_dx ? next_delta : nullptr);
            }
            break;
          case Stage::Pool:
            pools_[idx].backward(delta, ws.poolScratch[idx], next_delta);
            break;
          case Stage::Dense:
            if (use_lrt) {
                dense_[idx].lrtBackward(in, delta, ws.denseScratch[idx],
                                        ws.denseGrads[idx],
                                        want_dx ? next_delta : nullptr);
            } else {
                dense_[idx].sampleBackward(
                    in, delta, ws.denseScratch[idx], ws.denseGrads[idx],
                    want_dx ? next_delta : nullptr);
            }
            break;
        }
        std::swap(delta, next_delta);
    }
}

double
BayesianConvNet::trainSample(const float *x, std::size_t target,
                             BcnnWorkspace &ws, Rng &rng, bool use_lrt)
{
    std::vector<float> logits(outputDim());
    if (use_lrt) {
        NullEps *none = nullptr;
        forwardImpl(x, logits.data(), ws, ForwardMode::Lrt, &rng, none);
    } else {
        auto eps = [&rng]() { return rng.gaussian(); };
        forwardImpl(x, logits.data(), ws, ForwardMode::Direct, nullptr,
                    &eps);
    }

    float *delta = ws.deltaA.data();
    const double loss = nn::softmaxCrossEntropy(logits.data(), outputDim(),
                                                target, delta);
    ws.lossSum += loss;
    ws.sampleCount += 1;
    backwardImpl(delta, ws.deltaB.data(), ws, use_lrt);
    return loss;
}

double
BayesianConvNet::accumulateKl(BcnnWorkspace &ws, float prior_sigma,
                              float scale) const
{
    double kl = 0.0;
    for (std::size_t i = 0; i < convs_.size(); ++i)
        kl += convs_[i].klValueAndGrad(prior_sigma, scale, ws.convGrads[i]);
    for (std::size_t i = 0; i < dense_.size(); ++i)
        kl += dense_[i].klValueAndGrad(prior_sigma, scale, ws.denseGrads[i]);
    return kl;
}

double
BayesianConvNet::klDivergence(float prior_sigma) const
{
    double kl = 0.0;
    for (const auto &c : convs_)
        kl += c.klDivergence(prior_sigma);
    for (const auto &d : dense_)
        kl += d.klDivergence(prior_sigma);
    return kl;
}

std::size_t
BayesianConvNet::mcClassify(const float *x, std::size_t num_samples,
                            BcnnWorkspace &ws, Rng &rng) const
{
    std::vector<float> probs(outputDim());
    auto eps = [&rng]() { return rng.gaussian(); };
    mcPredict(x, num_samples, probs.data(), ws, eps);
    return nn::argmax(probs.data(), probs.size());
}

double
BayesianConvNet::predictiveEntropy(const float *x,
                                   std::size_t num_samples,
                                   BcnnWorkspace &ws, Rng &rng) const
{
    std::vector<float> probs(outputDim());
    auto eps = [&rng]() { return rng.gaussian(); };
    mcPredict(x, num_samples, probs.data(), ws, eps);
    return nn::predictiveEntropy(probs.data(), probs.size());
}

std::size_t
BayesianConvNet::paramCount() const
{
    std::size_t n = 0;
    for (const auto &c : convs_)
        n += c.paramCount();
    for (const auto &d : dense_) {
        n += 2 * (d.muWeight().size() + d.muBias().size());
    }
    return n;
}

void
BayesianConvNet::gatherParams(std::vector<float> &flat) const
{
    flat.clear();
    flat.reserve(paramCount());
    auto block = [&](const nn::Matrix &w, const std::vector<float> &b) {
        flat.insert(flat.end(), w.data().begin(), w.data().end());
        flat.insert(flat.end(), b.begin(), b.end());
    };
    for (const auto &c : convs_) {
        block(c.muWeight(), c.muBias());
        block(c.rhoWeight(), c.rhoBias());
    }
    for (const auto &d : dense_) {
        block(d.muWeight(), d.muBias());
        block(d.rhoWeight(), d.rhoBias());
    }
}

void
BayesianConvNet::scatterParams(const std::vector<float> &flat)
{
    VIBNN_ASSERT(flat.size() == paramCount(), "parameter size mismatch");
    std::size_t at = 0;
    auto take = [&](float *dst, std::size_t n) {
        std::copy(flat.begin() + at, flat.begin() + at + n, dst);
        at += n;
    };
    auto block = [&](nn::Matrix &w, std::vector<float> &b) {
        take(w.data().data(), w.size());
        take(b.data(), b.size());
    };
    for (auto &c : convs_) {
        block(c.muWeight(), c.muBias());
        block(c.rhoWeight(), c.rhoBias());
    }
    for (auto &d : dense_) {
        block(d.muWeight(), d.muBias());
        block(d.rhoWeight(), d.rhoBias());
    }
}

void
BayesianConvNet::gatherGrads(const BcnnWorkspace &ws,
                             std::vector<float> &flat) const
{
    const float inv =
        ws.sampleCount > 0 ? 1.0f / static_cast<float>(ws.sampleCount)
                           : 0.0f;
    flat.clear();
    flat.reserve(paramCount());
    auto append = [&](const float *src, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            flat.push_back(src[i] * inv);
    };
    for (std::size_t i = 0; i < convs_.size(); ++i) {
        const auto &g = ws.convGrads[i];
        append(g.muWeight.data().data(), g.muWeight.size());
        append(g.muBias.data(), g.muBias.size());
        append(g.rhoWeight.data().data(), g.rhoWeight.size());
        append(g.rhoBias.data(), g.rhoBias.size());
    }
    for (std::size_t i = 0; i < dense_.size(); ++i) {
        const auto &g = ws.denseGrads[i];
        append(g.muWeight.data().data(), g.muWeight.size());
        append(g.muBias.data(), g.muBias.size());
        append(g.rhoWeight.data().data(), g.rhoWeight.size());
        append(g.rhoBias.data(), g.rhoBias.size());
    }
}

void
BayesianConvNet::softmaxInPlace(float *values, std::size_t count)
{
    nn::softmax(values, count);
}

double
evaluateBcnnAccuracy(const BayesianConvNet &net, const nn::DataView &data,
                     std::size_t mc_samples, std::uint64_t seed)
{
    if (data.count == 0)
        return 0.0;
    Rng rng(seed);
    BcnnWorkspace ws = net.makeWorkspace();
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.count; ++i) {
        if (net.mcClassify(data.sample(i), mc_samples, ws, rng) ==
            static_cast<std::size_t>(data.labels[i])) {
            ++correct;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(data.count);
}

nn::TrainHistory
trainBcnn(BayesianConvNet &net, const nn::DataView &train,
          const BnnTrainConfig &config)
{
    VIBNN_ASSERT(train.count > 0, "empty training set");
    VIBNN_ASSERT(train.dim == net.inputDim(), "feature dim mismatch");

    nn::TrainHistory history;
    Rng rng(config.seed);
    nn::AdamOptimizer optimizer(config.learningRate);

    BcnnWorkspace ws = net.makeWorkspace();
    std::vector<float> params, grads;
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

            // Same KL minibatch weighting as trainBnn: gatherGrads
            // divides by the batch sample count, so pre-scale by
            // batch/N to land at KL/N overall.
            const float kl_scale = config.klWeight *
                static_cast<float>(batch) /
                static_cast<float>(train.count);
            const double kl =
                net.accumulateKl(ws, config.priorSigma, kl_scale);
            epoch_loss += kl * batch / train.count;

            net.gatherGrads(ws, grads);
            net.gatherParams(params);
            optimizer.step(params.data(), grads.data(), params.size());
            net.scatterParams(params);
        }

        const double mean_loss = epoch_loss / static_cast<double>(seen);
        history.trainLoss.push_back(mean_loss);
        double acc = -1.0;
        if (config.evalSet) {
            acc = evaluateBcnnAccuracy(net, *config.evalSet,
                                       config.evalSamples,
                                       config.seed + 977 + epoch);
        }
        history.evalAccuracy.push_back(acc);
        if (config.onEpoch)
            config.onEpoch(epoch, mean_loss, acc);
    }
    return history;
}

} // namespace vibnn::bnn
