/**
 * @file
 * Bayesian RNN kernels and trainer (see bayesian_rnn.hh).
 */

#include "bnn/bayesian_rnn.hh"

#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "nn/activations.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"

namespace vibnn::bnn
{

BayesianRnn::BayesianRnn(const nn::RnnConfig &config, Rng &rng,
                         float rho_init)
    : config_(config),
      wx_(config.hiddenDim, config.inputDim, rng,
          std::sqrt(6.0f / static_cast<float>(config.inputDim)),
          rho_init),
      wh_(config.hiddenDim, config.hiddenDim, rng,
          0.5f / std::sqrt(static_cast<float>(config.hiddenDim)),
          rho_init),
      wy_(config.numClasses, config.hiddenDim, rng,
          std::sqrt(6.0f / static_cast<float>(config.hiddenDim)),
          rho_init),
      bh_(config.hiddenDim, 1, rng, 0.0f, rho_init),
      by_(config.numClasses, 1, rng, 0.0f, rho_init)
{
    VIBNN_ASSERT(config.inputDim > 0 && config.hiddenDim > 0 &&
                     config.numClasses > 0 && config.seqLen > 0,
                 "degenerate RNN geometry");
}

BrnnWorkspace
BayesianRnn::makeWorkspace() const
{
    BrnnWorkspace ws;
    ws.hidden.assign(config_.seqLen,
                     std::vector<float>(config_.hiddenDim, 0.0f));
    ws.deltaH.resize(config_.hiddenDim);
    ws.deltaPre.resize(config_.hiddenDim);

    auto shape = [](nn::Matrix &m, const VariationalMatrix &block) {
        m = nn::Matrix(block.rows(), block.cols());
    };
    shape(ws.dWx, wx_);
    shape(ws.dWh, wh_);
    shape(ws.dWy, wy_);
    shape(ws.dBh, bh_);
    shape(ws.dBy, by_);
    shape(ws.gMuWx, wx_);
    shape(ws.gRhoWx, wx_);
    shape(ws.gMuWh, wh_);
    shape(ws.gRhoWh, wh_);
    shape(ws.gMuWy, wy_);
    shape(ws.gRhoWy, wy_);
    shape(ws.gMuBh, bh_);
    shape(ws.gRhoBh, bh_);
    shape(ws.gMuBy, by_);
    shape(ws.gRhoBy, by_);
    return ws;
}

void
BayesianRnn::zeroGrads(BrnnWorkspace &ws) const
{
    for (auto *m : {&ws.gMuWx, &ws.gRhoWx, &ws.gMuWh, &ws.gRhoWh,
                    &ws.gMuWy, &ws.gRhoWy, &ws.gMuBh, &ws.gRhoBh,
                    &ws.gMuBy, &ws.gRhoBy})
        m->fill(0.0f);
    ws.lossSum = 0.0;
    ws.sampleCount = 0;
}

void
BayesianRnn::runForward(const float *xs, float *logits,
                        BrnnWorkspace &ws) const
{
    const std::size_t h_dim = config_.hiddenDim;
    for (std::size_t t = 0; t < config_.seqLen; ++t) {
        const float *x = xs + t * config_.inputDim;
        const std::vector<float> *prev =
            t > 0 ? &ws.hidden[t - 1] : nullptr;
        auto &h = ws.hidden[t];
        for (std::size_t i = 0; i < h_dim; ++i) {
            float acc = ws.bh.at(i, 0);
            const float *wx_row = ws.wx.row(i);
            for (std::size_t j = 0; j < config_.inputDim; ++j)
                acc += wx_row[j] * x[j];
            if (prev) {
                const float *wh_row = ws.wh.row(i);
                for (std::size_t j = 0; j < h_dim; ++j)
                    acc += wh_row[j] * (*prev)[j];
            }
            h[i] = std::tanh(acc);
        }
    }
    const auto &h_last = ws.hidden.back();
    for (std::size_t c = 0; c < config_.numClasses; ++c) {
        float acc = ws.by.at(c, 0);
        const float *wy_row = ws.wy.row(c);
        for (std::size_t j = 0; j < h_dim; ++j)
            acc += wy_row[j] * h_last[j];
        logits[c] = acc;
    }
}

void
BayesianRnn::meanForward(const float *xs, float *logits,
                         BrnnWorkspace &ws) const
{
    wx_.meanInto(ws.wx);
    wh_.meanInto(ws.wh);
    wy_.meanInto(ws.wy);
    bh_.meanInto(ws.bh);
    by_.meanInto(ws.by);
    runForward(xs, logits, ws);
}

double
BayesianRnn::trainSequence(const float *xs, std::size_t target,
                           BrnnWorkspace &ws, Rng &rng)
{
    std::vector<float> logits(config_.numClasses);
    auto eps = [&rng]() { return rng.gaussian(); };
    sampledForward(xs, logits.data(), ws, eps);

    std::vector<float> dy(config_.numClasses);
    const double loss = nn::softmaxCrossEntropy(
        logits.data(), config_.numClasses, target, dy.data());
    ws.lossSum += loss;
    ws.sampleCount += 1;

    // BPTT through the *sampled* weights, into dW buffers.
    for (auto *m : {&ws.dWx, &ws.dWh, &ws.dWy, &ws.dBh, &ws.dBy})
        m->fill(0.0f);

    const std::size_t h_dim = config_.hiddenDim;
    const auto &h_last = ws.hidden.back();
    for (std::size_t c = 0; c < config_.numClasses; ++c) {
        ws.dBy.at(c, 0) += dy[c];
        float *gy = ws.dWy.row(c);
        for (std::size_t j = 0; j < h_dim; ++j)
            gy[j] += dy[c] * h_last[j];
    }
    nn::matTVec(ws.wy, dy.data(), ws.deltaH.data());

    for (std::size_t t = config_.seqLen; t-- > 0;) {
        const auto &h = ws.hidden[t];
        const float *x = xs + t * config_.inputDim;
        for (std::size_t i = 0; i < h_dim; ++i)
            ws.deltaPre[i] = ws.deltaH[i] * (1.0f - h[i] * h[i]);

        for (std::size_t i = 0; i < h_dim; ++i) {
            const float g = ws.deltaPre[i];
            if (g == 0.0f)
                continue;
            ws.dBh.at(i, 0) += g;
            float *gx = ws.dWx.row(i);
            for (std::size_t j = 0; j < config_.inputDim; ++j)
                gx[j] += g * x[j];
            if (t > 0) {
                const auto &prev = ws.hidden[t - 1];
                float *gh = ws.dWh.row(i);
                for (std::size_t j = 0; j < h_dim; ++j)
                    gh[j] += g * prev[j];
            }
        }
        if (t > 0)
            nn::matTVec(ws.wh, ws.deltaPre.data(), ws.deltaH.data());
    }

    // Chain rule into parameter space.
    wx_.accumulateSampleGrad(ws.dWx, ws.epsWx, ws.gMuWx, ws.gRhoWx);
    wh_.accumulateSampleGrad(ws.dWh, ws.epsWh, ws.gMuWh, ws.gRhoWh);
    wy_.accumulateSampleGrad(ws.dWy, ws.epsWy, ws.gMuWy, ws.gRhoWy);
    bh_.accumulateSampleGrad(ws.dBh, ws.epsBh, ws.gMuBh, ws.gRhoBh);
    by_.accumulateSampleGrad(ws.dBy, ws.epsBy, ws.gMuBy, ws.gRhoBy);
    return loss;
}

std::size_t
BayesianRnn::mcClassify(const float *xs, std::size_t num_samples,
                        BrnnWorkspace &ws, Rng &rng) const
{
    std::vector<float> probs(outputDim());
    auto eps = [&rng]() { return rng.gaussian(); };
    mcPredict(xs, num_samples, probs.data(), ws, eps);
    return nn::argmax(probs.data(), probs.size());
}

double
BayesianRnn::klDivergence(float prior_sigma) const
{
    return wx_.klDivergence(prior_sigma) + wh_.klDivergence(prior_sigma) +
        wy_.klDivergence(prior_sigma) + bh_.klDivergence(prior_sigma) +
        by_.klDivergence(prior_sigma);
}

double
BayesianRnn::accumulateKl(BrnnWorkspace &ws, float prior_sigma,
                          float scale) const
{
    // Summed in klDivergence's order.
    double kl = wx_.klValueAndGrad(prior_sigma, scale, ws.gMuWx, ws.gRhoWx);
    kl += wh_.klValueAndGrad(prior_sigma, scale, ws.gMuWh, ws.gRhoWh);
    kl += wy_.klValueAndGrad(prior_sigma, scale, ws.gMuWy, ws.gRhoWy);
    kl += bh_.klValueAndGrad(prior_sigma, scale, ws.gMuBh, ws.gRhoBh);
    kl += by_.klValueAndGrad(prior_sigma, scale, ws.gMuBy, ws.gRhoBy);
    return kl;
}

std::size_t
BayesianRnn::paramCount() const
{
    return 2 * (wx_.count() + wh_.count() + wy_.count() + bh_.count() +
                by_.count());
}

void
BayesianRnn::gatherParams(std::vector<float> &flat) const
{
    flat.clear();
    flat.reserve(paramCount());
    for (const auto *block : {&wx_, &wh_, &wy_, &bh_, &by_}) {
        flat.insert(flat.end(), block->mu().data().begin(),
                    block->mu().data().end());
        flat.insert(flat.end(), block->rho().data().begin(),
                    block->rho().data().end());
    }
}

void
BayesianRnn::scatterParams(const std::vector<float> &flat)
{
    VIBNN_ASSERT(flat.size() == paramCount(), "parameter size mismatch");
    std::size_t at = 0;
    auto take = [&](std::vector<float> &dst) {
        std::copy(flat.begin() + at,
                  flat.begin() + at + static_cast<std::ptrdiff_t>(
                                          dst.size()),
                  dst.begin());
        at += dst.size();
    };
    for (auto *block : {&wx_, &wh_, &wy_, &bh_, &by_}) {
        take(block->mu().data());
        take(block->rho().data());
    }
}

void
BayesianRnn::gatherGrads(const BrnnWorkspace &ws,
                         std::vector<float> &flat) const
{
    const float inv =
        ws.sampleCount > 0 ? 1.0f / static_cast<float>(ws.sampleCount)
                           : 0.0f;
    flat.clear();
    flat.reserve(paramCount());
    auto append = [&](const nn::Matrix &m) {
        for (float v : m.data())
            flat.push_back(v * inv);
    };
    append(ws.gMuWx);
    append(ws.gRhoWx);
    append(ws.gMuWh);
    append(ws.gRhoWh);
    append(ws.gMuWy);
    append(ws.gRhoWy);
    append(ws.gMuBh);
    append(ws.gRhoBh);
    append(ws.gMuBy);
    append(ws.gRhoBy);
}

void
BayesianRnn::softmaxInPlace(float *values, std::size_t count)
{
    nn::softmax(values, count);
}

double
evaluateBrnnAccuracy(const BayesianRnn &net, const nn::DataView &data,
                     std::size_t mc_samples, std::uint64_t seed)
{
    if (data.count == 0)
        return 0.0;
    Rng rng(seed);
    BrnnWorkspace ws = net.makeWorkspace();
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
trainBrnn(BayesianRnn &net, const nn::DataView &train,
          const BnnTrainConfig &config)
{
    VIBNN_ASSERT(train.count > 0, "empty training set");
    VIBNN_ASSERT(train.dim == net.inputDim(), "sequence dim mismatch");

    nn::TrainHistory history;
    Rng rng(config.seed);
    nn::AdamOptimizer optimizer(config.learningRate);

    BrnnWorkspace ws = net.makeWorkspace();
    std::vector<float> params, grads;
    std::vector<std::size_t> order(train.count);
    std::iota(order.begin(), order.end(), 0);
    constexpr double clip_norm = 5.0;

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
                epoch_loss += net.trainSequence(
                    train.sample(i),
                    static_cast<std::size_t>(train.labels[i]), ws, rng);
            }
            seen += batch;

            const float kl_scale = config.klWeight *
                static_cast<float>(batch) /
                static_cast<float>(train.count);
            const double kl =
                net.accumulateKl(ws, config.priorSigma, kl_scale);
            epoch_loss += kl * batch / train.count;

            net.gatherGrads(ws, grads);
            // Clip the averaged gradient norm (recurrent nets spike).
            double norm = 0.0;
            for (float g : grads)
                norm += static_cast<double>(g) * g;
            norm = std::sqrt(norm);
            if (norm > clip_norm) {
                const float s = static_cast<float>(clip_norm / norm);
                for (auto &g : grads)
                    g *= s;
            }
            net.gatherParams(params);
            optimizer.step(params.data(), grads.data(), params.size());
            net.scatterParams(params);
        }

        const double mean_loss = epoch_loss / static_cast<double>(seen);
        history.trainLoss.push_back(mean_loss);
        double acc = -1.0;
        if (config.evalSet) {
            acc = evaluateBrnnAccuracy(net, *config.evalSet,
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
