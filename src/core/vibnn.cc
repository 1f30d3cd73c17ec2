#include "core/vibnn.hh"

#include <algorithm>

#include "accel/functional.hh"
#include "accel/simulator.hh"
#include "common/logging.hh"

namespace vibnn::core
{

VibnnSystem::VibnnSystem(const bnn::BayesianMlp &net,
                         const accel::AcceleratorConfig &config,
                         std::string grng_id, std::uint64_t seed)
    : net_(std::make_unique<bnn::BayesianMlp>(net)), config_(config),
      program_(accel::compile(net, config)), grngId_(std::move(grng_id)),
      seed_(seed)
{
}

VibnnSystem::VibnnSystem(const bnn::BayesianConvNet &net,
                         const accel::AcceleratorConfig &config,
                         std::string grng_id, std::uint64_t seed)
    : cnn_(std::make_unique<bnn::BayesianConvNet>(net)), config_(config),
      program_(accel::compile(net, config)), grngId_(std::move(grng_id)),
      seed_(seed)
{
}

VibnnSystem
VibnnSystem::train(const data::Dataset &dataset,
                   const std::vector<std::size_t> &hidden,
                   const bnn::BnnTrainConfig &train_config,
                   const accel::AcceleratorConfig &accel_config,
                   const std::string &grng_id)
{
    std::vector<std::size_t> sizes;
    sizes.push_back(dataset.train.dim);
    sizes.insert(sizes.end(), hidden.begin(), hidden.end());
    sizes.push_back(static_cast<std::size_t>(dataset.train.numClasses));

    Rng init_rng(train_config.seed);
    bnn::BayesianMlp net(sizes, init_rng);
    trainBnn(net, dataset.train.view(), train_config);
    return VibnnSystem(net, accel_config, grng_id,
                       train_config.seed + 0xC0FFEE);
}

const bnn::BayesianMlp &
VibnnSystem::network() const
{
    if (!net_)
        fatal("VibnnSystem::network(): this system wraps a CNN; use "
              "convNetwork()");
    return *net_;
}

bnn::BayesianMlp &
VibnnSystem::network()
{
    if (!net_)
        fatal("VibnnSystem::network(): this system wraps a CNN; use "
              "convNetwork()");
    return *net_;
}

const bnn::BayesianConvNet &
VibnnSystem::convNetwork() const
{
    if (!cnn_)
        fatal("VibnnSystem::convNetwork(): this system wraps an MLP; "
              "use network()");
    return *cnn_;
}

double
VibnnSystem::softwareAccuracy(const nn::DataView &data,
                              std::size_t mc_samples,
                              std::uint64_t seed) const
{
    if (cnn_)
        return bnn::evaluateBcnnAccuracy(*cnn_, data, mc_samples, seed);
    return bnn::evaluateBnnAccuracy(*net_, data, mc_samples, seed);
}

double
VibnnSystem::hardwareAccuracy(const nn::DataView &data) const
{
    auto generator = grng::makeGenerator(grngId_, seed_);
    accel::FunctionalRunner runner(program_, config_, generator.get());
    if (data.count == 0)
        return 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.count; ++i) {
        if (runner.classify(data.sample(i)) ==
            static_cast<std::size_t>(data.labels[i])) {
            ++correct;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(data.count);
}

std::unique_ptr<serve::InferenceSession>
VibnnSystem::makeSession(const serve::SessionOptions &options) const
{
    // An unset grngId/seed in the options inherits this system's
    // (Builder::system() semantics); explicit values win.
    return serve::InferenceSession::Builder()
        .system(*this)
        .options(options)
        .build();
}

std::vector<std::size_t>
VibnnSystem::classifyBatch(const nn::DataView &data, std::size_t threads,
                           float *probs, ExecMode mode) const
{
    if (data.count == 0)
        return {};
    serve::SessionOptions opts;
    opts.threads = threads;
    opts.mode = mode;
    // The facade reports classes + probs only: no top-k, and no
    // per-sample distributions materialized.
    opts.topK = 0;
    opts.uncertainty = false;
    auto session = makeSession(opts);
    const auto result =
        session->run(serve::InferenceRequest::borrow(data));
    if (probs) {
        const std::size_t out_dim = program_.outputDim();
        for (std::size_t i = 0; i < result.predictions.size(); ++i) {
            const auto &p = result.predictions[i].probs;
            std::copy(p.begin(), p.end(), probs + i * out_dim);
        }
    }
    return result.predictedClasses();
}

double
VibnnSystem::hardwareAccuracyBatched(const nn::DataView &data,
                                     std::size_t threads,
                                     ExecMode mode) const
{
    if (data.count == 0)
        return 0.0;
    const auto predictions = classifyBatch(data, threads, nullptr, mode);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.count; ++i) {
        if (predictions[i] == static_cast<std::size_t>(data.labels[i]))
            ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(data.count);
}

accel::CycleStats
VibnnSystem::simulateTiming(const nn::DataView &data,
                            std::size_t images) const
{
    VIBNN_ASSERT(data.count > 0, "need at least one image");
    auto generator = grng::makeGenerator(grngId_, seed_);
    accel::Simulator sim(program_, config_, generator.get());
    for (std::size_t i = 0; i < images; ++i)
        sim.runPass(data.sample(i % data.count));
    return sim.stats();
}

std::unique_ptr<accel::Executor>
VibnnSystem::makeExecutor(const std::string &id) const
{
    return accel::makeExecutor(id, program_, config_,
                               grng::makeGenerator(grngId_, seed_));
}

hw::DesignEstimate
VibnnSystem::resourceEstimate() const
{
    hw::NetworkHwConfig hw_config;
    hw_config.layerSizes.clear();
    // Activation-window chain (reporting) plus direct WPMem/IFMem
    // sizing from the program: conv banks hold outChannels * patchSize
    // parameters — far fewer than a dense map-to-map matrix — and the
    // IFMem must hold the widest window any op stages.
    hw_config.layerSizes.push_back(
        static_cast<int>(program_.inputDim()));
    std::int64_t params = 0;
    std::size_t widest = program_.inputDim();
    for (const auto &op : program_.ops) {
        widest = std::max({widest, op.inSize, op.outSize});
        if (op.kind == accel::OpKind::ConvLowered)
            widest = std::max(widest, op.conv.patchSize());
        if (!op.isCompute())
            continue;
        hw_config.layerSizes.push_back(static_cast<int>(op.outSize));
        params += static_cast<std::int64_t>(op.bank.inDim) *
                op.bank.outDim +
            op.bank.outDim;
    }
    hw_config.paramCountOverride = params;
    hw_config.widestActivationOverride = static_cast<int>(widest);
    hw_config.peSets = config_.peSets;
    hw_config.pesPerSet = config_.pesPerSet;
    hw_config.peInputs = config_.peInputs();
    hw_config.bits = config_.bits;
    hw_config.grng = grngId_ == "bnnwallace" ? hw::GrngKind::BnnWallace
                                             : hw::GrngKind::Rlf;
    return networkEstimate(hw_config);
}

hw::PerformanceModel
VibnnSystem::performance(double cycles_per_image) const
{
    return performanceFromCycles(resourceEstimate(), cycles_per_image);
}

} // namespace vibnn::core
