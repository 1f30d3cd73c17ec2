#include "accel/executor.hh"

#include "accel/batched_runner.hh"
#include "accel/functional.hh"
#include "accel/simulator.hh"
#include "common/logging.hh"
#include "nn/activations.hh"
#include "stats/sequential_test.hh"

namespace vibnn::accel
{

double
CycleStats::utilization(int total_pes, int pe_inputs) const
{
    if (totalCycles == 0)
        return 0.0;
    const double peak = static_cast<double>(totalCycles) * total_pes *
        pe_inputs;
    return static_cast<double>(macs) / peak;
}

double
CycleStats::cyclesPerPass() const
{
    if (images == 0)
        return 0.0;
    return static_cast<double>(totalCycles) /
        static_cast<double>(images);
}

CycleStats &
CycleStats::operator+=(const CycleStats &other)
{
    totalCycles += other.totalCycles;
    if (opCycles.size() < other.opCycles.size())
        opCycles.resize(other.opCycles.size(), 0);
    for (std::size_t i = 0; i < other.opCycles.size(); ++i)
        opCycles[i] += other.opCycles[i];
    ifmemReads += other.ifmemReads;
    ifmemWrites += other.ifmemWrites;
    wpmemReads += other.wpmemReads;
    grnSamples += other.grnSamples;
    macs += other.macs;
    images += other.images;
    return *this;
}

std::size_t
Executor::classify(const float *x, float *probs)
{
    stats::SequentialPosteriorTest ensemble(program().outputDim());
    std::vector<float> sample(program().outputDim());
    for (int s = 0; s < config().mcSamples; ++s) {
        sampleSoftmax(program(), runPass(x).data(), sample.data());
        ensemble.add(sample.data());
    }
    if (probs)
        ensemble.mean(probs);
    return ensemble.predicted();
}

void
sampleSoftmax(const QuantizedProgram &program, const std::int64_t *raw,
              float *probs)
{
    const std::size_t out_dim = program.outputDim();
    const auto &act = program.activationFormat;
    for (std::size_t i = 0; i < out_dim; ++i)
        probs[i] = static_cast<float>(act.toReal(raw[i]));
    nn::softmax(probs, out_dim);
}

namespace
{

/** Backend subclass owning its eps stream: inherits every override of
 *  `Backend`, so nothing is forwarded (or forgotten). */
template <typename Backend>
std::unique_ptr<Executor>
makeOwning(const QuantizedProgram &program,
           const AcceleratorConfig &config,
           std::unique_ptr<grng::GaussianGenerator> generator)
{
    struct Owning : Backend
    {
        Owning(const QuantizedProgram &p, const AcceleratorConfig &c,
               std::unique_ptr<grng::GaussianGenerator> g)
            : Backend(p, c, g.get()), owned(std::move(g))
        {
        }
        std::unique_ptr<grng::GaussianGenerator> owned;
    };
    return std::make_unique<Owning>(program, config,
                                    std::move(generator));
}

template <typename Backend>
std::unique_ptr<Executor>
makeBorrowing(const QuantizedProgram &program,
              const AcceleratorConfig &config,
              grng::GaussianGenerator *generator)
{
    return std::make_unique<Backend>(program, config, generator);
}

/** The one registry row per backend — id and both construction
 *  styles. Every public registry function derives from this table, so
 *  a new backend is exactly one added row. */
struct BackendEntry
{
    const char *id;
    std::unique_ptr<Executor> (*make)(const QuantizedProgram &,
                                      const AcceleratorConfig &,
                                      grng::GaussianGenerator *);
    std::unique_ptr<Executor> (*makeOwningStream)(
        const QuantizedProgram &, const AcceleratorConfig &,
        std::unique_ptr<grng::GaussianGenerator>);
};

const BackendEntry kBackends[] = {
    {"simulator", &makeBorrowing<Simulator>, &makeOwning<Simulator>},
    {"functional", &makeBorrowing<FunctionalRunner>,
     &makeOwning<FunctionalRunner>},
    {"batched", &makeBorrowing<BatchedRunner>, &makeOwning<BatchedRunner>},
};

/** The entry for `id`, or fatal() with the registered ids listed. */
const BackendEntry &
findBackend(const std::string &id)
{
    for (const auto &entry : kBackends) {
        if (id == entry.id)
            return entry;
    }
    fatal("unknown executor id '" + id + "' (registered: " +
          joinStrings(registeredExecutorIds()) + ")");
}

} // namespace

void
requireExecutorId(const std::string &id)
{
    findBackend(id);
}

std::unique_ptr<Executor>
makeExecutor(const std::string &id, const QuantizedProgram &program,
             const AcceleratorConfig &config,
             grng::GaussianGenerator *generator)
{
    return findBackend(id).make(program, config, generator);
}

std::unique_ptr<Executor>
makeExecutor(const std::string &id, const QuantizedProgram &program,
             const AcceleratorConfig &config,
             std::unique_ptr<grng::GaussianGenerator> generator)
{
    return findBackend(id).makeOwningStream(program, config,
                                            std::move(generator));
}

std::vector<std::string>
registeredExecutorIds()
{
    std::vector<std::string> ids;
    for (const auto &entry : kBackends)
        ids.emplace_back(entry.id);
    return ids;
}

} // namespace vibnn::accel
