/**
 * @file
 * Design-space exploration (see design_space.hh).
 */

#include "accel/design_space.hh"

#include <algorithm>

#include "accel/pe.hh"
#include "accel/weight_generator.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "hwmodel/cyclonev.hh"

namespace vibnn::accel
{

namespace
{

/** One bank schedule (rounds of M neurons) plus the boundary sync —
 *  the cost of a Dense op or of one ConvLowered position pass. */
std::uint64_t
bankPassCycles(std::uint64_t in, std::uint64_t out,
               const AcceleratorConfig &config)
{
    const std::uint64_t m = config.totalPes();
    const std::uint64_t s = config.pesPerSet;
    const std::uint64_t n = config.peInputs();
    constexpr std::uint64_t drain =
        WeightGenerator::pipelineDepth + Pe::pipelineDepth;

    const std::uint64_t rounds = (out + m - 1) / m;
    const std::uint64_t chunks = (in + n - 1) / n;

    std::uint64_t cycles = rounds * (chunks + drain);
    // Tail write-back: the final round's words cannot overlap the
    // next round; one cycle per PE-set that produced any neuron.
    const std::uint64_t last = out - (rounds - 1) * m;
    cycles += (last + s - 1) / s;
    cycles += 2; // boundary controller sync
    return cycles;
}

} // namespace

std::uint64_t
predictPassCycles(const std::vector<std::size_t> &layer_sizes,
                  const AcceleratorConfig &config)
{
    VIBNN_ASSERT(layer_sizes.size() >= 2, "need at least one layer");
    std::uint64_t total = 0;
    for (std::size_t li = 0; li + 1 < layer_sizes.size(); ++li)
        total += bankPassCycles(layer_sizes[li], layer_sizes[li + 1],
                                config);
    return total;
}

std::uint64_t
predictProgramCycles(const QuantizedProgram &program,
                     const AcceleratorConfig &config)
{
    const std::uint64_t n = config.peInputs();
    std::uint64_t total = 0;
    for (const auto &op : program.ops) {
        switch (op.kind) {
          case OpKind::Dense:
            total += bankPassCycles(op.bank.inDim, op.bank.outDim,
                                    config);
            break;
          case OpKind::ConvLowered:
            total += op.conv.positions() *
                bankPassCycles(op.conv.patchSize(), op.conv.outChannels,
                               config);
            break;
          case OpKind::Pool:
            // One word read + one word written per cycle through the
            // distributor, plus the boundary sync.
            total += (op.inSize + n - 1) / n + (op.outSize + n - 1) / n +
                2;
            break;
          case OpKind::Flatten:
          case OpKind::Output:
            break; // free relabeling / staging
        }
    }
    return total;
}

std::string
checkConstraints(const AcceleratorConfig &config,
                 const std::vector<std::size_t> &layer_sizes,
                 const hw::DesignEstimate *estimate)
{
    std::string violation = config.constraintViolation(layer_sizes);
    if (!violation.empty())
        return violation;

    if (estimate) {
        const auto total = estimate->total();
        using Dev = hw::CycloneVDevice;
        if (total.alms > Dev::totalAlms) {
            return strfmt("ALMs %.0f exceed device capacity %d",
                          total.alms, Dev::totalAlms);
        }
        if (total.memoryBits > Dev::totalMemoryBits) {
            return strfmt("memory bits %lld exceed device capacity %lld",
                          static_cast<long long>(total.memoryBits),
                          static_cast<long long>(Dev::totalMemoryBits));
        }
        if (total.ramBlocks > Dev::totalRamBlocks) {
            return strfmt("RAM blocks %d exceed device capacity %d",
                          total.ramBlocks, Dev::totalRamBlocks);
        }
        // DSP overflow spills multipliers into soft logic (the
        // estimate already prices that), so it is not a hard failure.
    }
    return "";
}

std::vector<DesignPoint>
exploreDesignSpace(const std::vector<std::size_t> &layer_sizes,
                   const ExplorerOptions &options)
{
    std::vector<DesignPoint> points;

    // Useful MACs of one pass, for the utilization figure.
    double useful_macs = 0.0;
    for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
        useful_macs += static_cast<double>(layer_sizes[i]) *
            static_cast<double>(layer_sizes[i + 1]);
    }

    for (int t : options.peSetChoices) {
        for (int s : options.peSizeChoices) {
            for (int b : options.bitChoices) {
                DesignPoint point;
                point.config.peSets = t;
                point.config.pesPerSet = s;
                point.config.bits = b;
                point.config.mcSamples = options.mcSamples;

                hw::NetworkHwConfig hw_cfg;
                hw_cfg.layerSizes.assign(layer_sizes.begin(),
                                         layer_sizes.end());
                hw_cfg.peSets = t;
                hw_cfg.pesPerSet = s;
                hw_cfg.peInputs = s;
                hw_cfg.bits = b;
                hw_cfg.grng = options.grng;
                point.estimate = hw::networkEstimate(hw_cfg);

                point.reason = checkConstraints(point.config, layer_sizes,
                                                &point.estimate);
                point.feasible = point.reason.empty();
                if (point.feasible) {
                    point.cyclesPerPass =
                        predictPassCycles(layer_sizes, point.config);
                    const double cycles_per_image =
                        static_cast<double>(point.cyclesPerPass) *
                        options.mcSamples;
                    point.imagesPerSecond =
                        point.estimate.fmaxMhz * 1e6 / cycles_per_image;
                    point.imagesPerJoule = point.imagesPerSecond /
                        (point.estimate.powerMw * 1e-3);
                    const double peak =
                        static_cast<double>(point.cyclesPerPass) *
                        point.config.totalPes() * point.config.peInputs();
                    point.utilization = useful_macs / peak;
                }
                points.push_back(std::move(point));
            }
        }
    }
    return points;
}

std::vector<std::size_t>
paretoFrontier(const std::vector<DesignPoint> &points)
{
    // A feasible point is dominated if another feasible point has
    // >= throughput and <= ALMs, strictly better in at least one.
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!points[i].feasible)
            continue;
        const double ti = points[i].imagesPerSecond;
        const double ai = points[i].estimate.total().alms;
        bool dominated = false;
        for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
            if (j == i || !points[j].feasible)
                continue;
            const double tj = points[j].imagesPerSecond;
            const double aj = points[j].estimate.total().alms;
            if (tj >= ti && aj <= ai && (tj > ti || aj < ai))
                dominated = true;
        }
        if (!dominated)
            frontier.push_back(i);
    }
    std::sort(frontier.begin(), frontier.end(),
              [&](std::size_t a, std::size_t b) {
                  return points[a].estimate.total().alms <
                      points[b].estimate.total().alms;
              });
    return frontier;
}

} // namespace vibnn::accel
