/**
 * @file
 * Design-space explorer for the accelerator geometry — the executable
 * form of the paper's Section 5.4 "Joint Optimization of PE Size/Number
 * and Memory Access".
 *
 * The paper argues that computation parallelism (T PE-sets of S = N-input
 * PEs) and memory traffic (IFMem word B*N, per-set WPMem word B*N*S)
 * cannot be chosen independently: equations (15a)-(15d) couple them
 * through the maximum on-chip word size and the write-drain condition.
 * This module enumerates candidate (T, S=N, B) points, applies the
 * constraint system, predicts the exact per-pass cycle count with an
 * analytic model (tested cycle-exact against the simulator), attaches
 * the Cyclone V resource/frequency/power estimate, and reports the
 * throughput/resource Pareto frontier.
 */

#ifndef VIBNN_ACCEL_DESIGN_SPACE_HH
#define VIBNN_ACCEL_DESIGN_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "accel/config.hh"
#include "accel/program.hh"
#include "hwmodel/network_hw.hh"

namespace vibnn::accel
{

/** One evaluated candidate configuration. */
struct DesignPoint
{
    AcceleratorConfig config;
    /** False when a constraint or device capacity is violated. */
    bool feasible = false;
    /** Human-readable violation description (empty when feasible). */
    std::string reason;
    /** Resource / fmax / power estimate (feasible points only). */
    hw::DesignEstimate estimate;
    /** Analytic cycles for one forward pass (one MC sample). */
    std::uint64_t cyclesPerPass = 0;
    /** Images/s at fmax with config.mcSamples passes per image. */
    double imagesPerSecond = 0.0;
    /** Images/J at the modeled power. */
    double imagesPerJoule = 0.0;
    /** Useful MACs / peak MAC slots over a pass. */
    double utilization = 0.0;
};

/** Candidate axes for the sweep. */
struct ExplorerOptions
{
    std::vector<int> peSetChoices{2, 4, 8, 16, 32, 64};
    std::vector<int> peSizeChoices{4, 8, 16};
    std::vector<int> bitChoices{8};
    hw::GrngKind grng = hw::GrngKind::Rlf;
    /** Monte-Carlo passes per classified image. */
    int mcSamples = 8;
};

/**
 * Analytic per-pass cycle count for a layer-sizes vector on a given
 * geometry. Reproduces the cycle simulator's accounting exactly:
 * per layer, rounds * (chunks + pipeline drain) + tail write-back +
 * controller sync. A gtest asserts equality with Simulator::stats().
 */
std::uint64_t predictPassCycles(const std::vector<std::size_t> &layer_sizes,
                                const AcceleratorConfig &config);

/**
 * Analytic per-pass cycle count for a QuantizedProgram on a given
 * geometry — the program-IR generalization of predictPassCycles.
 * Dense ops cost one bank schedule, ConvLowered ops cost positions()
 * bank schedules, Pool ops stream in+out words through the distributor,
 * Flatten/Output are free. A gtest asserts equality with
 * Simulator::stats() on multi-op CNN programs.
 */
std::uint64_t predictProgramCycles(const QuantizedProgram &program,
                                   const AcceleratorConfig &config);

/**
 * AcceleratorConfig::constraintViolation plus device-capacity checks
 * against the Cyclone V totals.
 * @return Empty string when feasible, else the first violated
 *         constraint.
 */
std::string checkConstraints(const AcceleratorConfig &config,
                             const std::vector<std::size_t> &layer_sizes,
                             const hw::DesignEstimate *estimate = nullptr);

/**
 * Enumerate and evaluate every candidate point (including infeasible
 * ones, flagged, so reports can show *why* the space is constrained).
 */
std::vector<DesignPoint>
exploreDesignSpace(const std::vector<std::size_t> &layer_sizes,
                   const ExplorerOptions &options);

/**
 * Indices of feasible points on the (maximize images/s, minimize ALMs)
 * Pareto frontier, sorted by ascending ALMs.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<DesignPoint> &points);

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_DESIGN_SPACE_HH
