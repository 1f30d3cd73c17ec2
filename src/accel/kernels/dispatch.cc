/**
 * @file
 * Runtime kernel-tier dispatch. The decision is made once per process,
 * in order:
 *
 *   1. VIBNN_KERNELS=<name>           -> that tier, fatal() if it is
 *                                        not compiled in / supported
 *                                        (scalar always is)
 *   2. widest tier the CPU supports   -> avx2 > sse4 > scalar
 *
 * Because every tier is ctest-pinned bit-exact against the scalar
 * reference, the choice is invisible in program output — it only moves
 * throughput.
 */

#include "accel/kernels/kernels.hh"

#include "common/env.hh"
#include "common/logging.hh"

namespace vibnn::accel::kernels
{

#if defined(__x86_64__) || defined(__i386__)
const KernelOps &sse4Kernels();
const KernelOps &avx2Kernels();
#endif

namespace
{

bool
cpuHasSse41()
{
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    return __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
}

bool
cpuHasAvx2()
{
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

/** Tiers compiled in AND usable on this CPU, widest last. */
std::vector<const KernelOps *>
probeKernels()
{
    std::vector<const KernelOps *> tiers;
    tiers.push_back(&scalarKernels());
#if defined(__x86_64__) || defined(__i386__)
    if (cpuHasSse41())
        tiers.push_back(&sse4Kernels());
    if (cpuHasAvx2())
        tiers.push_back(&avx2Kernels());
#endif
    return tiers;
}

const KernelOps &
pickKernels()
{
    const auto tiers = probeKernels();
    const std::string requested = envString("VIBNN_KERNELS", "");
    if (!requested.empty()) {
        for (const auto *tier : tiers) {
            if (requested == tier->name)
                return *tier;
        }
        std::string names;
        for (const auto *tier : tiers)
            names += std::string(names.empty() ? "" : ", ") + tier->name;
        fatal("VIBNN_KERNELS='" + requested +
              "' is not available on this build/CPU (available: " +
              names + ")");
    }
    return *tiers.back();
}

} // namespace

const KernelOps &
activeKernels()
{
    static const KernelOps &selected = pickKernels();
    return selected;
}

const char *
activeKernelName()
{
    return activeKernels().name;
}

std::vector<const KernelOps *>
availableKernels()
{
    return probeKernels();
}

const KernelOps *
kernelsByName(const std::string &name)
{
    for (const auto *tier : probeKernels()) {
        if (name == tier->name)
            return tier;
    }
    return nullptr;
}

} // namespace vibnn::accel::kernels
