/**
 * @file
 * Runtime kernel-tier dispatch. The decision is made once per process,
 * in order:
 *
 *   1. VIBNN_KERNELS=<name>           -> that tier, fatal() if it is
 *                                        not compiled in / supported
 *                                        (scalar always is)
 *   2. widest tier the CPU supports   -> avx512 > avx2 > sse4 > scalar
 *
 * avx512 needs AVX-512 F, VL, DQ and BW (libgcc's probe also checks
 * that the OS saves the ZMM state) on top of AVX2, whose inference
 * entries it shares.
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
const KernelOps &avx512Kernels();
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

bool
cpuHasAvx512()
{
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    return __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw");
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
    // One push_back site for the SIMD tiers: the *Avx2 kernels link
    // right after this object, and their cache-line offsets follow its
    // code size (docs/PERFORMANCE.md, "AVX-512 kernel tier for training").
    const bool avx2 = cpuHasAvx2();
    const struct
    {
        bool usable;
        const KernelOps &(*ops)();
    } simd[] = {{cpuHasSse41(), &sse4Kernels},
                {avx2, &avx2Kernels},
                {avx2 && cpuHasAvx512(), &avx512Kernels}};
    for (const auto &tier : simd)
        if (tier.usable)
            tiers.push_back(&tier.ops());
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
