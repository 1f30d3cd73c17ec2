/**
 * @file
 * Environment-variable configuration shared by benches and examples.
 *
 * Two knobs control every experiment binary:
 *  - VIBNN_SCALE: multiplies workload sizes (sample counts, epochs,
 *    repetitions). 1 = the default laptop-friendly scale; larger values
 *    approach the paper's full-size runs.
 *  - VIBNN_SEED: master seed for all stochastic components.
 */

#ifndef VIBNN_COMMON_ENV_HH
#define VIBNN_COMMON_ENV_HH

#include <cstdint>
#include <string>

namespace vibnn
{

/** Read an environment variable as double, with a default. */
double envDouble(const std::string &name, double default_value);

/** Read an environment variable as int64, with a default. */
std::int64_t envInt(const std::string &name, std::int64_t default_value);

/** Read an environment variable as a string, with a default (returned
 *  for unset or empty variables). */
std::string envString(const std::string &name,
                      const std::string &default_value);

/** Workload scale factor (VIBNN_SCALE, default 1.0, clamped to >= 0.01). */
double envScale();

/** Master experiment seed (VIBNN_SEED, default 20180324 — the ASPLOS'18
 *  opening day). */
std::uint64_t envSeed();

/** Scale a count: max(1, round(base * envScale())). */
std::size_t scaledCount(std::size_t base);

} // namespace vibnn

#endif // VIBNN_COMMON_ENV_HH
