/**
 * @file
 * Name-based factory for Gaussian generators.
 *
 * Benches, examples and parameterized tests construct generators by
 * string id so that sweeps ("for each design in ...") stay declarative.
 */

#ifndef VIBNN_GRNG_REGISTRY_HH
#define VIBNN_GRNG_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "grng/generator.hh"

namespace vibnn::grng
{

/**
 * Create a generator by id. Supported ids:
 *   "rlf"            RLF-GRNG, 255 bits x 8 lanes, combined update, mux
 *   "rlf-64"         the 64-lane deployment configuration (Table 2)
 *   "rlf-nomux"      same without the output multiplexer (ablation)
 *   "rlf-single"     plain 3-tap update (ablation)
 *   "bnnwallace"     BNNWallace, 8 units x 256 pool, sharing & shifting
 *   "wallace-nss"    hardware Wallace without sharing & shifting
 *   "wallace-256"    software Wallace, pool 256
 *   "wallace-1024"   software Wallace, pool 1024
 *   "wallace-4096"   software Wallace, pool 4096
 *   "clt-lfsr"       128-bit LFSR + parallel counter baseline
 *   "box-muller", "polar", "ziggurat", "cdf-inversion", "reference"
 *
 * fatal() on unknown ids.
 */
std::unique_ptr<GaussianGenerator> makeGenerator(const std::string &id,
                                                 std::uint64_t seed);

/** All ids accepted by makeGenerator, in presentation order. */
std::vector<std::string> generatorIds();

/** fatal() with makeGenerator's unknown-id message unless `id` is
 *  registered: for callers that check an id before its first use. */
void requireGeneratorId(const std::string &id);

} // namespace vibnn::grng

#endif // VIBNN_GRNG_REGISTRY_HH
