#include "grng/registry.hh"

#include <algorithm>

#include "common/logging.hh"
#include "grng/baselines.hh"
#include "grng/bnn_wallace.hh"
#include "grng/clt_grng.hh"
#include "grng/philox.hh"
#include "grng/rlf_grng.hh"
#include "grng/wallace.hh"

namespace vibnn::grng
{

namespace
{

[[noreturn]] void
unknownGeneratorId(const std::string &id)
{
    fatal("unknown generator id '" + id + "' (registered: " +
          joinStrings(generatorIds()) + ")");
}

} // namespace

std::unique_ptr<GaussianGenerator>
makeGenerator(const std::string &id, std::uint64_t seed)
{
    if (id == "rlf") {
        RlfGrngConfig config;
        config.seed = seed;
        return std::make_unique<RlfGrng>(config);
    }
    if (id == "rlf-64") {
        RlfGrngConfig config;
        config.seed = seed;
        config.lanes = 64;
        return std::make_unique<RlfGrng>(config);
    }
    if (id == "rlf-nomux") {
        RlfGrngConfig config;
        config.seed = seed;
        config.outputMux = false;
        return std::make_unique<RlfGrng>(config);
    }
    if (id == "rlf-single") {
        RlfGrngConfig config;
        config.seed = seed;
        config.mode = RlfUpdateMode::Single;
        return std::make_unique<RlfGrng>(config);
    }
    if (id == "bnnwallace") {
        BnnWallaceConfig config;
        config.seed = seed;
        return std::make_unique<BnnWallaceGrng>(config);
    }
    if (id == "wallace-nss") {
        BnnWallaceConfig config;
        config.seed = seed;
        config.sharingAndShifting = false;
        return std::make_unique<BnnWallaceGrng>(config);
    }
    if (id == "wallace-256" || id == "wallace-1024" ||
        id == "wallace-4096") {
        WallaceConfig config;
        config.seed = seed;
        config.poolSize = id == "wallace-256"
                              ? 256
                              : (id == "wallace-1024" ? 1024 : 4096);
        return std::make_unique<WallaceGrng>(config);
    }
    if (id == "philox")
        return std::make_unique<PhiloxGrng>(seed);
    if (id == "clt-lfsr")
        return std::make_unique<CltLfsrGrng>(128, seed);
    if (id == "box-muller")
        return std::make_unique<BoxMullerGrng>(seed);
    if (id == "polar")
        return std::make_unique<PolarGrng>(seed);
    if (id == "ziggurat")
        return std::make_unique<ZigguratGrng>(seed);
    if (id == "cdf-inversion")
        return std::make_unique<CdfInversionGrng>(seed);
    if (id == "reference")
        return std::make_unique<ReferenceGrng>(seed);

    unknownGeneratorId(id);
}

std::vector<std::string>
generatorIds()
{
    return {
        "rlf",         "rlf-64",       "rlf-nomux",     "rlf-single",
        "bnnwallace",
        "wallace-nss", "wallace-256",  "wallace-1024",  "wallace-4096",
        "philox",
        "clt-lfsr",    "box-muller",   "polar",         "ziggurat",
        "cdf-inversion", "reference",
    };
}

void
requireGeneratorId(const std::string &id)
{
    const auto ids = generatorIds();
    if (std::find(ids.begin(), ids.end(), id) == ids.end())
        unknownGeneratorId(id);
}

} // namespace vibnn::grng
