#include "core/experiment_cache.hh"

#include <sstream>

#include "arch/config_json.hh"
#include "support/logging.hh"

namespace vvsp
{

std::string
ExperimentCache::resultKey(const ExperimentRequest &req,
                           const DatapathConfig &cfg)
{
    vvsp_assert(req.kernel && req.variant, "incomplete request");
    // The machine part of the key is the canonical serialized form
    // (arch/config_json.hh), which excludes the display name: two
    // differently-named models with the same parameters — including
    // machines loaded from JSON files — are the same machine to the
    // pipeline and share cache entries.
    std::ostringstream os;
    os << req.kernel->name << '|' << req.variant->name << '|'
       << canonicalMachineKey(cfg) << '|' << req.geometry.width << 'x'
       << req.geometry.height << '|' << req.profileUnits;
    return os.str();
}

std::string
ExperimentCache::profileKey(const ExperimentRequest &req,
                            uint64_t fn_fingerprint)
{
    vvsp_assert(req.kernel && req.variant, "incomplete request");
    // No machine component: the fingerprint of the *lowered*
    // function already captures everything the interpreter can
    // observe of the machine, so models whose lowerings coincide
    // (e.g. same cluster internals, different issue width) fold to
    // one entry.
    std::ostringstream os;
    os << req.kernel->name << '|' << req.variant->name << '|'
       << std::hex << fn_fingerprint << std::dec << '|'
       << req.geometry.width << 'x' << req.geometry.height << '|'
       << req.profileUnits;
    return os.str();
}

bool
ExperimentCache::findProfile(const std::string &key,
                             UnitProfileEntry &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = profiles_.find(key);
    if (it != profiles_.end()) {
        ++stats_.profileHits;
        out = it->second;
        return true;
    }
    ++stats_.profileMisses;
    return false;
}

void
ExperimentCache::storeProfile(const std::string &key,
                              const UnitProfileEntry &entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    profiles_.try_emplace(key, entry);
}

ExperimentCacheStats
ExperimentCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace vvsp
