/**
 * @file
 * Named registry of datapath models.
 *
 * The seven paper machines (Sec. 3.2) are registered base configs;
 * every consumer — the vvsp CLI driver, the experiment specs, the
 * design-space explorer, tests — resolves models by name through
 * this one table, so adding a machine (or loading one from JSON)
 * makes it available everywhere at once.
 *
 * Name grammar: a registered base name, optionally followed by
 * derivation suffixes in any order:
 *   +2LS  second load/store unit on dual-ported memory (Sec. 3.4.1)
 *   +AD   absolute-difference ALU op enabled
 * e.g. "I4C8S4+2LS". A `--machine` CLI argument may instead be a
 * path to a JSON machine file (see arch/config_json.hh); resolve()
 * accepts both.
 */

#ifndef VVSP_ARCH_MODEL_REGISTRY_HH
#define VVSP_ARCH_MODEL_REGISTRY_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "arch/datapath_config.hh"

namespace vvsp
{

/** Registry of named machines; the registry owns the names. */
class ModelRegistry
{
  public:
    struct Entry
    {
        std::string name;
        std::string summary;
        std::function<DatapathConfig()> make;
    };

    /**
     * The process-wide registry of the seven paper models. It stamps
     * an entry's name onto every config the entry's factory hands
     * out, so factories need not repeat it.
     */
    static const ModelRegistry &instance();

    /** Registered entries in registration order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Registered base names in registration order. */
    std::vector<std::string> names() const;

    /** "I4C8S4, I4C8S4C, ..." — for error messages and `vvsp list`. */
    std::string namesLine() const;

    /**
     * Resolve a model name, including +2LS/+AD derivation suffixes
     * on any base name; nullopt when the base name is unknown or a
     * suffix is unrecognized.
     */
    std::optional<DatapathConfig>
    find(const std::string &name) const;

    /**
     * find(), but a miss is a user error: fatal() with the list of
     * registered names.
     */
    DatapathConfig get(const std::string &name) const;

    /**
     * Resolve a CLI machine argument: a path to a JSON machine file
     * (anything containing a path separator or ending in ".json"),
     * or a registered model name. Returns nullopt and fills `error`
     * with a diagnostic that includes the registered names on a
     * name miss.
     */
    std::optional<DatapathConfig>
    resolve(const std::string &name_or_path,
            std::string *error) const;

  private:
    ModelRegistry();

    std::vector<Entry> entries_;
};

} // namespace vvsp

#endif // VVSP_ARCH_MODEL_REGISTRY_HH
