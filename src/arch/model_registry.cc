#include "arch/model_registry.hh"

#include "arch/config_json.hh"
#include "arch/models.hh"
#include "support/logging.hh"

namespace vvsp
{

ModelRegistry::ModelRegistry()
    : entries_{
          {"I4C8S4",
           "8 clusters x 4 slots, 4-stage, simple addressing (initial "
           "model)",
           models::i4c8s4},
          {"I4C8S4C",
           "I4C8S4 with complex addressing folded into the memory "
           "stage",
           models::i4c8s4c},
          {"I4C8S5",
           "I4C8S4 with a 5th (MEM) stage: complex addressing, 1-cycle "
           "load-use delay",
           models::i4c8s5},
          {"I2C16S4",
           "16 clusters x 2 slots, 4-stage, two 8 KB banks, ~30% faster "
           "clock",
           models::i2c16s4},
          {"I2C16S5",
           "16-cluster model, 5-stage pipeline, single 16 KB fast-cell "
           "memory",
           models::i2c16s5},
          {"I4C8S5M16", "I4C8S5 with 16-bit 2-stage multipliers",
           models::i4c8s5m16},
          {"I2C16S5M16", "I2C16S5 with 16-bit 2-stage multipliers",
           models::i2c16s5m16},
      }
{
}

const ModelRegistry &
ModelRegistry::instance()
{
    static const ModelRegistry registry;
    return registry;
}

std::vector<std::string>
ModelRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.name);
    return out;
}

std::string
ModelRegistry::namesLine() const
{
    std::string out;
    for (const Entry &e : entries_) {
        if (!out.empty())
            out += ", ";
        out += e.name;
    }
    return out;
}

std::optional<DatapathConfig>
ModelRegistry::find(const std::string &name) const
{
    // "BASE+SUF+SUF": split on '+'.
    std::vector<std::string> suffixes;
    size_t plus = name.find('+');
    std::string base = name.substr(0, plus);
    while (plus != std::string::npos) {
        size_t next = name.find('+', plus + 1);
        suffixes.push_back(name.substr(
            plus + 1,
            next == std::string::npos ? next : next - plus - 1));
        plus = next;
    }

    for (const Entry &e : entries_) {
        if (e.name != base)
            continue;
        DatapathConfig cfg = e.make();
        cfg.name = e.name; // the registry owns the name.
        for (const std::string &s : suffixes) {
            if (s == "2LS")
                cfg = models::withDualLoadStore(std::move(cfg));
            else if (s == "AD")
                cfg = models::withAbsDiff(std::move(cfg));
            else
                return std::nullopt;
        }
        return cfg;
    }
    return std::nullopt;
}

DatapathConfig
ModelRegistry::get(const std::string &name) const
{
    std::optional<DatapathConfig> cfg = find(name);
    if (!cfg) {
        vvsp_fatal("unknown datapath model '%s' (registered models: "
                   "%s; derivation suffixes: +2LS, +AD)",
                   name.c_str(), namesLine().c_str());
    }
    return *cfg;
}

std::optional<DatapathConfig>
ModelRegistry::resolve(const std::string &name_or_path,
                       std::string *error) const
{
    bool looks_like_path =
        name_or_path.find('/') != std::string::npos ||
        name_or_path.find('\\') != std::string::npos ||
        (name_or_path.size() > 5 &&
         name_or_path.rfind(".json") == name_or_path.size() - 5);
    if (looks_like_path)
        return loadMachineFile(name_or_path, error);

    std::optional<DatapathConfig> cfg = find(name_or_path);
    if (!cfg && error) {
        *error = format("unknown datapath model '%s' (registered "
                        "models: %s; derivation suffixes: +2LS, +AD; "
                        "or pass a .json machine file)",
                        name_or_path.c_str(), namesLine().c_str());
    }
    return cfg;
}

} // namespace vvsp
