/**
 * @file
 * `vvsp sweep [section ...] --machine NAME|FILE.json`: run Table 1's
 * kernel sections on an arbitrary machine set. Machines come from
 * the model registry or from JSON machine files (arch/config_json),
 * and flow through the identical pipeline as the registered models —
 * sweep engine, profile memo, and the content-addressed disk cache
 * keyed on the canonical serialized form, so a warm rerun of a
 * JSON-only machine hits the persistent cache. Paper columns are
 * matched by model name and print "-" for machines the paper never
 * measured.
 */

#include <cstdio>

#include "driver.hh"
#include "arch/models.hh"

namespace vvsp
{
namespace cli
{

int
cmdSweep(const DriverOptions &opts)
{
    // The kernel sections (and their published values, when a column
    // name matches) come from the Table 1 spec.
    const ExperimentSpec &spec = *findExperimentSpec("table1");

    std::vector<DatapathConfig> machines =
        resolveMachines(opts, {models::i4c8s4()});

    std::vector<const SpecSection *> sections;
    if (opts.positional.empty()) {
        for (const SpecSection &s : spec.sections)
            sections.push_back(&s);
    } else {
        for (const std::string &name : opts.positional) {
            const SpecSection *s = spec.section(name);
            if (!s) {
                std::fprintf(stderr,
                             "vvsp: no kernel section '%s' "
                             "(sections:",
                             name.c_str());
                for (const SpecSection &sec : spec.sections)
                    std::fprintf(stderr, " %s", sec.alias.c_str());
                std::fprintf(stderr, ")\n");
                std::exit(2);
            }
            sections.push_back(s);
        }
    }

    Observability sinks(opts);
    sinks.setMachines(machines);
    DiskCacheAttachment disk(opts);
    runSections(spec, sections, machines, opts, sinks);
    return 0;
}

} // namespace cli
} // namespace vvsp
