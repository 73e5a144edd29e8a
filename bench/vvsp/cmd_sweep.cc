/**
 * @file
 * `vvsp sweep [section ...] --machine NAME|FILE.json`: run Table 1's
 * kernel sections on an arbitrary machine set. Machines come from
 * the model registry or from JSON machine files (arch/config_json),
 * and flow through the identical pipeline as the registered models —
 * sweep engine, its batch stages, and the content-addressed disk
 * cache keyed on the canonical serialized form, so a warm rerun of a
 * JSON-only machine hits the persistent cache. Paper columns are
 * matched by model name and print "-" for machines the paper never
 * measured.
 */

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
    runSections(*findExperimentSpec("table1"),
                resolveMachines(opts, {models::i4c8s4()}), opts);
    return 0;
}

} // namespace cli
} // namespace vvsp
