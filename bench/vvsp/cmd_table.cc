/**
 * @file
 * `vvsp table1 [section]`, `vvsp table2 [section]`, and
 * `vvsp ablation`: render a Table-kind experiment spec. With no
 * section argument every section of the spec runs (the old one-
 * binary-per-section layout concatenated); with one, only that
 * section — so `vvsp table1 colorconv --json` prints exactly what
 * the retired table1_colorconv binary printed.
 */

#include <cstdio>

#include "driver.hh"
#include "arch/models.hh"
#include "support/table.hh"
#include "vlsi/area_estimator.hh"
#include "vlsi/clock_estimator.hh"

namespace vvsp
{
namespace cli
{

int
cmdTable(const ExperimentSpec &spec, const DriverOptions &opts)
{
    runSections(spec, resolveMachines(opts), opts);
    return 0;
}

int
cmdAblation(const ExperimentSpec &spec, const DriverOptions &opts)
{
    std::vector<DatapathConfig> machines = resolveMachines(opts);
    Observability sinks(opts);
    sinks.setMachines(machines);
    DiskCacheAttachment disk(opts);

    const SpecSection &section = spec.sections.front();
    SectionGrid grid =
        lowerSection(spec, section, machines, opts.variant);

    SweepRunner runner(sweepOptions(opts, sinks, disk));
    std::vector<ExperimentResult> results = runner.run(grid.requests);

    if (opts.json) {
        // Reuse the table cell dump (paper values are all absent).
        std::printf("{\"kernel\": \"%s\", \"cells\": [\n",
                    json::escape(section.kernel).c_str());
        for (size_t i = 0; i < results.size(); ++i) {
            const ExperimentResult &r = results[i];
            std::printf("  {\"variant\": \"%s\", \"model\": \"%s\", "
                        "\"cycles_per_frame\": %.1f}%s\n",
                        json::escape(r.variant).c_str(),
                        json::escape(r.model).c_str(), r.cyclesPerFrame,
                        i + 1 < results.size() ? "," : "");
        }
        std::printf("]}\n");
        return 0;
    }

    AreaEstimator area;
    ClockEstimator clock;
    const DatapathConfig &base = grid.models.front();
    const DatapathConfig &dual = grid.models[1];
    std::printf("Dual load/store ablation (Sec. 3.4.1)\n\n");
    std::printf("cost: %s %.1f mm^2 @%.0f MHz -> %s %.1f mm^2 "
                "@%.0f MHz\n\n",
                base.name.c_str(), area.datapathMm2(base),
                clock.clockMhz(base), dual.name.c_str(),
                area.datapathMm2(dual), clock.clockMhz(dual));

    TextTable t;
    std::vector<std::string> head{"schedule"};
    for (const auto &m : grid.models)
        head.push_back(m.name);
    t.header(head);
    size_t idx = 0;
    for (const std::string &row_name : grid.rowNames) {
        std::vector<std::string> cells{row_name};
        for (size_t col = 0; col < grid.models.size(); ++col, ++idx)
            cells.push_back(
                TextTable::cycles(results[idx].cyclesPerFrame));
        t.row(cells);
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("Expected shape: the second unit closes the gap to "
                "I2C16S4 on the\nload-limited software-pipelined "
                "rows and buys nothing once blocking\neliminates the "
                "loads - at a significant area and cycle-time "
                "cost.\n");
    return 0;
}

} // namespace cli
} // namespace vvsp
