/**
 * @file
 * `vvsp conclusions`: Section 4's conclusions quantified on our
 * reproduction — real-time full-search utilization and sustained
 * GOPS, crossbar area share, working sets, and the combined
 * small-cluster speedup. The cells come from the "conclusions"
 * experiment spec (each kernel's best schedule on the reference
 * model and the two viable small-cluster models), evaluated as one
 * concurrent SweepRunner batch; the derived analyses print exactly
 * what the retired conclusions binary printed.
 */

#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "driver.hh"
#include "arch/models.hh"
#include "kernels/kernel.hh"
#include "support/table.hh"
#include "vlsi/area_estimator.hh"
#include "vlsi/clock_estimator.hh"

namespace vvsp
{
namespace cli
{

namespace
{

/** Serves cell lookups over one batch of spec-lowered results. */
class CellIndex
{
  public:
    void
    addGrid(const SpecSection &section, const SectionGrid &grid,
            std::vector<ExperimentResult> results)
    {
        size_t idx = 0;
        for (const std::string &variant : grid.rowNames) {
            for (const DatapathConfig &m : grid.models) {
                cells_.emplace(
                    std::make_tuple(section.kernel, variant, m.name,
                                    section.profileUnits),
                    results[idx++]);
            }
        }
    }

    const ExperimentResult &
    get(const std::string &kernel, const std::string &variant,
        const std::string &model, int units) const
    {
        return cells_.at(
            std::make_tuple(kernel, variant, model, units));
    }

  private:
    std::map<std::tuple<std::string, std::string, std::string, int>,
             ExperimentResult>
        cells_;
};

} // anonymous namespace

int
cmdConclusions(const ExperimentSpec &spec, const DriverOptions &opts)
{
    Observability sinks(opts);
    {
        // The conclusions model set is declared by the spec, not
        // --machine; record it for the ledger manifest all the same.
        std::vector<DatapathConfig> model_set;
        for (const std::string &name : spec.models)
            model_set.push_back(models::byName(name));
        sinks.setMachines(model_set);
    }
    DiskCacheAttachment disk(opts);

    ClockEstimator clock;
    AreaEstimator area;

    std::printf("Section 4 conclusions, reproduced\n\n");

    // Every cell both sections need, as one concurrent batch: the
    // spec's sections are (kernel, best variant, units) rows over
    // the {reference, viable small-cluster} model columns.
    std::vector<SectionGrid> grids;
    std::vector<ExperimentRequest> requests;
    for (const SpecSection &s : spec.sections) {
        grids.push_back(lowerSection(spec, s));
        const SectionGrid &g = grids.back();
        requests.insert(requests.end(), g.requests.begin(),
                        g.requests.end());
    }
    SweepRunner runner(sweepOptions(opts, sinks, disk));
    std::vector<ExperimentResult> results = runner.run(requests);

    CellIndex batch;
    size_t offset = 0;
    for (size_t i = 0; i < spec.sections.size(); ++i) {
        size_t n = grids[i].requests.size();
        batch.addGrid(spec.sections[i], grids[i],
                      {results.begin() + offset,
                       results.begin() + offset + n});
        offset += n;
    }

    const SpecSection &fullsearch = spec.sections.front();

    // 1. Real-time full search utilization and sustained GOPS.
    std::printf("Real-time full motion search at 30 frames/s "
                "(paper: 33%%-46%% of compute):\n");
    TextTable t1;
    t1.header({"model", "cycles/frame", "clock MHz", "utilization",
               "sustained GOPS"});
    for (const std::string &name : spec.models) {
        auto m = models::byName(name);
        const ExperimentResult &best =
            batch.get(fullsearch.kernel,
                      fullsearch.rows.front().variant, name,
                      fullsearch.profileUnits);
        double mhz = clock.clockMhz(m);
        double util = best.cyclesPerFrame * 30.0 / (mhz * 1e6);
        double ops = best.comp.opsPerUnit * best.unitsPerFrame;
        double gops =
            ops / (best.cyclesPerFrame / (mhz * 1e6)) / 1e9;
        t1.row({name, TextTable::cycles(best.cyclesPerFrame),
                TextTable::num(mhz, 0),
                TextTable::num(util * 100.0, 1) + "%",
                TextTable::num(gops, 1)});
    }
    std::printf("%s\n", t1.str().c_str());

    // 2. Crossbar area share.
    auto cfg = models::i4c8s4();
    auto breakdown = area.estimate(cfg);
    // The paper's ~3% is of total chip area (datapath + icache +
    // control, roughly 2x the datapath).
    std::printf("Crossbar: %.1f mm^2 of a %.1f mm^2 datapath = %.1f%%"
                " (paper: a few percent; ~3%% of the whole chip)\n\n",
                breakdown.crossbar, breakdown.datapathTotal,
                100.0 * breakdown.crossbar / breakdown.datapathTotal);

    // 3. Working sets.
    std::printf("Working sets (paper: never exceeded 4KB/cluster):\n");
    for (const auto &k : allKernels()) {
        Function fn = k.variants.front().build();
        int bytes = 0;
        for (const auto &b : fn.buffers)
            bytes += 2 * b.sizeWords;
        std::printf("  %-34s %5d bytes\n", k.name.c_str(), bytes);
    }
    std::printf("\n");

    // 4. Combined small-cluster advantage (cycles x clock).
    std::printf("Combined small-cluster speedup over I4C8S4 "
                "(paper: 17%% to 129%% faster):\n");
    const std::string &base_name = spec.models.front();
    double base_mhz = clock.clockMhz(models::byName(base_name));
    for (const SpecSection &s : spec.sections) {
        const std::string &variant = s.rows.front().variant;
        double t_base = batch.get(s.kernel, variant, base_name,
                                  s.profileUnits)
                            .cyclesPerFrame /
                        base_mhz;
        for (size_t mi = 1; mi < spec.models.size(); ++mi) {
            const std::string &name = spec.models[mi];
            double t_small = batch.get(s.kernel, variant, name,
                                       s.profileUnits)
                                 .cyclesPerFrame /
                             clock.clockMhz(models::byName(name));
            std::printf("  %-34s %-8s %+5.0f%%\n", s.kernel.c_str(),
                        name.c_str(),
                        100.0 * (t_base / t_small - 1.0));
        }
    }
    std::printf("\n(positive = the 16-cluster model is faster in "
                "wall-clock time)\n");
    return 0;
}

} // namespace cli
} // namespace vvsp
