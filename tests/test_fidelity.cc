/**
 * @file
 * Fidelity scorecard pins: Tables 1 and 2, evaluated as `vvsp table1`
 * and `vvsp table2` run them, must keep today's distance from the
 * paper exactly. A change that moves any cycle count moves one of
 * these counters, so this is the tracked form of "no cycle moved".
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/experiment_spec.hh"
#include "core/sweep.hh"
#include "obs/stats_registry.hh"

namespace vvsp
{
namespace
{

/** Every section of a spec as one batch, scored and recorded. */
FidelityScorecard
score(const std::string &spec_name, obs::StatsRegistry &stats)
{
    const ExperimentSpec &spec = *findExperimentSpec(spec_name);
    std::vector<SectionGrid> grids;
    std::vector<ExperimentRequest> requests;
    for (const SpecSection &section : spec.sections) {
        grids.push_back(lowerSection(spec, section));
        requests.insert(requests.end(), grids.back().requests.begin(),
                        grids.back().requests.end());
    }
    const std::vector<ExperimentResult> results =
        SweepRunner().run(requests);
    const FidelityScorecard card = scoreFidelity(grids, results);
    const obs::StatsScope scope = stats.scope(spec_name);
    card.batch.record(scope);
    for (size_t i = 0; i < spec.sections.size(); ++i)
        card.sections[i].record(scope.scope(spec.sections[i].alias));
    return card;
}

TEST(Fidelity, Table1ScorecardIsPinned)
{
    obs::StatsRegistry stats;
    const FidelityScorecard card = score("table1", stats);
    EXPECT_EQ(card.batch.cells, 180u);
    EXPECT_EQ(card.batch.worstCell, "Variable-Bit-Rate Coder / "
                                    "SW pipelined + comp. pred. / "
                                    "I2C16S4");
    const std::map<std::string, uint64_t> want{
        {"table1/geomean_err_mpct", 37706},
        {"table1/worst_factor_milli", 5001},
        {"table1/slower_cells", 129},
        {"table1/fullsearch/geomean_err_mpct", 7293},
        {"table1/threestep/geomean_err_mpct", 18539},
        {"table1/dct-trad/geomean_err_mpct", 44265},
        {"table1/dct-rowcol/geomean_err_mpct", 34819},
        {"table1/colorconv/geomean_err_mpct", 14089},
        {"table1/vbr/geomean_err_mpct", 142553},
        {"table1/vbr/slower_cells", 30},
    };
    for (const auto &[path, value] : want)
        EXPECT_EQ(stats.counterValue(path), value) << path;
}

TEST(Fidelity, Table2ScorecardIsPinned)
{
    obs::StatsRegistry stats;
    const FidelityScorecard card = score("table2", stats);
    EXPECT_EQ(card.batch.cells, 50u);
    EXPECT_EQ(stats.counterValue("table2/geomean_err_mpct"), 58929u);
    EXPECT_EQ(stats.counterValue("table2/worst_factor_milli"), 6533u);
    EXPECT_EQ(stats.counterValue("table2/slower_cells"), 34u);
}

TEST(Fidelity, ScoresOnlyPublishedCells)
{
    // Two cells, one with no paper value: only the other counts, and
    // a cell twice as slow as the paper is a 100 % error.
    SectionGrid grid;
    grid.requests.resize(2);
    grid.paperCycles = {0, 1000};
    std::vector<ExperimentResult> results(2);
    results[0].cyclesPerFrame = 5;
    results[1].cyclesPerFrame = 2000;
    const std::string kernel = "k", variant = "v", model = "m";
    results[1].kernel = kernel;
    results[1].variant = variant;
    results[1].model = model;
    const FidelityScorecard card = scoreFidelity({grid}, results);
    EXPECT_EQ(card.batch.cells, 1u);
    EXPECT_EQ(card.batch.slower, 1u);
    EXPECT_DOUBLE_EQ(card.batch.geomeanErrPct(), 100.0);
    EXPECT_DOUBLE_EQ(card.batch.worstFactor, 2.0);
    EXPECT_EQ(card.batch.worstCell, "k / v / m");
}

} // namespace
} // namespace vvsp
