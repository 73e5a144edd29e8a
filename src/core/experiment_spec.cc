#include "core/experiment_spec.hh"

#include <cmath>

#include "arch/model_registry.hh"
#include "kernels/kernel.hh"
#include "obs/stats_registry.hh"
#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** The five Table 1 model columns. */
const std::vector<std::string> kTable1Models{
    "I4C8S4", "I4C8S4C", "I4C8S5", "I2C16S4", "I2C16S5"};

/** The five Table 2 model columns. */
const std::vector<std::string> kTable2Models{
    "I4C8S4", "I4C8S5", "I4C8S5M16", "I2C16S5", "I2C16S5M16"};

/** All seven candidate models (utilization report order). */
const std::vector<std::string> kAllModels{
    "I4C8S4",  "I4C8S4C",   "I4C8S5",    "I2C16S4",
    "I2C16S5", "I4C8S5M16", "I2C16S5M16"};

std::vector<ExperimentSpec>
buildSpecs()
{
    std::vector<ExperimentSpec> specs;

    // Table 1: six kernel sections x the five Table 1 models, with
    // the paper's published millions-of-cycles per frame.
    ExperimentSpec table1;
    table1.name = "table1";
    table1.title = "Table 1: cycles per CCIR-601 frame, six kernels "
                   "x five models";
    table1.models = kTable1Models;
    table1.sections = {
        {"Full Motion Search",
         "fullsearch",
         4,
         {
             {"Sequential-predicated",
              {815.7, 815.7, 815.7, 815.7, 815.7}},
             {"Unrolled Inner Loop",
              {633.2, 467.3, 467.3, 633.2, 467.3}},
             {"SW pipelined & unrolled",
              {25.70, 24.41, 24.41, 20.91, 16.42}},
             {"SW pipelined & unrolled 2 lev.",
              {22.33, 22.25, 22.25, 19.55, 13.99}},
             {"Add spec. op (SW pipelined)",
              {22.29, 22.20, 22.20, 16.78, 11.21}},
             {"Blocking/Loop Exchange",
              {9.44, 9.44, 9.44, 9.44, 9.44}},
             {"Add spec. op (blocked)",
              {6.85, 6.85, 6.85, 6.85, 6.85}},
         }},
        {"Three-step Search",
         "threestep",
         4,
         {
             {"Sequential-predicated",
              {86.12, 86.12, 86.12, 86.12, 86.12}},
             {"Unrolled Inner Loop",
              {66.88, 49.20, 49.20, 66.88, 49.20}},
             {"SW pipelined & unrolled",
              {2.72, 2.59, 2.59, 2.21, 1.74}},
             {"SW pipelined & unrolled 2 lev.",
              {2.37, 2.36, 2.36, 2.07, 1.48}},
             {"Add spec. op (SW pipelined)",
              {2.36, 2.35, 2.35, 1.78, 1.19}},
             {"Blocking/Loop Exchange",
              {1.62, 1.33, 1.33, 1.60, 1.32}},
             {"Add spec. op (blocked)",
              {1.33, 1.33, 1.33, 1.32, 1.02}},
         }},
        {"DCT - traditional",
         "dct-trad",
         2,
         {
             {"Sequential-unoptimized",
              {703.1, 692.2, 692.2, 702.1, 692.2}},
             {"Unrolled inner loop",
              {305.5, 303.1, 303.1, 305.5, 303.1}},
             {"List Scheduled", {18.55, 18.14, 18.55, 11.03, 10.33}},
             {"SW pipelined & predicated",
              {14.79, 14.75, 14.79, 10.70, 10.01}},
             {"+arithmetic optimization",
              {13.71, 13.03, 13.71, 8.46, 7.77}},
             {"+unroll 2 levels & widen",
              {13.92, 13.90, 13.92, 10.17, 9.48}},
         }},
        {"DCT - row/column",
         "dct-rowcol",
         4,
         {
             {"Sequential-unoptimized",
              {135.0, 129.5, 129.5, 135.0, 129.5}},
             {"Unrolled inner loop",
              {97.98, 92.45, 92.45, 97.98, 92.45}},
             {"List Scheduled", {4.92, 4.84, 4.92, 3.33, 3.15}},
             {"SW pipelined & predicated",
              {4.58, 4.43, 4.58, 3.25, 3.07}},
             {"+arithmetic optimization",
              {2.85, 2.84, 2.85, 2.30, 2.13}},
             {"+unroll 2 levels & widen",
              {2.70, 2.70, 2.70, 2.38, 2.20}},
         }},
        {"RGB:YCrCb converter/subsampler",
         "colorconv",
         4,
         {
             {"Sequential", {15.15, 13.24, 13.24, 15.15, 13.24}},
             {"Sequential-unrolled",
              {12.15, 10.42, 10.42, 12.15, 10.42}},
             {"List-scheduled", {0.59, 0.59, 0.64, 0.40, 0.39}},
             {"SW Pipelined & predicated",
              {0.46, 0.41, 0.42, 0.40, 0.38}},
         }},
        {"Variable-Bit-Rate Coder",
         "vbr",
         48,
         {
             {"Sequential", {4.44, 4.21, 4.44, 4.44, 4.44}},
             {"Sequential-predicated",
              {4.37, 4.02, 4.37, 4.37, 4.37}},
             {"List-scheduled", {2.62, 2.62, 2.96, 2.74, 2.74}},
             {"List-scheduled-predicated",
              {1.78, 1.76, 1.78, 1.99, 1.99}},
             {"SW pipelined + comp. pred.",
              {1.81, 1.79, 1.81, 2.01, 2.01}},
             {"+phase pipelining", {1.76, 1.75, 1.76, 1.95, 1.93}},
         }},
    };
    specs.push_back(std::move(table1));

    // Table 2: 16-bit two-stage multipliers on both DCT kernels.
    ExperimentSpec table2;
    table2.name = "table2";
    table2.title = "Table 2: impact of 16-bit pipelined multipliers "
                   "on both DCTs";
    table2.models = kTable2Models;
    table2.sections = {
        {"DCT - traditional",
         "dct-trad",
         2,
         {
             {"Sequential-unoptimized",
              {703.1, 692.2, 271.9, 692.2, 271.9}},
             {"Unrolled inner loop",
              {305.5, 303.1, 117.5, 303.1, 117.5}},
             {"List Scheduled", {18.55, 18.55, 5.98, 20.67, 3.90}},
             {"SW pipelined & predicated",
              {14.79, 14.79, 4.68, 20.03, 3.38}},
             {"+unroll 2 levels & widen",
              {13.92, 13.92, 3.95, 18.96, 1.91}},
         }},
        {"DCT - row/column",
         "dct-rowcol",
         4,
         {
             {"Sequential-unoptimized",
              {135.0, 129.5, 63.16, 129.5, 63.16}},
             {"Unrolled inner loop",
              {97.98, 92.45, 25.23, 92.45, 25.23}},
             {"List Scheduled", {4.92, 4.92, 1.29, 6.31, 0.80}},
             {"SW pipelined & predicated",
              {4.58, 4.58, 1.03, 6.15, 0.77}},
             {"+unroll 2 levels & widen",
              {2.70, 2.70, 0.86, 4.41, 0.61}},
         }},
    };
    specs.push_back(std::move(table2));

    // Sec. 3.4.1 ablation: a second load/store unit with dual-ported
    // memory on the I4C8* models, against the load-bandwidth-rich
    // I2C16S4. No published per-cell values; the paper reports the
    // shape (gap closes on load-limited rows, vanishes with
    // blocking).
    ExperimentSpec ablation;
    ablation.name = "ablation";
    ablation.title = "Sec. 3.4.1 ablation: dual load/store units on "
                     "dual-ported memory";
    ablation.models = {"I4C8S4", "I4C8S4+2LS", "I2C16S4"};
    ablation.sections = {
        {"Full Motion Search",
         "fullsearch",
         2,
         {
             {"SW pipelined & unrolled", {}},
             {"SW pipelined & unrolled 2 lev.", {}},
             {"Blocking/Loop Exchange", {}},
         }},
    };
    specs.push_back(std::move(ablation));

    // Sec. 4 conclusions: each kernel's best schedule on the
    // reference model and the two viable small-cluster models; the
    // driver derives utilization, GOPS, and wall-clock speedups from
    // these cells.
    ExperimentSpec conclusions;
    conclusions.name = "conclusions";
    conclusions.title = "Sec. 4 conclusions: utilization, GOPS, "
                        "crossbar share, working sets, speedups";
    conclusions.models = {"I4C8S4", "I2C16S4", "I2C16S5"};
    conclusions.sections = {
        {"Full Motion Search",
         "fullsearch",
         2,
         {{"Add spec. op (blocked)", {}}}},
        {"Three-step Search",
         "threestep",
         2,
         {{"Add spec. op (SW pipelined)", {}}}},
        {"DCT - row/column",
         "dct-rowcol",
         3,
         {{"+arithmetic optimization", {}}}},
        {"RGB:YCrCb converter/subsampler",
         "colorconv",
         3,
         {{"SW Pipelined & predicated", {}}}},
    };
    specs.push_back(std::move(conclusions));

    // Utilization report: every model, each kernel's most-optimized
    // variant under the cycle simulator; the full-search band check
    // reuses the conclusions spec's cells.
    ExperimentSpec utilization;
    utilization.name = "utilization";
    utilization.title = "Datapath utilization and stall attribution "
                        "across all seven models";
    utilization.models = kAllModels;
    specs.push_back(std::move(utilization));

    // Figures 2-5 are VLSI-model sweeps with no experiment cells;
    // registered so `vvsp list` shows the complete artifact set.
    ExperimentSpec figs;
    figs.name = "figs";
    figs.title = "Figures 2-5: megacell delay/area sweeps and the "
                 "I4C8S4 area breakdown";
    specs.push_back(std::move(figs));

    return specs;
}

} // anonymous namespace

const SpecSection *
ExperimentSpec::section(const std::string &name) const
{
    for (const SpecSection &s : sections) {
        if (s.alias == name || s.kernel == name)
            return &s;
    }
    return nullptr;
}

const std::vector<ExperimentSpec> &
experimentSpecs()
{
    static const std::vector<ExperimentSpec> specs = buildSpecs();
    return specs;
}

const ExperimentSpec *
findExperimentSpec(const std::string &name)
{
    for (const ExperimentSpec &spec : experimentSpecs()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

SectionGrid
lowerSection(const ExperimentSpec &spec, const SpecSection &section,
             const std::vector<DatapathConfig> &model_filter,
             const std::string &variant_filter)
{
    SectionGrid grid;
    // Paper values are declared per spec column; when a model filter
    // subsets (or reorders) the columns, map each surviving model
    // back to its spec column by name (absent -> no paper value).
    std::vector<size_t> paper_col;
    if (model_filter.empty()) {
        const ModelRegistry &registry = ModelRegistry::instance();
        for (size_t col = 0; col < spec.models.size(); ++col) {
            grid.models.push_back(registry.get(spec.models[col]));
            paper_col.push_back(col);
        }
    } else {
        grid.models = model_filter;
        for (const DatapathConfig &m : model_filter) {
            size_t col = spec.models.size();
            for (size_t i = 0; i < spec.models.size(); ++i) {
                if (spec.models[i] == m.name)
                    col = i;
            }
            paper_col.push_back(col);
        }
    }

    const KernelSpec &kernel = kernelByName(section.kernel);
    for (size_t row = 0; row < section.rows.size(); ++row) {
        const SpecRow &r = section.rows[row];
        if (!variant_filter.empty() && r.variant != variant_filter)
            continue;
        grid.rowNames.push_back(r.variant);
        for (size_t col = 0; col < grid.models.size(); ++col) {
            ExperimentRequest req;
            req.kernel = &kernel;
            req.variant = &kernel.variant(r.variant);
            req.model = grid.models[col];
            req.profileUnits = section.profileUnits;
            grid.requests.push_back(req);
            double pv = paper_col[col] < r.paperMillions.size()
                            ? r.paperMillions[paper_col[col]]
                            : 0;
            grid.paperCycles.push_back(pv > 0 ? pv * 1e6 : 0);
        }
    }
    return grid;
}

double
Fidelity::geomeanErrPct() const
{
    if (cells == 0)
        return 0;
    return 100.0 * (std::exp(sumAbsLog / static_cast<double>(cells)) -
                    1.0);
}

void
Fidelity::record(const obs::StatsScope &scope) const
{
    if (cells == 0)
        return;
    scope.bump("geomean_err_mpct",
               static_cast<uint64_t>(std::llround(geomeanErrPct() * 1e3)));
    scope.bump("worst_factor_milli",
               static_cast<uint64_t>(std::llround(worstFactor * 1e3)));
    scope.bump("slower_cells", slower);
}

FidelityScorecard
scoreFidelity(const std::vector<SectionGrid> &grids,
              std::span<const ExperimentResult> results)
{
    FidelityScorecard card;
    size_t i = 0;
    for (const SectionGrid &grid : grids) {
        Fidelity &f = card.sections.emplace_back();
        for (size_t j = 0; j < grid.requests.size(); ++j, ++i) {
            const double paper = grid.paperCycles[j];
            const ExperimentResult &r = results[i];
            if (paper <= 0 || r.cyclesPerFrame <= 0)
                continue;
            const double log_ratio = std::log(r.cyclesPerFrame / paper);
            ++f.cells;
            f.sumAbsLog += std::abs(log_ratio);
            f.slower += log_ratio > 0;
            const double factor = std::exp(std::abs(log_ratio));
            if (factor > f.worstFactor) {
                f.worstFactor = factor;
                f.worstCell =
                    r.kernel + " / " + r.variant + " / " + r.model;
            }
        }
        card.batch.cells += f.cells;
        card.batch.sumAbsLog += f.sumAbsLog;
        card.batch.slower += f.slower;
        if (f.worstFactor > card.batch.worstFactor) {
            card.batch.worstFactor = f.worstFactor;
            card.batch.worstCell = f.worstCell;
        }
    }
    vvsp_assert(i == results.size(), "%zu results for %zu cells",
                results.size(), i);
    return card;
}

} // namespace vvsp
