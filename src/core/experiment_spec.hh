/**
 * @file
 * Declarative experiment registry.
 *
 * Every experiment the repo reproduces — the Table 1 sections, Table
 * 2, the dual-load/store ablation, the Sec. 4 conclusions cells, the
 * utilization report — is declared here as *data*: a named spec
 * holding a model set (registry names), kernel sections (variant
 * rows with the paper's published values), and per-section profile
 * depths. Specs are lowered onto ExperimentRequests and evaluated by
 * the SweepRunner; the `vvsp` CLI driver is a thin renderer over
 * this registry, and new experiments are added by declaring a spec,
 * not by writing a new binary.
 */

#ifndef VVSP_CORE_EXPERIMENT_SPEC_HH
#define VVSP_CORE_EXPERIMENT_SPEC_HH

#include <span>
#include <string>
#include <vector>

#include "arch/datapath_config.hh"
#include "core/experiment.hh"

namespace vvsp
{

namespace obs
{
class StatsScope;
} // namespace obs

/**
 * One table row: a schedule variant plus the paper's published
 * value per model column, in millions of cycles per frame (0 = the
 * paper prints no value for that cell).
 */
struct SpecRow
{
    std::string variant;
    std::vector<double> paperMillions;
};

/** One kernel section of a spec (one sub-table). */
struct SpecSection
{
    /** Kernel name as registered in kernels/kernel.hh. */
    std::string kernel;
    /** Short CLI alias, e.g. "colorconv". */
    std::string alias;
    /** Units to interpret for validation and profiling. */
    int profileUnits = 4;
    std::vector<SpecRow> rows;
};

/** One named, declarative experiment. */
struct ExperimentSpec
{
    /** CLI name, e.g. "table1". */
    std::string name;
    std::string title;
    /** Model registry names, in column order (may use +suffixes). */
    std::vector<std::string> models;
    std::vector<SpecSection> sections;

    /** Section by CLI alias or kernel name; nullptr when absent. */
    const SpecSection *section(const std::string &name) const;
};

/** All registered specs, in presentation order. */
const std::vector<ExperimentSpec> &experimentSpecs();

/** Spec by CLI name; nullptr when unknown. */
const ExperimentSpec *findExperimentSpec(const std::string &name);

/**
 * One section's grid, lowered onto experiment requests: row-major
 * (variant-major) over the spec's resolved model columns, exactly as
 * the SweepRunner consumes it. `paperCycles` is per-request, in raw
 * cycles per frame (0 when the paper has no value).
 */
struct SectionGrid
{
    std::vector<DatapathConfig> models;
    std::vector<ExperimentRequest> requests;
    std::vector<double> paperCycles;
    std::vector<std::string> rowNames;
};

/**
 * How far a set of cells lies from the paper's published values;
 * cells the paper prints no value for do not count. Over Table 1,
 * geomeanErrPct() is the benchmark's paper_err_pct.
 */
struct Fidelity
{
    /** Cells with a published value. */
    size_t cells = 0;
    /** Sum of |ln(measured / paper)| over those cells. */
    double sumAbsLog = 0;
    /** Cells that take more cycles than the paper's. */
    size_t slower = 0;
    /** The cell farthest from its paper value, as a factor >= 1... */
    double worstFactor = 1;
    /** ... and it, as "kernel / variant / model". */
    std::string worstCell;

    /** 100 * (exp(mean |ln(measured / paper)|) - 1), in percent. */
    double geomeanErrPct() const;

    /**
     * Record under `scope` as integer counters, each lower-is-better:
     * geomean_err_mpct (thousandths of a percent), worst_factor_milli
     * (thousandths) and slower_cells. Nothing without cells.
     */
    void record(const obs::StatsScope &scope) const;
};

/** A batch's Fidelity, section by section and over the whole batch. */
struct FidelityScorecard
{
    std::vector<Fidelity> sections;
    Fidelity batch;
};

/**
 * Score a batch of section grids against the paper: `results` holds
 * the cells of `grids` in order, as one SweepRunner batch returns
 * them.
 */
FidelityScorecard scoreFidelity(const std::vector<SectionGrid> &grids,
                                std::span<const ExperimentResult> results);

/**
 * Lower a section through the model registry. `model_filter` (a
 * resolved model set) overrides the spec's columns when non-empty;
 * `variant_filter` keeps only the named row when non-empty. Kernel
 * and variant specs referenced by the requests live in the static
 * kernel registry, so the grid is self-contained.
 */
SectionGrid
lowerSection(const ExperimentSpec &spec, const SpecSection &section,
             const std::vector<DatapathConfig> &model_filter = {},
             const std::string &variant_filter = "");

} // namespace vvsp

#endif // VVSP_CORE_EXPERIMENT_SPEC_HH
