/**
 * @file
 * Experiment driver: runs one (kernel variant x datapath model) cell
 * of Tables 1-2.
 *
 * Pipeline per cell:
 *  1. build the variant's IR and apply its machine-independent
 *     transform recipe;
 *  2. machine-dependent lowering: strength reduction, 16x16 multiply
 *     decomposition, addressing-mode split/fold, cleanup;
 *  3. cluster ganging (hand-assigned or greedy) and inter-cluster
 *     transfer insertion, memory-bank assignment, capacity checks;
 *  4. functional validation: the interpreter's output buffers must
 *     match the golden reference bit-exactly on several units, and
 *     the run yields the execution profile;
 *  5. composition: schedule every region and scale by profile and
 *     frame geometry to cycles per frame.
 */

#ifndef VVSP_CORE_EXPERIMENT_HH
#define VVSP_CORE_EXPERIMENT_HH

#include <string>

#include "arch/machine_model.hh"
#include "kernels/composer.hh"
#include "kernels/kernel.hh"

namespace vvsp
{

class ExperimentCache;

/** One Table 1/2 cell to evaluate. */
struct ExperimentRequest
{
    const KernelSpec *kernel = nullptr;
    const VariantSpec *variant = nullptr;
    DatapathConfig model;
    FrameGeometry geometry = FrameGeometry::ccir601();
    /** Units to interpret for validation and profiling. */
    int profileUnits = 4;
    uint64_t seed = 1;
    /** Validate against the golden reference (also profiles). */
    bool check = true;
};

/** One evaluated cell. */
struct ExperimentResult
{
    std::string kernel;
    std::string variant;
    std::string model;
    double cyclesPerUnit = 0;
    double cyclesPerFrame = 0;
    double unitsPerFrame = 0;
    /** Units processed concurrently (SIMD replication factor). */
    double replication = 1;
    bool checked = false;
    bool passed = false;
    CompositionResult comp;
    std::string note;
};

/**
 * Run one cell. With a cache, the interpreter profile and (when a
 * disk layer is attached) the whole result are memoized by content
 * key (see experiment_cache.hh); cached and uncached evaluations
 * produce identical results.
 */
ExperimentResult runExperiment(const ExperimentRequest &req,
                               ExperimentCache *cache = nullptr);

/**
 * Lower a variant's IR for a machine (steps 1-3 above) without
 * running it; exposed for tests and the cycle simulator.
 */
Function lowerVariant(const KernelSpec &kernel,
                      const VariantSpec &variant,
                      const MachineModel &machine);

/** Round-robin buffers onto the cluster's memory banks. */
void assignBanks(Function &fn, const MachineModel &machine);

} // namespace vvsp

#endif // VVSP_CORE_EXPERIMENT_HH
