/**
 * @file
 * Experiment driver: the stages that evaluate a (kernel variant x
 * datapath model) cell of Tables 1-2.
 *
 * Stages of a cell (core/sweep.cc runs them for a whole batch, each
 * once per distinct input):
 *  1. disk lookup of the finished cell by content key;
 *  2. machine-free lowering prefix (lowerMachineFree): build the
 *     variant's IR, apply its transform recipe, cleanup, strength
 *     reduction;
 *  3. per-target lowering of a clone of the prefix
 *     (lowerForMachine), which reads the machine only through its
 *     LoweringTarget: 16x16 multiply decomposition, addressing-mode
 *     split/fold, cleanup, cluster ganging (hand-assigned or greedy)
 *     and inter-cluster transfer insertion, memory-bank numbering;
 *     then, per cell, the checks against the cell's own machine
 *     (checkForMachine: cluster range and bank capacity);
 *  4. functional validation (interpretCell): the bytecode engine's
 *     output buffers must match the golden reference bit-exactly on
 *     several units, and the run yields the execution profile;
 *  5. composition (composeCell): schedule every region and scale by
 *     profile and frame geometry to cycles per frame; then the disk
 *     store.
 */

#ifndef VVSP_CORE_EXPERIMENT_HH
#define VVSP_CORE_EXPERIMENT_HH

#include <string>

#include "arch/machine_model.hh"
#include "kernels/composer.hh"
#include "kernels/kernel.hh"

namespace vvsp
{

class DiskCache;

/** One Table 1/2 cell to evaluate. */
struct ExperimentRequest
{
    const KernelSpec *kernel = nullptr;
    const VariantSpec *variant = nullptr;
    DatapathConfig model;
    FrameGeometry geometry = FrameGeometry::ccir601();
    /** Units to interpret, each checked against the golden
     *  reference; their profiles are averaged. */
    int profileUnits = 4;
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
 * The outcome of a cell's interpreter stage: the averaged profile
 * (after profileUnits scaling) and the golden-check verdict.
 */
struct UnitProfileEntry
{
    AvgProfile avg;
    bool checked = false;
    bool passed = false;
    std::string note;
};

/**
 * Run one cell: the batch pipeline of core/sweep.cc (where it is
 * defined) on a batch of one, inline on the caller. With a disk
 * cache, the finished cell is looked up before any work and stored
 * after it (see disk_cache.hh); cached and uncached evaluations
 * produce identical results.
 */
ExperimentResult runExperiment(const ExperimentRequest &req,
                               DiskCache *disk = nullptr);

/**
 * Stage 2: the machine-free front of lowering (build, verify,
 * transform, verify, cleanup, strength reduction). Every model of a
 * variant starts from the same prefix.
 */
Function lowerMachineFree(const VariantSpec &variant);

/**
 * The machine a variant runs on: `model`, with the absolute-
 * difference ALU added when the variant needs it and the model lacks
 * it (the "Add spec. op" rows). The name is kept, so a cell still
 * reports, and is keyed by, the model it was asked for.
 */
DatapathConfig variantConfig(const VariantSpec &variant,
                             DatapathConfig model);

/**
 * The LoweringTarget (arch/machine_model.hh) of a variant on a
 * machine: ganged variants partition over min(gang, clusters)
 * clusters, the others over one.
 */
LoweringTarget loweringTarget(const VariantSpec &variant,
                              const MachineModel &machine);

/**
 * Stage 3: lower a machine-free prefix (in place) for a target.
 * Every machine with this target gets the same function.
 */
void lowerForMachine(Function &fn, const LoweringTarget &target);

/**
 * Stage 3, per cell: the checks a lowering must pass on the cell's
 * own machine (validateClusterAssignment, checkBankCapacity); fatal
 * when one fails.
 */
void checkForMachine(const Function &fn, const MachineModel &machine);

/**
 * Lower a variant's IR for a machine (stages 2-3: prefix, the
 * machine's target, its checks) without running it; exposed for
 * tests, the cycle simulator and `vvsp asm`.
 */
Function lowerVariant(const KernelSpec &kernel,
                      const VariantSpec &variant,
                      const MachineModel &machine);

/**
 * Stage 4: interpret `fn` on the request's units with the bytecode
 * engine, checking each against the golden reference. Depends on the
 * machine only through `fn`.
 */
UnitProfileEntry interpretCell(const ExperimentRequest &req,
                               const Function &fn);

/**
 * Stage 5: compose `fn` on `machine` with the interpreter's profile
 * into the cell's finished result.
 */
ExperimentResult composeCell(const ExperimentRequest &req,
                             const MachineModel &machine, Function &fn,
                             const UnitProfileEntry &profile);

/** Round-robin each cluster's buffers onto its `banks` banks. */
void assignBanks(Function &fn, int banks);

/**
 * Fatal unless every (cluster, bank) working set fits one bank of
 * `machine`.
 */
void checkBankCapacity(const Function &fn, const MachineModel &machine);

} // namespace vvsp

#endif // VVSP_CORE_EXPERIMENT_HH
