/**
 * @file
 * Cluster assignment and inter-cluster transfer insertion.
 *
 * Most kernel variants replicate the whole computation SIMD-style
 * across identical clusters (Sec. 3.3), which needs no transfers:
 * everything stays on cluster 0 and the frame composer divides the
 * do-all trip count by the cluster count. Variants that gang several
 * clusters on one loop body ("the code is scheduled across four
 * clusters in order to gain extra resources", Sec. 3.3; the VBR
 * coder on the whole 33-issue machine) assign ops to clusters -
 * either by the kernel author or by the greedy partitioner here -
 * and then Xfer operations are inserted for every value that crosses
 * a register-file boundary.
 *
 * Loop induction variables are exempt from transfers: the single
 * control unit sequences all clusters, so loop counters are
 * architecturally visible everywhere.
 */

#ifndef VVSP_SCHED_CLUSTER_ASSIGN_HH
#define VVSP_SCHED_CLUSTER_ASSIGN_HH

#include <set>

#include "arch/machine_model.hh"
#include "ir/function.hh"

namespace vvsp
{

/**
 * Greedily spread operations over the target's partitionClusters
 * clusters: memory ops go to their buffer's cluster, other ops
 * follow their operands' homes with load balancing as the tie-break.
 */
void autoPartition(Function &fn, const LoweringTarget &target);

/**
 * Insert Xfer operations for every cross-cluster register use and
 * rewrite consumers. Call after cluster assignment, before
 * scheduling. Induction variables never transfer.
 */
void insertTransfers(Function &fn);

/**
 * Clone read-only buffers (coefficient ROMs, input blocks) onto
 * every cluster that loads them and retarget those loads; clones
 * keep the original buffer name so workload preparation fills all
 * copies. Run between autoPartition and insertTransfers.
 */
void replicateReadOnlyBuffers(Function &fn);

/** Panic if a memory op sits on a different cluster than its buffer
 *  or any cluster index is out of range. */
void validateClusterAssignment(const Function &fn,
                               const MachineModel &machine);

/** Collect the induction variables of every loop in the function. */
std::set<Vreg> inductionVars(const Function &fn);

} // namespace vvsp

#endif // VVSP_SCHED_CLUSTER_ASSIGN_HH
