/**
 * @file
 * Umbrella header: the full public API of the vvsp library.
 *
 * vvsp reproduces "Datapath Design for a VLIW Video Signal
 * Processor" (Wolfe, Fritts, Dutta, Fernandes; HPCA 1997): VLSI
 * megacell models, the seven candidate datapath models, a VLIW
 * compiler substrate (IR, transformations, list and modulo
 * schedulers, cluster assignment), functional and cycle-level
 * simulators, the six MPEG kernels with the paper's schedule
 * variants, and the experiment machinery regenerating Tables 1-2 and
 * Figures 2-5.
 */

#ifndef VVSP_CORE_VVSP_HH
#define VVSP_CORE_VVSP_HH

#include "arch/datapath_config.hh"
#include "arch/machine_model.hh"
#include "arch/models.hh"
#include "core/design_space.hh"
#include "core/experiment.hh"
#include "core/experiment_cache.hh"
#include "core/sweep.hh"
#include "ir/builder.hh"
#include "ir/dependence_graph.hh"
#include "ir/function.hh"
#include "ir/verifier.hh"
#include "kernels/composer.hh"
#include "kernels/kernel.hh"
#include "sched/cluster_assign.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "sched/reg_pressure.hh"
#include "sim/cycle_sim.hh"
#include "sim/interpreter.hh"
#include "sim/memory_image.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "video/bitstream.hh"
#include "video/frame.hh"
#include "video/mpeg.hh"
#include "video/synthetic.hh"
#include "vlsi/area_estimator.hh"
#include "vlsi/clock_estimator.hh"
#include "vlsi/crossbar_model.hh"
#include "vlsi/fu_model.hh"
#include "vlsi/regfile_model.hh"
#include "vlsi/sram_model.hh"
#include "vlsi/technology.hh"
#include "xform/passes.hh"

#endif // VVSP_CORE_VVSP_HH
