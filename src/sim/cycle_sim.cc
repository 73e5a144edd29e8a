#include "sim/cycle_sim.hh"

#include <algorithm>
#include <numeric>
#include <string>

#include "ir/dependence_graph.hh"
#include "kernels/composer.hh"
#include "obs/sim_telemetry.hh"
#include "obs/stats_registry.hh"
#include "sched/reservation_table.hh"
#include "sim/interpreter.hh"
#include "support/logging.hh"

namespace vvsp
{

struct CycleSim::Engine
{
    const MachineModel &machine;
    const KernelSchedule &ks;
    MemoryImage &mem;
    BankOfFn bankOf;
    CycleSimReport report;

    std::vector<uint16_t> regs;
    /** Block ops the walk reached since the last group closed. */
    size_t pendingOps = 0;

    /** What a group's first execution in this run derives. */
    struct Checked
    {
        bool done = false;
        /** Acyclic groups: op indices in issue order. */
        std::vector<uint32_t> issue;
        /** Utilization profile (instrumented runs only). */
        obs::GroupTelemetry telemetry;
    };
    std::vector<Checked> checked;

    /** Sort/execute counters (null-sink scope when stats are off). */
    obs::StatsScope simStats = obs::globalScope("sim");

    /** Telemetry sink; null when the run is uninstrumented. */
    obs::GroupTelemetry *telem = nullptr;
    /** Schedule-diagram sink; null when tracing is off. */
    obs::TraceWriter *trace = nullptr;
    /** The simulator's counter of diagram trace process ids. */
    int *nextPid = nullptr;
    const std::string *traceLabel = nullptr;

    Engine(const Function &fn, const MachineModel &m,
           const KernelSchedule &schedule, MemoryImage &image)
        : machine(m), ks(schedule), mem(image),
          bankOf([&fn](int buffer) { return fn.buffer(buffer).bank; }),
          regs(fn.numVregs(), 0), checked(schedule.groups.size())
    {
    }

    uint16_t value(const Operand &o) const { return operandValue(o, regs); }

    /**
     * Independently re-verify the section a group runs: resource
     * legality by deriving a witness slot for every placement (panics
     * if one finds none) and dependence timing via a rebuilt
     * dependence graph.
     */
    void
    verify(const IsaSection &sec)
    {
        const std::vector<Operation> &ops = sec.ops;
        vvsp_assert(ops.size() == sec.placed.size(),
                    "section '%s' holds %zu ops and %zu placements",
                    sec.label.c_str(), ops.size(), sec.placed.size());
        witnessSlots(ops, sec.placed, sec.ii, machine, bankOf, sec.width1);
        DependenceGraph ddg(ops, machine.latencyFn(), sec.modulo);
        int ii = sec.modulo ? sec.ii : 1 << 20;
        for (const auto &e : ddg.edges()) {
            int tf = sec.placed[static_cast<size_t>(e.from)].cycle;
            int tt = sec.placed[static_cast<size_t>(e.to)].cycle;
            vvsp_assert(tt + ii * e.distance >= tf + e.latency,
                        "timing violation %d -> %d (lat %d dist %d, "
                        "t %d -> %d, ii %d)",
                        e.from, e.to, e.latency, e.distance, tf, tt,
                        sec.ii);
        }
    }

    /**
     * Group `g` as this run executes it: verified, drawn, analyzed
     * and (acyclic groups) put into issue order on its first
     * execution; later executions replay that.
     */
    const Checked &
    check(int g)
    {
        Checked &c = checked[static_cast<size_t>(g)];
        if (c.done)
            return c;
        c.done = true;
        const ScheduledGroup &group = ks.groups[static_cast<size_t>(g)];
        const IsaSection &sec = ks.module.sections[static_cast<size_t>(g)];
        verify(sec);
        if (trace) {
            // Named by section label and module position, as `vvsp
            // asm` prints them.
            std::string name = *traceLabel + "/" +
                               (sec.label.empty() ? "section" : sec.label) +
                               "#" + std::to_string(g);
            obs::scheduleToTrace(*trace, (*nextPid)++, name, sec,
                                 machine);
        }
        if (group.site != GroupSite::SwpLoop) {
            // By placed cycle, program order within a cycle
            // (anti-dependences always point forward in program
            // order, so that is safe).
            c.issue.resize(sec.ops.size());
            std::iota(c.issue.begin(), c.issue.end(), 0u);
            std::stable_sort(c.issue.begin(), c.issue.end(),
                             [&sec](uint32_t a, uint32_t b) {
                                 return sec.placed[a].cycle <
                                        sec.placed[b].cycle;
                             });
            simStats.bump("acyclic_group_sorts");
        }
        if (telem)
            c.telemetry = obs::analyzeSchedule(sec, group.resMii,
                                               group.recMii, machine,
                                               bankOf);
        return c;
    }

    /**
     * Execute one op. Branches and nops have no data effect (control
     * flow is the tree walk's); every other op counts as executed
     * or, when its predicate is off, nullified.
     */
    void
    step(const Operation &op)
    {
        if (op.op == Opcode::Nop || op.info().isBranch)
            return;
        if (!executeOperation(op, regs, mem)) {
            report.nullified++;
            return;
        }
        report.operations++;
        if (op.op == Opcode::Xfer)
            report.transfers++;
    }

    /** Run the acyclic group that closes at `site` of `node`. */
    void
    runAt(int node, GroupSite site)
    {
        int g = ks.groupAt(node, site);
        vvsp_assert(g >= 0, "no group closes at site %d of node %d",
                    static_cast<int>(site), node);
        const ScheduledGroup &group = ks.groups[static_cast<size_t>(g)];
        vvsp_assert(pendingOps == static_cast<size_t>(group.blockOps),
                    "the walk reached %zu block ops of group %d, which "
                    "holds %d",
                    pendingOps, g, group.blockOps);
        pendingOps = 0;
        const Checked &c = check(g);
        const IsaSection &sec = ks.module.sections[static_cast<size_t>(g)];
        for (uint32_t i : c.issue)
            step(sec.ops[i]);
        simStats.bump("acyclic_group_execs");
        if (telem)
            telem->addScaled(c.telemetry, 1);
        report.cycles += static_cast<uint64_t>(sec.length);
        report.instructions += static_cast<uint64_t>(sec.length);
    }

    /** A site that only closes the pending ops runs when there are
     *  some. */
    void
    flushAt(int node, GroupSite site)
    {
        if (pendingOps > 0)
            runAt(node, site);
    }

    void
    runSwpLoop(const LoopNode &loop, int g)
    {
        const Checked &c = check(g);
        const IsaSection &sec = ks.module.sections[static_cast<size_t>(g)];
        // Trip bodies execute in program order (iteration overlap is
        // accounted analytically).
        uint16_t base = value(loop.ivInit);
        for (long k = 0; k < loop.tripCount; ++k) {
            if (loop.inductionVar != kNoVreg) {
                regs.at(loop.inductionVar) = static_cast<uint16_t>(
                    base + k * loop.step);
            }
            for (const Operation &op : sec.ops)
                step(op);
        }
        // A budget-degraded fallback is acyclic: length cycles per
        // trip, no fill or drain.
        const uint64_t trips = static_cast<uint64_t>(loop.tripCount);
        const uint64_t ramp = static_cast<uint64_t>(sec.rampCycles());
        const uint64_t per_trip =
            static_cast<uint64_t>(sec.modulo ? sec.ii : sec.length);
        if (telem) {
            telem->addScaled(c.telemetry, trips);
            if (ramp > 0)
                telem->addScaled(obs::idleWindow(machine, ramp), 1);
        }
        report.cycles += ramp + per_trip * trips;
        report.instructions += per_trip * trips;
    }

    void
    runLoop(const LoopNode &loop)
    {
        flushAt(loop.id, GroupSite::BeforeLoop);
        int swp = ks.groupAt(loop.id, GroupSite::SwpLoop);
        if (swp >= 0) {
            runSwpLoop(loop, swp);
            return;
        }
        uint16_t base = value(loop.ivInit);
        for (long k = 0; k < loop.tripCount; ++k) {
            if (loop.inductionVar != kNoVreg) {
                regs.at(loop.inductionVar) = static_cast<uint16_t>(
                    base + k * loop.step);
            }
            runList(loop.body);
            runAt(loop.id, GroupSite::BackEdge);
        }
    }

    void
    runList(const NodeList &list)
    {
        for (const auto &n : list) {
            switch (n->kind()) {
              case NodeKind::Block:
                pendingOps += static_cast<const BlockNode &>(*n).ops.size();
                break;
              case NodeKind::Loop:
                runLoop(static_cast<const LoopNode &>(*n));
                break;
              case NodeKind::If: {
                const auto &iff = static_cast<const IfNode &>(*n);
                // The closed group computes the condition; it must
                // execute before the condition is read.
                runAt(iff.id, GroupSite::IfCond);
                bool taken = (value(iff.cond) != 0) == iff.sense;
                runList(taken ? iff.thenBody : iff.elseBody);
                if (iff.elseBody.empty()) {
                    flushAt(iff.id, GroupSite::ThenEnd);
                } else if (taken) {
                    runAt(iff.id, GroupSite::ThenEnd);
                } else {
                    flushAt(iff.id, GroupSite::ElseEnd);
                }
                break;
              }
            }
        }
    }
};

CycleSim::CycleSim(const MachineModel &machine, ScheduleMode mode)
    : machine_(machine), mode_(mode)
{
}

CycleSimReport
CycleSim::run(Function &fn, MemoryImage &mem,
              obs::GroupTelemetry *telemetry)
{
    KernelSchedule schedule = Composer(machine_, mode_).schedule(fn);
    return run(fn, schedule, mem, telemetry);
}

CycleSimReport
CycleSim::run(const Function &fn, const KernelSchedule &schedule,
              MemoryImage &mem, obs::GroupTelemetry *telemetry)
{
    vvsp_assert(schedule.module.sections.size() == schedule.groups.size(),
                "schedule holds %zu sections for %zu groups",
                schedule.module.sections.size(), schedule.groups.size());
    return obs::timedPhase(obs::globalScope("phase"), "cycle_sim", [&] {
        Engine engine(fn, machine_, schedule, mem);
        engine.telem = telemetry;
        if (trace_) {
            engine.trace = trace_;
            engine.nextPid = &nextTracePid_;
            engine.traceLabel = &traceLabel_;
        }
        engine.runList(fn.body);
        engine.flushAt(-1, GroupSite::FunctionEnd);
        return engine.report;
    });
}

} // namespace vvsp
