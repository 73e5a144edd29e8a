#include "sim/cycle_sim.hh"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "ir/dependence_graph.hh"
#include "isa/disassembler.hh"
#include "isa/encoder.hh"
#include "kernels/composer.hh"
#include "obs/sim_telemetry.hh"
#include "obs/stats_registry.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "sched/reservation_table.hh"
#include "sim/interpreter.hh"
#include "support/logging.hh"

namespace vvsp
{

struct CycleSim::Engine
{
    Function &fn;
    const MachineModel &machine;
    ScheduleMode mode;
    MemoryImage &mem;
    CycleSimReport report;

    ListScheduler lsched;
    ModuloScheduler msched;
    BankOfFn bankOf;

    std::vector<uint16_t> regs;
    std::vector<Operation> pending;

    /** Hash for the acyclic-cache key (first op id, group size). */
    struct GroupKeyHash
    {
        size_t
        operator()(const std::pair<int, size_t> &k) const
        {
            // Op ids and sizes are small; golden-ratio mix is enough.
            return std::hash<size_t>()(
                static_cast<size_t>(k.first) * 0x9e3779b97f4a7c15ull +
                k.second);
        }
    };

    /**
     * One cached group: the schedule plus the ops it executes. For an
     * acyclic group they are in issue order, sorted once when the
     * schedule enters the cache. A SWP loop's trips run the
     * program-order body in swpOpsCache, so its `ops` are filled
     * only under the ISA round trip, with the decoded section's ops.
     */
    struct CachedGroup
    {
        BlockSchedule sched;
        std::vector<Operation> ops;
    };

    /** Schedule cache, keyed by the group's first op id and size.
     *  Hit once per executed group - hot enough to want O(1). */
    std::unordered_map<std::pair<int, size_t>, CachedGroup,
                       GroupKeyHash>
        acyclicCache;
    std::unordered_map<int, CachedGroup> moduloCache; // by loop id.
    std::unordered_map<int, std::vector<Operation>> ctrlCache;
    std::unordered_map<int, std::vector<Operation>> swpOpsCache;

    /** Sort/execute counters (null-sink scope when stats are off). */
    obs::StatsScope simStats;

    /** Execute decoded-from-binary code (CycleSim::setIsaRoundTrip). */
    bool isaRoundTrip = false;

    /** Telemetry sink; null when the run is uninstrumented. */
    obs::GroupTelemetry *telem = nullptr;
    /** Schedule-diagram sink; null when tracing is off. */
    obs::TraceWriter *trace = nullptr;
    int *tracePid = nullptr;
    const std::string *traceLabel = nullptr;
    /** Per-group utilization profiles, cached like the schedules. */
    std::unordered_map<std::pair<int, size_t>, obs::GroupTelemetry,
                       GroupKeyHash>
        acyclicTelem;
    std::unordered_map<int, obs::GroupTelemetry> moduloTelem;

    enum class Flow { Normal, Break };

    Engine(Function &f, const MachineModel &m, ScheduleMode md,
           MemoryImage &image, BankOfFn bank_of)
        : fn(f), machine(m), mode(md), mem(image), lsched(m, bank_of),
          msched(m, bank_of), bankOf(bank_of),
          regs(f.numVregs() + 4096, 0),
          simStats(obs::globalScope("sim"))
    {
    }

    uint16_t value(const Operand &o) const { return operandValue(o, regs); }

    void
    growRegs()
    {
        if (fn.numVregs() > regs.size())
            regs.resize(fn.numVregs() + 4096, 0);
    }

    /**
     * Independently re-verify a schedule: resource legality by
     * deriving a witness slot for every op (panics if one finds
     * none) and dependence timing via a rebuilt dependence graph.
     * Returns the witness slots, parallel to `ops`.
     */
    std::vector<int>
    verifySchedule(const std::vector<Operation> &ops,
                   const BlockSchedule &sched, bool width1)
    {
        std::vector<int> slots = witnessSlots(ops, sched.placed, sched.ii,
                                              machine, bankOf, width1);
        DependenceGraph ddg(ops, machine.latencyFn(), sched.ii > 0);
        int ii = sched.ii > 0 ? sched.ii : 1 << 20;
        for (const auto &e : ddg.edges()) {
            int tf = sched.placed[static_cast<size_t>(e.from)].cycle;
            int tt = sched.placed[static_cast<size_t>(e.to)].cycle;
            vvsp_assert(tt + ii * e.distance >= tf + e.latency,
                        "timing violation %d -> %d (lat %d dist %d, "
                        "t %d -> %d, ii %d)",
                        e.from, e.to, e.latency, e.distance, tf, tt,
                        sched.ii);
        }
        return slots;
    }

    /**
     * Round-trip one scheduled group through the ISA: encode it as a
     * one-section module of binary instruction words, decode the
     * bytes back, and assert the re-encode is byte-identical. The
     * returned section holds the DECODED operations (program order,
     * placements recovered from the words), so executing its ops
     * provably runs the code in the instruction words.
     */
    IsaSection
    roundTripSection(const std::string &label,
                     const std::vector<Operation> &ops,
                     const BlockSchedule &sched, bool width1)
    {
        IsaModule module;
        module.machine = machine.name();
        module.name = fn.name;
        module.fmt = isaFormatFor(machine.config());
        module.sections.push_back(
            buildSection(label, ops, sched, width1, machine, bankOf));
        std::vector<uint8_t> bytes = encodeModule(module);
        IsaModule decoded;
        std::string error;
        vvsp_assert(decodeModule(bytes, decoded, &error),
                    "isa round-trip decode failed for '%s': %s",
                    label.c_str(), error.c_str());
        vvsp_assert(encodeModule(decoded) == bytes,
                    "isa round-trip re-encode of '%s' is not "
                    "byte-identical",
                    label.c_str());
        simStats.bump("isa_roundtrips");
        return std::move(decoded.sections.front());
    }

    /**
     * `ops` in issue order: by placed cycle, program order within a
     * cycle (anti-dependences always point forward in program order,
     * so that is safe). `placed` is parallel to `ops`.
     */
    template <typename Placement>
    static std::vector<Operation>
    issueOrder(const std::vector<Operation> &ops,
               const std::vector<Placement> &placed)
    {
        std::vector<size_t> order(ops.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&placed](size_t a, size_t b) {
                             return placed[a].cycle < placed[b].cycle;
                         });
        std::vector<Operation> sorted;
        sorted.reserve(ops.size());
        for (size_t i : order)
            sorted.push_back(ops[i]);
        return sorted;
    }

    /**
     * Execute `ops` once, in order. Branches and nops have no data
     * effect (control flow is the tree walk's); every other op counts
     * as executed or, when its predicate is off, nullified.
     */
    void
    execute(const std::vector<Operation> &ops)
    {
        for (const Operation &op : ops) {
            if (op.op == Opcode::Nop || op.info().isBranch)
                continue;
            if (!executeOperation(op, regs, mem)) {
                report.nullified++;
                continue;
            }
            report.operations++;
            if (op.op == Opcode::Xfer)
                report.transfers++;
        }
    }

    /** Execute an acyclic group: schedule (cached), verify, run. */
    void
    flush()
    {
        if (pending.empty())
            return;
        bool width1 = mode == ScheduleMode::Sequential;
        auto key = std::make_pair(pending.front().id, pending.size());
        auto it = acyclicCache.find(key);
        if (it == acyclicCache.end()) {
            BlockSchedule sched = lsched.schedule(pending, width1);
            verifySchedule(pending, sched, width1);
            if (trace) {
                obs::scheduleToTrace(
                    *trace, (*tracePid)++,
                    *traceLabel + "/group@op" +
                        std::to_string(key.first),
                    pending, sched, machine);
            }
            // The one and only issue-order sort for this group; every
            // later execution replays the sorted ops.
            simStats.bump("acyclic_group_sorts");
            std::vector<Operation> issued;
            if (isaRoundTrip) {
                IsaSection sec = roundTripSection(
                    "group@op" + std::to_string(key.first), pending,
                    sched, width1);
                issued = issueOrder(sec.ops, sec.placed);
            } else {
                issued = issueOrder(pending, sched.placed);
            }
            it = acyclicCache
                     .emplace(key, CachedGroup{std::move(sched),
                                               std::move(issued)})
                     .first;
        }
        const BlockSchedule &sched = it->second.sched;

        simStats.bump("acyclic_group_execs");
        execute(it->second.ops);

        if (telem) {
            auto tit = acyclicTelem.find(key);
            if (tit == acyclicTelem.end()) {
                tit = acyclicTelem
                          .emplace(key,
                                   obs::analyzeSchedule(
                                       pending, sched, machine,
                                       bankOf))
                          .first;
            }
            telem->addScaled(tit->second, 1);
        }

        report.cycles += static_cast<uint64_t>(sched.length);
        report.instructions +=
            static_cast<uint64_t>(sched.length);
        pending.clear();
    }

    void
    append(const std::vector<Operation> &ops)
    {
        pending.insert(pending.end(), ops.begin(), ops.end());
    }

    void
    appendBranchAndFlush(Operand cond)
    {
        Operation br;
        br.op = cond.isNone() ? Opcode::Br : Opcode::BrCond;
        if (!cond.isNone())
            br.src[0] = cond;
        br.id = fn.newOpId();
        pending.push_back(br);
        flush();
    }

    const std::vector<Operation> &
    controlFor(const LoopNode &loop)
    {
        auto it = ctrlCache.find(loop.id);
        if (it == ctrlCache.end()) {
            it = ctrlCache.emplace(loop.id, loopControlOps(fn, loop))
                     .first;
            growRegs();
        }
        return it->second;
    }

    void
    runSwpLoop(const LoopNode &loop)
    {
        auto oit = swpOpsCache.find(loop.id);
        if (oit == swpOpsCache.end()) {
            std::vector<Operation> ops;
            for (const auto &n : loop.body) {
                const auto &block = static_cast<const BlockNode &>(*n);
                ops.insert(ops.end(), block.ops.begin(),
                           block.ops.end());
            }
            const auto &ctrl = controlFor(loop);
            ops.insert(ops.end(), ctrl.begin(), ctrl.end());
            oit = swpOpsCache.emplace(loop.id, std::move(ops)).first;
        }
        const auto &ops = oit->second;

        auto mit = moduloCache.find(loop.id);
        if (mit == moduloCache.end()) {
            BlockSchedule sched =
                msched.schedule(ops, machine.registersPerCluster());
            std::vector<int> slots = verifySchedule(ops, sched, false);
            if (trace) {
                // The placer records no slots; draw the witness ones.
                BlockSchedule drawn = sched;
                for (size_t i = 0; i < slots.size(); ++i)
                    drawn.placed[i].slot = slots[i];
                obs::scheduleToTrace(*trace, (*tracePid)++,
                                     *traceLabel + "/swp:" +
                                         loop.label,
                                     ops, drawn, machine);
            }
            simStats.bump("swp_loop_schedules");
            std::vector<Operation> decoded;
            if (isaRoundTrip) {
                decoded = roundTripSection("swp:" + loop.label, ops,
                                           sched, false)
                              .ops;
            }
            mit = moduloCache
                      .emplace(loop.id, CachedGroup{std::move(sched),
                                                    std::move(decoded)})
                      .first;
        }
        const BlockSchedule &sched = mit->second.sched;
        // Trip bodies execute in program order (iteration overlap is
        // accounted analytically).
        const std::vector<Operation> &body =
            isaRoundTrip ? mit->second.ops : ops;

        uint16_t base = value(loop.ivInit);
        for (long k = 0; k < loop.tripCount; ++k) {
            if (loop.inductionVar != kNoVreg) {
                regs.at(loop.inductionVar) = static_cast<uint16_t>(
                    base + k * loop.step);
            }
            execute(body);
        }
        if (telem && loop.tripCount > 0) {
            auto tit = moduloTelem.find(loop.id);
            if (tit == moduloTelem.end()) {
                tit = moduloTelem
                          .emplace(loop.id,
                                   obs::analyzeSchedule(
                                       ops, sched, machine, bankOf))
                          .first;
            }
            telem->addScaled(
                tit->second,
                static_cast<uint64_t>(loop.tripCount));
            uint64_t ramp = static_cast<uint64_t>(
                sched.prologueCycles() + sched.epilogueCycles());
            if (ramp > 0)
                telem->addScaled(obs::idleWindow(machine, ramp), 1);
        }
        report.cycles +=
            static_cast<uint64_t>(sched.prologueCycles()) +
            static_cast<uint64_t>(sched.ii) * loop.tripCount +
            static_cast<uint64_t>(sched.epilogueCycles());
        report.instructions += static_cast<uint64_t>(
            sched.ii * loop.tripCount);
    }

    Flow
    runLoop(const LoopNode &loop)
    {
        flush();
        if (swpEligibleLoop(loop, mode)) {
            runSwpLoop(loop);
            return Flow::Normal;
        }
        const auto &ctrl = controlFor(loop);
        uint16_t base = value(loop.ivInit);
        uint64_t iter = 0;
        Flow flow = Flow::Normal;
        while (loop.tripCount < 0 ||
               iter < static_cast<uint64_t>(loop.tripCount)) {
            vvsp_assert(iter < (1ull << 24),
                        "runaway dynamic loop '%s'",
                        loop.label.c_str());
            if (loop.inductionVar != kNoVreg) {
                regs.at(loop.inductionVar) = static_cast<uint16_t>(
                    base + iter * static_cast<uint64_t>(loop.step));
            }
            Flow f = runList(loop.body);
            if (f == Flow::Break) {
                flow = Flow::Normal;
                flush();
                return flow;
            }
            append(ctrl);
            flush();
            ++iter;
        }
        return Flow::Normal;
    }

    Flow
    runList(const NodeList &list)
    {
        for (const auto &n : list) {
            switch (n->kind()) {
              case NodeKind::Block:
                append(static_cast<const BlockNode &>(*n).ops);
                break;
              case NodeKind::Loop: {
                Flow f = runLoop(static_cast<const LoopNode &>(*n));
                if (f == Flow::Break)
                    return f;
                break;
              }
              case NodeKind::If: {
                const auto &iff = static_cast<const IfNode &>(*n);
                // The pending group computes the condition; it must
                // execute before the condition is read.
                appendBranchAndFlush(iff.cond);
                bool taken = (value(iff.cond) != 0) == iff.sense;
                if (taken) {
                    Flow f = runList(iff.thenBody);
                    if (f == Flow::Break)
                        return f;
                    if (!iff.elseBody.empty())
                        appendBranchAndFlush(Operand::none());
                } else {
                    Flow f = runList(iff.elseBody);
                    if (f == Flow::Break)
                        return f;
                }
                flush();
                break;
              }
              case NodeKind::Break: {
                const auto &brk = static_cast<const BreakNode &>(*n);
                appendBranchAndFlush(brk.cond);
                bool fires = brk.cond.isNone() ||
                             (value(brk.cond) != 0) == brk.sense;
                if (fires)
                    return Flow::Break;
                break;
              }
            }
        }
        return Flow::Normal;
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
    BankOfFn bank_of = [&fn](int buffer) {
        return fn.buffer(buffer).bank;
    };
    Engine engine(fn, machine_, mode_, mem, bank_of);
    engine.isaRoundTrip = isaRoundTrip_;
    engine.telem = telemetry;
    if (trace_) {
        engine.trace = trace_;
        engine.tracePid = &nextTracePid_;
        engine.traceLabel = &traceLabel_;
    }
    engine.runList(fn.body);
    engine.flush();
    return engine.report;
}

} // namespace vvsp
