#include "kernels/composer.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "obs/stats_registry.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "support/logging.hh"

namespace vvsp
{

AvgProfile::AvgProfile(int num_node_ids)
    : blockExec(static_cast<size_t>(num_node_ids), 0.0),
      loopEntries(static_cast<size_t>(num_node_ids), 0.0),
      loopIters(static_cast<size_t>(num_node_ids), 0.0),
      ifThen(static_cast<size_t>(num_node_ids), 0.0),
      ifElse(static_cast<size_t>(num_node_ids), 0.0)
{
}

void
AvgProfile::accumulate(const Profile &p)
{
    if (blockExec.size() < p.blockExec.size()) {
        blockExec.resize(p.blockExec.size(), 0.0);
        loopEntries.resize(p.blockExec.size(), 0.0);
        loopIters.resize(p.blockExec.size(), 0.0);
        ifThen.resize(p.blockExec.size(), 0.0);
        ifElse.resize(p.blockExec.size(), 0.0);
    }
    for (size_t i = 0; i < p.blockExec.size(); ++i) {
        blockExec[i] += static_cast<double>(p.blockExec[i]);
        loopEntries[i] += static_cast<double>(p.loopEntries[i]);
        loopIters[i] += static_cast<double>(p.loopIters[i]);
        ifThen[i] += static_cast<double>(p.ifThen[i]);
        ifElse[i] += static_cast<double>(p.ifElse[i]);
    }
}

void
AvgProfile::scale(double f)
{
    for (auto *v : {&blockExec, &loopEntries, &loopIters, &ifThen,
                    &ifElse}) {
        for (auto &x : *v)
            x *= f;
    }
}

std::string
CompositionResult::str() const
{
    std::ostringstream os;
    os << "cycles/unit=" << cyclesPerUnit
       << " instrs=" << totalInstructions
       << " hotLoopInstrs=" << hotLoopInstructions
       << " maxLive=" << maxLive << (icacheOk ? "" : " ICACHE-OVERFLOW")
       << (registersOk ? "" : " REGISTER-OVERFLOW");
    return os.str();
}

namespace
{

double
at(const std::vector<double> &v, int id)
{
    vvsp_assert(id >= 0 && id < static_cast<int>(v.size()),
                "profile missing node %d", id);
    return v[static_cast<size_t>(id)];
}

} // anonymous namespace

std::vector<Operation>
loopControlOps(Function &fn, const LoopNode &loop)
{
    std::vector<Operation> ops;
    if (loop.tripCount < 0) {
        Operation br;
        br.op = Opcode::Br;
        br.id = fn.newOpId();
        ops.push_back(br);
        return ops;
    }
    vvsp_assert(loop.inductionVar != kNoVreg,
                "counted loop '%s' without an induction variable",
                loop.label.c_str());
    Operand bound;
    if (loop.ivInit.isImm()) {
        long b = loop.ivInit.imm + loop.tripCount * loop.step;
        vvsp_assert(b < 65536,
                    "loop '%s' bound %ld overflows 16-bit compare",
                    loop.label.c_str(), b);
        bound = Operand::ofImm(static_cast<int32_t>(b));
    } else {
        vvsp_assert(loop.boundVreg != kNoVreg,
                    "pointer loop '%s' needs a precomputed bound",
                    loop.label.c_str());
        bound = Operand::ofReg(loop.boundVreg);
    }
    Operation add;
    add.op = Opcode::Add;
    add.dst = loop.inductionVar;
    add.src = {Operand::ofReg(loop.inductionVar),
               Operand::ofImm(loop.step), Operand::none()};
    add.id = fn.newOpId();
    Operation cmp;
    cmp.op = Opcode::CmpNe;
    cmp.dst = fn.newVreg();
    cmp.src = {Operand::ofReg(loop.inductionVar), bound,
               Operand::none()};
    cmp.id = fn.newOpId();
    Operation br;
    br.op = Opcode::BrCond;
    br.src[0] = Operand::ofReg(cmp.dst);
    br.id = fn.newOpId();
    ops.push_back(add);
    ops.push_back(cmp);
    ops.push_back(br);
    return ops;
}

/**
 * Candidate-II budget per software-pipelined loop, from
 * VVSP_SCHED_BUDGET. Unset or non-positive means unlimited — the
 * default, so normal runs never degrade and goldens are untouched.
 */
long
schedBudget()
{
    static const long v = [] {
        const char *env = std::getenv("VVSP_SCHED_BUDGET");
        if (!env || !*env)
            return -1L;
        long n = std::atol(env);
        return n > 0 ? n : -1L;
    }();
    return v;
}

bool
swpEligibleLoop(const LoopNode &loop, ScheduleMode mode)
{
    if (mode != ScheduleMode::Swp)
        return false;
    if (loop.tripCount < 1 || loop.body.empty())
        return false;
    for (const auto &n : loop.body) {
        if (n->kind() != NodeKind::Block)
            return false;
    }
    return true;
}

struct Composer::Walker
{
    Function &fn;
    const MachineModel &machine;
    ScheduleMode mode;
    const AvgProfile &prof;
    ListScheduler lsched;
    ModuloScheduler msched;
    BankOfFn bankOf;
    obs::StatsScope phase = obs::globalScope("phase");
    obs::StatsScope isaStats = obs::globalScope("isa");
    CompositionResult result;

    /** Encoded-module sink (see Composer::compose). */
    IsaModule *emit = nullptr;
    IsaFormat fmt;

    std::vector<Operation> pending;
    double pendingCount = 0;
    std::string pendingLabel;

    Walker(Function &f, const MachineModel &m, ScheduleMode md,
           const AvgProfile &p, BankOfFn bank_of)
        : fn(f), machine(m), mode(md), prof(p),
          lsched(m, bank_of), msched(m, bank_of),
          bankOf(std::move(bank_of)),
          fmt(isaFormatFor(m.config()))
    {
    }

    /** Schedule of the current group + its measured code size. */
    struct SectionOutcome
    {
        BlockSchedule sched;
        SectionStats stats;
    };

    SectionOutcome
    scheduleAndEncode(const std::string &label,
                      const std::vector<Operation> &ops, bool width1,
                      const char *phase_name,
                      const std::function<BlockSchedule()> &schedule)
    {
        SectionOutcome out;
        out.sched = obs::timedPhase(phase, phase_name, schedule);
        IsaSection sec = buildSection(label, ops, out.sched, width1,
                                      machine, bankOf);
        out.stats = sectionStats(sec, fmt);
        if (emit)
            emit->sections.push_back(std::move(sec));
        isaStats.bump("sections");
        isaStats.bump("words",
                      static_cast<uint64_t>(out.stats.words));
        isaStats.bump("bytes",
                      static_cast<uint64_t>(out.stats.bytes));
        isaStats.bump("nop_slots",
                      static_cast<uint64_t>(out.stats.nopSlots));
        return out;
    }

    void
    flush()
    {
        if (pending.empty())
            return;
        bool width1 = mode == ScheduleMode::Sequential;
        SectionOutcome enc = scheduleAndEncode(
            pendingLabel, pending, width1, "list_sched",
            [&] { return lsched.schedule(pending, width1); });
        RegionCost rc;
        rc.label = pendingLabel;
        rc.execCount = pendingCount;
        rc.length = enc.sched.length;
        rc.cycles = enc.sched.length * pendingCount;
        rc.instructions = static_cast<int>(enc.stats.words);
        rc.maxLive = enc.sched.maxLive;
        rc.codeBytes = enc.stats.bytes;
        rc.nopSlots = enc.stats.nopSlots;
        record(rc, pending.size());
        pending.clear();
        pendingCount = 0;
        pendingLabel.clear();
    }

    void
    record(const RegionCost &rc, size_t num_ops)
    {
        if (rc.degraded)
            result.degradedRegions++;
        result.cyclesPerUnit += rc.cycles;
        result.totalInstructions += rc.instructions;
        result.maxLive = std::max(result.maxLive, rc.maxLive);
        result.opsPerUnit +=
            static_cast<double>(num_ops) * rc.execCount;
        result.codeWords += rc.instructions;
        result.codeBytes += rc.codeBytes;
        result.nopSlots += rc.nopSlots;
        result.regions.push_back(rc);
    }

    void
    appendOps(const std::vector<Operation> &ops, double count,
              const std::string &label)
    {
        if (!pending.empty() && pendingCount != count)
            flush();
        if (pending.empty()) {
            pendingCount = count;
            pendingLabel = label;
        }
        pending.insert(pending.end(), ops.begin(), ops.end());
    }

    void
    appendBranch(Operand cond, double count)
    {
        Operation br;
        br.op = cond.isNone() ? Opcode::Br : Opcode::BrCond;
        if (!cond.isNone())
            br.src[0] = cond;
        br.id = fn.newOpId();
        appendOps({br}, count, "branch");
        flush(); // a branch always terminates its group.
    }

    void
    handleLoop(const LoopNode &loop)
    {
        flush();
        int mark = result.totalInstructions;
        double entries = at(prof.loopEntries, loop.id);
        double iters = at(prof.loopIters, loop.id);

        if (swpEligibleLoop(loop, mode)) {
            std::vector<Operation> ops;
            for (const auto &n : loop.body) {
                const auto &block = static_cast<const BlockNode &>(*n);
                ops.insert(ops.end(), block.ops.begin(),
                           block.ops.end());
            }
            auto ctrl = loopControlOps(fn, loop);
            ops.insert(ops.end(), ctrl.begin(), ctrl.end());
            SectionOutcome enc = scheduleAndEncode(
                "swp:" + loop.label, ops, false, "modulo_sched",
                [&] {
                    auto swp_sched = msched.scheduleBudgeted(
                        ops, machine.registersPerCluster(),
                        schedBudget());
                    if (swp_sched)
                        return std::move(*swp_sched);
                    // Budget exhausted with no feasible II at all:
                    // fall back to the acyclic list schedule of the
                    // loop body. Slower cycles, but correct ones —
                    // the cell is marked degraded, never silently
                    // wrong.
                    BlockSchedule fallback =
                        lsched.schedule(ops, false);
                    fallback.degraded = true;
                    return fallback;
                });
            const BlockSchedule &sched = enc.sched;
            obs::StatsScope swp = obs::globalScope("sched/swp");
            if (swp.enabled() && sched.isModulo()) {
                // Achieved II against both lower bounds the scheduler
                // started from, so reports can tell resource-bound
                // loops from recurrence-bound ones and spot schedules
                // that missed the MII.
                int mii = std::max(sched.resMii, sched.recMii);
                swp.bump("loops");
                swp.sample("ii", sched.ii);
                swp.sample("res_mii", sched.resMii);
                swp.sample("rec_mii", sched.recMii);
                swp.sample("ii_slack", sched.ii - mii);
                swp.sample("ii_attempts", sched.iiAttempts);
                swp.sample("placements", sched.placements);
                swp.sample("deciding_placements",
                           sched.decidingPlacements);
                if (sched.ii == mii)
                    swp.bump("ii_optimal");
            }
            RegionCost rc;
            rc.label = "swp:" + loop.label;
            rc.execCount = iters;
            rc.ii = sched.ii;
            rc.length = sched.length;
            rc.degraded = sched.degraded;
            // A degraded fallback may be acyclic (ii == 0): cost it
            // as a plain loop body, length cycles per iteration.
            rc.cycles = sched.isModulo()
                            ? entries * (sched.prologueCycles() +
                                         sched.epilogueCycles()) +
                                  iters * sched.ii
                            : iters * sched.length;
            rc.instructions = static_cast<int>(enc.stats.words);
            rc.maxLive = sched.maxLive;
            rc.codeBytes = enc.stats.bytes;
            rc.nopSlots = enc.stats.nopSlots;
            record(rc, ops.size());
        } else {
            walkList(loop.body);
            auto ctrl = loopControlOps(fn, loop);
            if (!pending.empty() && pendingCount != iters)
                flush();
            appendOps(ctrl, iters, "loop:" + loop.label);
            flush();
        }

        int loop_instrs = result.totalInstructions - mark;
        result.hotLoopInstructions =
            std::max(result.hotLoopInstructions, loop_instrs);
        if (loop_instrs > machine.icacheCapacity() && iters > 0)
            result.icacheOk = false;
    }

    void
    walkList(const NodeList &list)
    {
        for (const auto &n : list) {
            switch (n->kind()) {
              case NodeKind::Block: {
                const auto &block = static_cast<const BlockNode &>(*n);
                appendOps(block.ops, at(prof.blockExec, block.id),
                          block.label);
                break;
              }
              case NodeKind::Loop:
                handleLoop(static_cast<const LoopNode &>(*n));
                break;
              case NodeKind::If: {
                const auto &iff = static_cast<const IfNode &>(*n);
                double evals = at(prof.ifThen, iff.id) +
                               at(prof.ifElse, iff.id);
                // Conditional branch closing the preceding group.
                if (pending.empty())
                    pendingCount = evals;
                appendBranch(iff.cond, pending.empty()
                                           ? evals
                                           : pendingCount);
                walkList(iff.thenBody);
                if (!iff.elseBody.empty()) {
                    // Skip over the else arm.
                    appendBranch(Operand::none(),
                                 at(prof.ifThen, iff.id));
                    walkList(iff.elseBody);
                }
                flush();
                break;
              }
              case NodeKind::Break: {
                const auto &brk = static_cast<const BreakNode &>(*n);
                appendBranch(brk.cond, pendingCount);
                break;
              }
            }
        }
    }
};

Composer::Composer(const MachineModel &machine, ScheduleMode mode)
    : machine_(machine), mode_(mode)
{
}

CompositionResult
Composer::compose(Function &fn, const AvgProfile &profile,
                  IsaModule *emit)
{
    BankOfFn bank_of = [&fn](int buffer) {
        return fn.buffer(buffer).bank;
    };
    Walker walker(fn, machine_, mode_, profile, bank_of);
    walker.emit = emit;
    if (emit) {
        emit->machine = machine_.name();
        emit->name = fn.name;
        emit->fmt = walker.fmt;
        emit->sections.clear();
    }
    walker.walkList(fn.body);
    walker.flush();
    walker.result.registersOk =
        walker.result.maxLive <= machine_.registersPerCluster();
    if (walker.result.hotLoopInstructions > machine_.icacheCapacity())
        walker.result.icacheOk = false;
    return walker.result;
}

} // namespace vvsp
