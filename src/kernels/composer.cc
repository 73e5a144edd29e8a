#include "kernels/composer.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

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

namespace
{

double
at(const std::vector<double> &v, int id)
{
    vvsp_assert(id >= 0 && id < static_cast<int>(v.size()),
                "profile missing node %d", id);
    return v[static_cast<size_t>(id)];
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

size_t
siteIndex(int node, GroupSite site)
{
    constexpr size_t sites = static_cast<size_t>(GroupSite::FunctionEnd) + 1;
    return static_cast<size_t>(node + 1) * sites +
           static_cast<size_t>(site);
}

} // anonymous namespace

std::vector<Operation>
loopControlOps(Function &fn, const LoopNode &loop)
{
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
    return {add, cmp, br};
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

double
GroupCount::of(const AvgProfile &profile) const
{
    switch (kind) {
      case Kind::Block:
        return at(profile.blockExec, node);
      case Kind::IfEvals:
        return at(profile.ifThen, node) + at(profile.ifElse, node);
      case Kind::IfThen:
        return at(profile.ifThen, node);
      case Kind::LoopIters:
        return at(profile.loopIters, node);
    }
    return 0;
}

int
KernelSchedule::groupAt(int node, GroupSite site) const
{
    size_t i = siteIndex(node, site);
    return i < sites.size() ? sites[i] : -1;
}

/**
 * The profile-free walk: every group closes at a tree site, so the
 * groups depend on the tree alone and CycleSim can find each one at
 * the site its own walk reaches.
 */
struct Composer::Walker
{
    Function &fn;
    const MachineModel &machine;
    ScheduleMode mode;
    ListScheduler lsched;
    ModuloScheduler msched;
    BankOfFn bankOf;
    obs::StatsScope phase = obs::globalScope("phase");
    /** Wall time of the phases the walk nests (scheduling and
     *  encoding); the rest of the walk is reported as `walk`. */
    uint64_t nestedUs = 0;
    KernelSchedule out;

    /** Keep each group's ops and placements; pricing alone reads
     *  none of them. */
    bool keepCode = true;

    std::vector<Operation> pending;
    /** Counts the pending group: set by the first code appended to
     *  an empty group and kept until a group is closed. */
    GroupCount pendingCount;
    std::string pendingLabel;

    Walker(Function &f, const MachineModel &m, ScheduleMode md,
           BankOfFn bank_of)
        : fn(f), machine(m), mode(md), lsched(m, bank_of),
          msched(m, bank_of), bankOf(std::move(bank_of))
    {
        out.module.machine = m.name();
        out.module.name = f.name;
        out.module.fmt = isaFormatFor(m.config());
        // Node ids below numNodeIds(), plus the function end at -1.
        out.sites.assign(siteIndex(f.numNodeIds(), GroupSite::BeforeLoop),
                         -1);
    }

    /** timedPhase() for a phase the walk nests. */
    template <typename Body>
    auto
    timed(const char *name, Body &&body)
    {
        return obs::timedPhase(phase, name, std::forward<Body>(body),
                               &nestedUs);
    }

    /** Encode a scheduled group as the group closing at `site`. */
    void
    addGroup(GroupSite site, int node, GroupCount count, int block_ops,
             const std::string &label, const std::vector<Operation> &ops,
             const BlockSchedule &sched, bool width1)
    {
        int &slot = out.sites[siteIndex(node, site)];
        vvsp_assert(slot < 0, "two groups close at site %d of node %d",
                    static_cast<int>(site), node);
        slot = static_cast<int>(out.groups.size());
        auto [sec, stats] = timed("encode", [&] {
            IsaSection s =
                buildSection(label, ops, sched, width1, machine, bankOf);
            SectionStats st = sectionStats(s, out.module.fmt);
            return std::pair{std::move(s), st};
        });
        if (!keepCode) {
            sec.ops = std::vector<Operation>();
            sec.placed = std::vector<PlacedOp>();
        }
        out.module.sections.push_back(std::move(sec));
        out.groups.push_back({site, node, count, block_ops,
                              static_cast<int>(ops.size()),
                              sched.resMii, sched.recMii,
                              sched.degraded, stats});
    }

    /** Close the pending group, if any, at `site`; its last
     *  `site_ops` ops are the site's own branch or loop control. */
    void
    flush(GroupSite site, int node, size_t site_ops = 0)
    {
        if (pending.empty())
            return;
        bool width1 = mode == ScheduleMode::Sequential;
        BlockSchedule sched = timed("list_sched", [&] {
            return lsched.schedule(pending, width1);
        });
        addGroup(site, node, pendingCount,
                 static_cast<int>(pending.size() - site_ops),
                 pendingLabel, pending, sched, width1);
        pending.clear();
    }

    void
    appendOps(const std::vector<Operation> &ops, GroupCount count,
              const std::string &label)
    {
        if (pending.empty()) {
            pendingCount = count;
            pendingLabel = label;
        }
        pending.insert(pending.end(), ops.begin(), ops.end());
    }

    /** A branch always closes its group. */
    void
    appendBranch(Operand cond, GroupCount count, GroupSite site,
                 int node)
    {
        Operation br;
        br.op = cond.isNone() ? Opcode::Br : Opcode::BrCond;
        if (!cond.isNone())
            br.src[0] = cond;
        br.id = fn.newOpId();
        appendOps({br}, count, "branch");
        flush(site, node, 1);
    }

    /** Software-pipeline an eligible loop's body + loop control. */
    void
    scheduleSwpLoop(const LoopNode &loop)
    {
        std::vector<Operation> ops;
        for (const auto &n : loop.body) {
            const auto &block = static_cast<const BlockNode &>(*n);
            ops.insert(ops.end(), block.ops.begin(), block.ops.end());
        }
        size_t body_ops = ops.size();
        auto ctrl = loopControlOps(fn, loop);
        ops.insert(ops.end(), ctrl.begin(), ctrl.end());
        BlockSchedule sched = timed("modulo_sched", [&] {
            auto swp_sched = msched.scheduleBudgeted(
                ops, machine.registersPerCluster(), schedBudget());
            if (swp_sched)
                return std::move(*swp_sched);
            // Budget exhausted with no feasible II at all: fall back
            // to the acyclic list schedule of the loop body. Slower
            // cycles, but correct ones — the cell is marked degraded,
            // never silently wrong.
            BlockSchedule fallback = lsched.schedule(ops, false);
            fallback.degraded = true;
            return fallback;
        });
        obs::StatsScope swp = obs::globalScope("sched/swp");
        if (swp.enabled() && sched.isModulo()) {
            // Achieved II against both lower bounds the scheduler
            // started from, so reports can tell resource-bound loops
            // from recurrence-bound ones and spot schedules that
            // missed the MII.
            int mii = std::max(sched.resMii, sched.recMii);
            swp.bump("loops");
            swp.sample("ii", sched.ii);
            swp.sample("res_mii", sched.resMii);
            swp.sample("rec_mii", sched.recMii);
            swp.sample("ii_slack", sched.ii - mii);
            swp.sample("ii_attempts", sched.iiAttempts);
            swp.sample("placements", sched.placements);
            swp.sample("deciding_placements", sched.decidingPlacements);
            if (sched.ii == mii)
                swp.bump("ii_optimal");
        }
        addGroup(GroupSite::SwpLoop, loop.id,
                 {GroupCount::Kind::LoopIters, loop.id},
                 static_cast<int>(body_ops), "swp:" + loop.label, ops,
                 sched, false);
    }

    void
    handleLoop(const LoopNode &loop)
    {
        flush(GroupSite::BeforeLoop, loop.id);
        size_t first = out.groups.size();
        if (swpEligibleLoop(loop, mode)) {
            scheduleSwpLoop(loop);
        } else {
            walkList(loop.body);
            auto ctrl = loopControlOps(fn, loop);
            appendOps(ctrl, {GroupCount::Kind::LoopIters, loop.id},
                      "loop:" + loop.label);
            flush(GroupSite::BackEdge, loop.id, ctrl.size());
        }
        int words = 0;
        for (size_t g = first; g < out.groups.size(); ++g)
            words += out.module.sections[g].words();
        out.hotLoopInstructions =
            std::max(out.hotLoopInstructions, words);
    }

    void
    walkList(const NodeList &list)
    {
        for (const auto &n : list) {
            switch (n->kind()) {
              case NodeKind::Block: {
                const auto &block = static_cast<const BlockNode &>(*n);
                appendOps(block.ops,
                          {GroupCount::Kind::Block, block.id},
                          block.label);
                break;
              }
              case NodeKind::Loop:
                handleLoop(static_cast<const LoopNode &>(*n));
                break;
              case NodeKind::If: {
                const auto &iff = static_cast<const IfNode &>(*n);
                // Conditional branch closing the preceding group.
                appendBranch(iff.cond,
                             {GroupCount::Kind::IfEvals, iff.id},
                             GroupSite::IfCond, iff.id);
                walkList(iff.thenBody);
                if (iff.elseBody.empty()) {
                    flush(GroupSite::ThenEnd, iff.id);
                    break;
                }
                // Skip over the else arm.
                appendBranch(Operand::none(),
                             {GroupCount::Kind::IfThen, iff.id},
                             GroupSite::ThenEnd, iff.id);
                walkList(iff.elseBody);
                flush(GroupSite::ElseEnd, iff.id);
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

KernelSchedule
Composer::schedule(Function &fn)
{
    return obs::timedPhase(obs::globalScope("phase"), "compose",
                           [&] { return walk(fn, true); });
}

KernelSchedule
Composer::walk(Function &fn, bool keep_code)
{
    BankOfFn bank_of = [&fn](int buffer) {
        return fn.buffer(buffer).bank;
    };
    Walker walker(fn, machine_, mode_, bank_of);
    walker.keepCode = keep_code;
    std::chrono::steady_clock::time_point t0;
    if (walker.phase.enabled())
        t0 = std::chrono::steady_clock::now();
    walker.walkList(fn.body);
    walker.flush(GroupSite::FunctionEnd, -1);
    if (walker.phase.enabled()) {
        // The walk's own time: what its nested phases leave over.
        uint64_t us = obs::microsSince(t0);
        obs::recordPhase(walker.phase, "walk",
                         us - std::min(us, walker.nestedUs));
    }
    return std::move(walker.out);
}

CompositionResult
Composer::price(const KernelSchedule &schedule,
                const AvgProfile &profile) const
{
    obs::StatsScope isa = obs::globalScope("isa");
    CompositionResult result;
    for (size_t i = 0; i < schedule.groups.size(); ++i) {
        const ScheduledGroup &g = schedule.groups[i];
        const IsaSection &sec = schedule.module.sections[i];
        const SectionStats &stats = g.stats;
        isa.bump("sections");
        isa.bump("words", static_cast<uint64_t>(stats.words));
        isa.bump("bytes", static_cast<uint64_t>(stats.bytes));
        isa.bump("nop_slots", static_cast<uint64_t>(stats.nopSlots));
        RegionCost rc;
        rc.label = sec.label;
        rc.execCount = g.count.of(profile);
        rc.ii = sec.ii;
        rc.length = sec.length;
        rc.degraded = g.degraded;
        // A modulo loop pays its fill and drain once per entry. A
        // degraded fallback may be acyclic (ii == 0): cost it as a
        // plain loop body, length cycles per iteration.
        rc.cycles = sec.modulo
                        ? at(profile.loopEntries, g.node) *
                                  sec.rampCycles() +
                              rc.execCount * sec.ii
                        : sec.length * rc.execCount;
        rc.instructions = static_cast<int>(stats.words);
        rc.maxLive = sec.maxLive;
        rc.codeBytes = stats.bytes;
        rc.nopSlots = stats.nopSlots;

        if (rc.degraded)
            result.degradedRegions++;
        result.cyclesPerUnit += rc.cycles;
        result.maxLive = std::max(result.maxLive, rc.maxLive);
        result.opsPerUnit +=
            static_cast<double>(g.numOps) * rc.execCount;
        result.codeWords += rc.instructions;
        result.codeBytes += rc.codeBytes;
        result.nopSlots += rc.nopSlots;
        result.regions.push_back(std::move(rc));
    }
    result.hotLoopInstructions = schedule.hotLoopInstructions;
    result.icacheOk =
        result.hotLoopInstructions <= machine_.icacheCapacity();
    result.registersOk =
        result.maxLive <= machine_.registersPerCluster();
    return result;
}

CompositionResult
Composer::compose(Function &fn, const AvgProfile &profile)
{
    return obs::timedPhase(obs::globalScope("phase"), "compose", [&] {
        return price(walk(fn, false), profile);
    });
}

} // namespace vvsp
