/**
 * @file
 * Fault-injection layer unit tests: the trigger grammar and its
 * semantics, all-or-nothing list installation, zero overhead when
 * disabled, hit/eval accounting and stats export, the classified
 * retry helper, and graceful modulo-scheduler degradation under a
 * candidate-II budget (driven deterministically through the
 * "sched/ii_attempt" failpoint).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <thread>
#include <vector>

#include "arch/models.hh"
#include "obs/stats_registry.hh"
#include "sched/modulo_scheduler.hh"
#include "support/failpoint.hh"
#include "support/io_retry.hh"

using namespace vvsp;

namespace
{

Operand
R(Vreg v)
{
    return Operand::ofReg(v);
}

Operand
K(int32_t v)
{
    return Operand::ofImm(v);
}

Operation
mk(Opcode op, Vreg dst, Operand a = Operand::none(),
   Operand b = Operand::none())
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src = {a, b, Operand::none()};
    return o;
}

BankOfFn
bankZero()
{
    return [](int) { return 0; };
}

/** Every test starts and ends with an empty failpoint registry. */
class Failpoint : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::clearAll(); }
    void TearDown() override { failpoint::clearAll(); }
};

TEST_F(Failpoint, ParseSpecGrammar)
{
    failpoint::Spec spec;
    std::string error;

    ASSERT_TRUE(failpoint::parseSpec("once", spec, &error));
    EXPECT_EQ(spec.trigger, failpoint::Trigger::Once);
    EXPECT_EQ(spec.action, failpoint::Action::Fail);

    ASSERT_TRUE(failpoint::parseSpec("always", spec, &error));
    EXPECT_EQ(spec.trigger, failpoint::Trigger::Always);

    ASSERT_TRUE(failpoint::parseSpec("nth:3", spec, &error));
    EXPECT_EQ(spec.trigger, failpoint::Trigger::Nth);
    EXPECT_EQ(spec.arg, 3u);

    ASSERT_TRUE(failpoint::parseSpec("every:2", spec, &error));
    EXPECT_EQ(spec.trigger, failpoint::Trigger::Every);
    EXPECT_EQ(spec.arg, 2u);

    ASSERT_TRUE(failpoint::parseSpec("prob:0.25", spec, &error));
    EXPECT_EQ(spec.trigger, failpoint::Trigger::Prob);
    EXPECT_DOUBLE_EQ(spec.prob, 0.25);
    EXPECT_EQ(spec.seed, 1u);

    ASSERT_TRUE(failpoint::parseSpec("prob:0.5,42", spec, &error));
    EXPECT_EQ(spec.seed, 42u);

    ASSERT_TRUE(failpoint::parseSpec("once,crash", spec, &error));
    EXPECT_EQ(spec.action, failpoint::Action::Crash);

    ASSERT_TRUE(failpoint::parseSpec("prob:0.5,42,crash", spec,
                                     &error));
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_EQ(spec.action, failpoint::Action::Crash);

    // Malformed specs are rejected with a reason, never installed.
    for (const char *bad : {"", "nth", "nth:0", "nth:x", "every:0",
                            "prob:1.5", "prob:", "sometimes",
                            "once,5", "prob:0.5,x"}) {
        EXPECT_FALSE(failpoint::parseSpec(bad, spec, &error))
            << "'" << bad << "' must not parse";
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST_F(Failpoint, TriggerSemantics)
{
    failpoint::Spec spec;
    std::string error;

    ASSERT_TRUE(failpoint::parseSpec("once", spec, &error));
    failpoint::configure("t/once", spec);
    EXPECT_TRUE(failpoint::evaluate("t/once"));
    EXPECT_FALSE(failpoint::evaluate("t/once"));
    EXPECT_FALSE(failpoint::evaluate("t/once"));
    EXPECT_EQ(failpoint::hitCount("t/once"), 1u);
    EXPECT_EQ(failpoint::evalCount("t/once"), 3u);

    ASSERT_TRUE(failpoint::parseSpec("nth:3", spec, &error));
    failpoint::configure("t/nth", spec);
    EXPECT_FALSE(failpoint::evaluate("t/nth"));
    EXPECT_FALSE(failpoint::evaluate("t/nth"));
    EXPECT_TRUE(failpoint::evaluate("t/nth"));
    EXPECT_FALSE(failpoint::evaluate("t/nth"));
    EXPECT_EQ(failpoint::hitCount("t/nth"), 1u);

    ASSERT_TRUE(failpoint::parseSpec("every:2", spec, &error));
    failpoint::configure("t/every", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(failpoint::evaluate("t/every"));
    EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true,
                                        false, true}));

    ASSERT_TRUE(failpoint::parseSpec("always", spec, &error));
    failpoint::configure("t/always", spec);
    EXPECT_TRUE(failpoint::evaluate("t/always"));
    EXPECT_TRUE(failpoint::evaluate("t/always"));
    EXPECT_EQ(failpoint::hitCount("t/always"), 2u);
}

TEST_F(Failpoint, ProbIsSeedDeterministic)
{
    // Same seed -> identical firing sequence; the trigger never
    // consults wall time.
    failpoint::Spec spec;
    std::string error;
    ASSERT_TRUE(failpoint::parseSpec("prob:0.5,1234", spec, &error));

    auto sample = [&spec](const char *site) {
        failpoint::configure(site, spec);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(failpoint::evaluate(site));
        return fired;
    };
    std::vector<bool> a = sample("t/prob");
    std::vector<bool> b = sample("t/prob"); // reconfigure resets.
    EXPECT_EQ(a, b);

    // A 0.5 coin over 64 draws fires at least once either way.
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(Failpoint, DisabledRegistryAnswersFalseWithoutCounting)
{
    // clearAll() drops the active flag: evaluate() short-circuits
    // on one relaxed load and never reaches the registry.
    EXPECT_FALSE(failpoint::active());
    EXPECT_FALSE(failpoint::evaluate("t/nope"));
    EXPECT_EQ(failpoint::evalCount("t/nope"), 0u);

    // With some other site configured, unconfigured names still
    // answer false (but the slow path is reached).
    failpoint::Spec spec;
    std::string error;
    ASSERT_TRUE(failpoint::parseSpec("always", spec, &error));
    failpoint::configure("t/other", spec);
    EXPECT_TRUE(failpoint::active());
    EXPECT_FALSE(failpoint::evaluate("t/nope"));
    EXPECT_EQ(failpoint::hitCount("t/nope"), 0u);
}

TEST_F(Failpoint, ConfigureFromListIsAllOrNothing)
{
    std::string error;
    ASSERT_TRUE(failpoint::configureFromList(
        "t/a=once;t/b=nth:2;;t/c=prob:0.5,7", &error))
        << error;
    EXPECT_EQ(failpoint::configuredSites().size(), 3u);

    failpoint::clearAll();
    EXPECT_FALSE(failpoint::configureFromList("t/a=once;t/b=nth:0",
                                              &error));
    EXPECT_TRUE(failpoint::configuredSites().empty())
        << "a malformed list must install nothing";
    EXPECT_FALSE(failpoint::active());

    EXPECT_FALSE(failpoint::configureFromList("justAName", &error));
    EXPECT_FALSE(failpoint::configureFromList("=once", &error));
}

TEST_F(Failpoint, HitsExportToGlobalStats)
{
    obs::StatsRegistry reg;
    obs::setGlobalStats(&reg);
    failpoint::Spec spec;
    std::string error;
    ASSERT_TRUE(failpoint::parseSpec("always", spec, &error));
    failpoint::configure("disk_cache/store_enospc", spec);
    EXPECT_TRUE(failpoint::evaluate("disk_cache/store_enospc"));
    EXPECT_TRUE(failpoint::evaluate("disk_cache/store_enospc"));
    obs::setGlobalStats(nullptr);

    EXPECT_EQ(reg.counterValue(
                  "failpoint/disk_cache/store_enospc_hits"),
              2u);
}

TEST_F(Failpoint, ConcurrentEveryKHitsExactly)
{
    // Four threads share one every:3 site: the registry serializes
    // evaluations, so exactly a third of them fire, whatever the
    // interleaving.
    failpoint::Spec spec;
    std::string error;
    ASSERT_TRUE(failpoint::parseSpec("every:3", spec, &error));
    failpoint::configure("t/concurrent", spec);
    constexpr int kThreads = 4, kEvals = 3000;
    std::atomic<uint64_t> fired{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&fired] {
            for (int i = 0; i < kEvals; ++i) {
                if (failpoint::evaluate("t/concurrent"))
                    fired++;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failpoint::evalCount("t/concurrent"),
              uint64_t{kThreads} * kEvals);
    EXPECT_EQ(failpoint::hitCount("t/concurrent"),
              uint64_t{kThreads} * kEvals / 3);
    EXPECT_EQ(fired.load(), uint64_t{kThreads} * kEvals / 3);
}

// ---- classified retry --------------------------------------------------

TEST(IoRetry, ClassifiesErrno)
{
    EXPECT_EQ(classifyErrno(0), IoStatus::Ok);
    EXPECT_EQ(classifyErrno(EINTR), IoStatus::Transient);
    EXPECT_EQ(classifyErrno(EAGAIN), IoStatus::Transient);
    EXPECT_EQ(classifyErrno(EBUSY), IoStatus::Transient);
    EXPECT_EQ(classifyErrno(ENOENT), IoStatus::Permanent);
    EXPECT_EQ(classifyErrno(EIO), IoStatus::Permanent);
    EXPECT_EQ(classifyErrno(ENOSPC), IoStatus::Permanent);
}

TEST(IoRetry, TransientRecoversWithExponentialBackoff)
{
    RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.baseDelayUs = 100;
    std::vector<uint64_t> slept;
    policy.sleepFn = [&slept](uint64_t us) { slept.push_back(us); };

    int calls = 0;
    IoStatus got = withRetry(policy, [&calls]() {
        return ++calls < 3 ? IoStatus::Transient : IoStatus::Ok;
    });
    EXPECT_EQ(got, IoStatus::Ok);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(slept, (std::vector<uint64_t>{100, 200}));
}

TEST(IoRetry, GivesUpAfterMaxAttempts)
{
    obs::StatsRegistry reg;
    obs::setGlobalStats(&reg);
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.baseDelayUs = 1;
    int slept = 0;
    policy.sleepFn = [&slept](uint64_t) { ++slept; };

    int calls = 0;
    IoStatus got = withRetry(policy, [&calls]() {
        ++calls;
        return IoStatus::Transient;
    });
    obs::setGlobalStats(nullptr);

    EXPECT_EQ(got, IoStatus::Transient);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(slept, 2); // no sleep after the final attempt.
    EXPECT_EQ(reg.counterValue("io/retry_attempts"), 2u);
    EXPECT_EQ(reg.counterValue("io/retry_gave_up"), 1u);
}

TEST(IoRetry, PermanentFailsImmediately)
{
    RetryPolicy policy;
    policy.maxAttempts = 5;
    int slept = 0;
    policy.sleepFn = [&slept](uint64_t) { ++slept; };

    int calls = 0;
    IoStatus got = withRetry(policy, [&calls]() {
        ++calls;
        return IoStatus::Permanent;
    });
    EXPECT_EQ(got, IoStatus::Permanent);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(slept, 0);
}

// ---- scheduler degradation ---------------------------------------------

/** Budget tests drive the "sched/ii_attempt" failpoint. */
class SchedBudget : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::clearAll(); }
    void TearDown() override { failpoint::clearAll(); }
};

TEST_F(SchedBudget, UnlimitedBudgetMatchesSchedule)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    // Three-op carried cycle: II >= 3 despite ample resources.
    std::vector<Operation> ops{mk(Opcode::Add, 1, R(3), K(1)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Add, 3, R(2), K(1))};
    BlockSchedule base = sched.schedule(ops);
    auto budgeted = sched.scheduleBudgeted(ops, 0, -1);
    ASSERT_TRUE(budgeted.has_value());
    EXPECT_FALSE(budgeted->degraded);
    EXPECT_EQ(budgeted->ii, base.ii);
    EXPECT_EQ(budgeted->length, base.length);
    ASSERT_EQ(budgeted->placed.size(), base.placed.size());
    for (size_t i = 0; i < base.placed.size(); ++i)
        EXPECT_EQ(budgeted->placed[i].cycle, base.placed[i].cycle);
}

TEST_F(SchedBudget, ZeroBudgetFallsBackToNullopt)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    std::vector<Operation> ops{mk(Opcode::Add, 1, K(1), K(2)),
                               mk(Opcode::Add, 2, R(1), K(3))};
    EXPECT_FALSE(sched.scheduleBudgeted(ops, 0, 0).has_value());
}

TEST_F(SchedBudget, ForcedInfeasibleCandidateRaisesII)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    std::vector<Operation> ops{mk(Opcode::Add, 1, K(1), K(2)),
                               mk(Opcode::Add, 2, R(1), K(3))};
    BlockSchedule base = sched.schedule(ops);
    ASSERT_EQ(base.ii, 1);

    // Force the first candidate II infeasible: the search decides at
    // the next II, within budget, so the result is not degraded.
    failpoint::Spec spec;
    std::string error;
    ASSERT_TRUE(failpoint::parseSpec("once", spec, &error));
    failpoint::configure("sched/ii_attempt", spec);
    auto skewed = sched.scheduleBudgeted(ops, 0, -1);
    ASSERT_TRUE(skewed.has_value());
    EXPECT_EQ(skewed->ii, base.ii + 1);
    EXPECT_FALSE(skewed->degraded);
    EXPECT_EQ(failpoint::hitCount("sched/ii_attempt"), 1u);
}

TEST_F(SchedBudget, BudgetOnePlusSkipExhaustsToNullopt)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    std::vector<Operation> ops{mk(Opcode::Add, 1, K(1), K(2)),
                               mk(Opcode::Add, 2, R(1), K(3))};
    // The only candidate the budget admits is forced infeasible:
    // no schedule exists within budget -> nullopt, and the caller
    // (kernels/composer.cc) falls back to the acyclic list schedule.
    failpoint::Spec spec;
    std::string error;
    ASSERT_TRUE(failpoint::parseSpec("once", spec, &error));
    failpoint::configure("sched/ii_attempt", spec);
    EXPECT_FALSE(sched.scheduleBudgeted(ops, 0, 1).has_value());
}

TEST_F(SchedBudget, ExhaustionKeepsBestFeasibleAndMarksDegraded)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    // Feasible at II = 3, but an impossible register-pressure target
    // keeps the search growing the II for a lower-pressure schedule;
    // a 2-candidate budget runs out first. The best feasible
    // schedule must come back marked degraded — never nullopt, never
    // a silently wrong answer.
    std::vector<Operation> ops{mk(Opcode::Add, 1, R(3), K(1)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Add, 3, R(2), K(1))};
    auto degraded = sched.scheduleBudgeted(ops, 1, 2);
    ASSERT_TRUE(degraded.has_value());
    EXPECT_TRUE(degraded->degraded);
    EXPECT_GE(degraded->ii, 3);
    EXPECT_GT(degraded->maxLive, 1);

    // The same search without a budget decides on its own (the
    // pressure-retry cap) and is not degraded.
    auto unbudgeted = sched.scheduleBudgeted(ops, 1, -1);
    ASSERT_TRUE(unbudgeted.has_value());
    EXPECT_FALSE(unbudgeted->degraded);
}

} // anonymous namespace
