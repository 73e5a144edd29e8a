/**
 * @file
 * Observability-layer tests: registry counters and distributions,
 * scope nesting, registry thread-safety under the worker pool, the
 * sweep-stats determinism contract (identical registries at any
 * thread count), trace_event JSON shape, and the cycle-sim telemetry
 * accounting identity (offered slot-cycles = busy + attributed
 * stalls, window cycles = executed cycles) and its use of the II
 * bounds a modulo schedule carries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "obs/sim_telemetry.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sched/modulo_scheduler.hh"
#include "sim/cycle_sim.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"

namespace vvsp
{
namespace
{

TEST(StatsRegistry, CountersAndDistributions)
{
    obs::StatsRegistry reg;
    reg.counter("a/b").add();
    reg.counter("a/b").add(4);
    reg.counter("a/c").add(2);
    reg.distribution("d").sample(3);
    reg.distribution("d").sample(7);

    EXPECT_EQ(reg.counterValue("a/b"), 5u);
    EXPECT_EQ(reg.counterValue("a/c"), 2u);
    EXPECT_EQ(reg.counterValue("never/created"), 0u);
    obs::Log2Histogram d = reg.distributionValue("d");
    EXPECT_EQ(d.count(), 2u);
    EXPECT_EQ(d.sum(), 10u);
    EXPECT_EQ(reg.distributionValue("nope").count(), 0u);

    // Enumeration is path-sorted.
    auto cs = reg.counters();
    ASSERT_EQ(cs.size(), 2u);
    EXPECT_EQ(cs[0].first, "a/b");
    EXPECT_EQ(cs[1].first, "a/c");

    reg.clear();
    EXPECT_EQ(reg.counterValue("a/b"), 0u);
    EXPECT_TRUE(reg.counters().empty());
}

TEST(StatsScope, NestingAndNullSink)
{
    obs::StatsRegistry reg;
    obs::StatsScope root = reg.scope("sim");
    obs::StatsScope inner = root.scope("cluster0");
    inner.bump("busy", 3);
    inner.sample("width", 2);
    root.bump("cycles");
    EXPECT_EQ(reg.counterValue("sim/cluster0/busy"), 3u);
    EXPECT_EQ(reg.counterValue("sim/cycles"), 1u);
    EXPECT_EQ(reg.distributionValue("sim/cluster0/width").sum(), 2u);

    // Zero bumps never materialize a counter.
    root.bump("untouched", 0);
    EXPECT_EQ(reg.counters().size(), 2u);

    // A default scope is a null sink: everything is a no-op.
    obs::StatsScope off;
    EXPECT_FALSE(off.enabled());
    off.bump("x");
    off.sample("y", 1);
    EXPECT_FALSE(off.scope("deep").enabled());

    // The global scope is disabled until a registry is installed.
    EXPECT_EQ(obs::globalStats(), nullptr);
    EXPECT_FALSE(obs::globalScope("xform").enabled());
    obs::setGlobalStats(&reg);
    obs::globalScope("xform").bump("runs");
    obs::setGlobalStats(nullptr);
    EXPECT_EQ(reg.counterValue("xform/runs"), 1u);
}

TEST(StatsRegistry, ConcurrentRecordingSumsExactly)
{
    obs::StatsRegistry reg;
    const int tasks = 64;
    const int bumps = 250;
    ThreadPool pool(4);
    for (int t = 0; t < tasks; ++t) {
        pool.submit([&reg, t] {
            obs::StatsScope s = reg.scope("par");
            for (int i = 0; i < bumps; ++i) {
                s.bump("hits");
                s.sample("val", static_cast<uint64_t>(t));
            }
        });
    }
    pool.wait();
    EXPECT_EQ(reg.counterValue("par/hits"),
              uint64_t(tasks) * bumps);
    obs::Log2Histogram v = reg.distributionValue("par/val");
    EXPECT_EQ(v.count(), uint64_t(tasks) * bumps);
    EXPECT_EQ(v.min(), 0u);
    EXPECT_EQ(v.max(), uint64_t(tasks - 1));
    EXPECT_EQ(v.sum(), uint64_t(bumps) * tasks * (tasks - 1) / 2);
}

/** Distribution snapshot rows with wall-time samples filtered out. */
std::vector<std::tuple<std::string, uint64_t, uint64_t, uint64_t,
                       uint64_t>>
deterministicDists(const obs::StatsRegistry &reg)
{
    std::vector<std::tuple<std::string, uint64_t, uint64_t, uint64_t,
                           uint64_t>> rows;
    for (const auto &[name, stat] : reg.distributions()) {
        // Wall-clock samples ("*_us") are real time, not machine
        // state; they are the one intentionally nondeterministic
        // part of the registry.
        if (name.size() >= 3 &&
            name.compare(name.size() - 3, 3, "_us") == 0) {
            continue;
        }
        rows.emplace_back(name, stat.count(), stat.sum(), stat.min(),
                          stat.max());
    }
    return rows;
}

/**
 * The determinism contract: a sweep recording into a registry must
 * produce identical counters and (non-wall-time) distributions at
 * any worker count. A batch runs the same stages at any thread count
 * (one prefix per variant, one interpreter run per profile key), so
 * even the lowering and interpreter counts match.
 */
TEST(SweepStats, DeterministicAcrossThreadCounts)
{
    std::vector<ExperimentRequest> requests;
    for (const char *model : {"I4C8S4", "I2C16S4"}) {
        for (const char *kernel :
             {"Variable-Bit-Rate Coder", "DCT - row/column"}) {
            const KernelSpec &k = kernelByName(kernel);
            ExperimentRequest req;
            req.kernel = &k;
            req.variant = &k.variants.back();
            req.model = models::byName(model);
            req.profileUnits = 1;
            requests.push_back(req);
        }
    }

    auto runWith = [&requests](int threads,
                               obs::StatsRegistry &reg) {
        SweepOptions sopts;
        sopts.threads = threads;
        obs::setGlobalStats(&reg);
        std::vector<ExperimentResult> results =
            SweepRunner(sopts).run(requests);
        obs::setGlobalStats(nullptr);
        return results;
    };

    obs::StatsRegistry serial, parallel2;
    auto r1 = runWith(1, serial);
    auto r2 = runWith(2, parallel2);

    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i)
        EXPECT_EQ(r1[i].cyclesPerFrame, r2[i].cyclesPerFrame);

    EXPECT_EQ(serial.counters(), parallel2.counters());
    EXPECT_EQ(deterministicDists(serial),
              deterministicDists(parallel2));
    // The registries actually saw the pipeline.
    EXPECT_EQ(serial.counterValue("sweep/cells"), requests.size());
    EXPECT_GT(serial.counterValue("xform/lowerings"), 0u);
}

/** Minimal JSON well-formedness scan: balanced structure outside
 *  strings, valid escapes inside them. */
void
expectBalancedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_string) {
            if (c == '\\') {
                ASSERT_LT(i + 1, s.size());
                char e = s[i + 1];
                EXPECT_TRUE(e == '"' || e == '\\' || e == 'n' ||
                            e == 't' || e == 'u')
                    << "bad escape \\" << e << " at " << i;
                i += e == 'u' ? 5 : 1;
            } else {
                EXPECT_GE(static_cast<unsigned char>(c), 0x20)
                    << "raw control char at " << i;
                if (c == '"')
                    in_string = false;
            }
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            depth++;
        } else if (c == '}' || c == ']') {
            depth--;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(TraceWriter, JsonSchema)
{
    obs::TraceWriter tw;
    tw.processName(1, "sweep");
    tw.threadName(1, 0, "worker 0");
    // Slices appended out of order; export must sort by timestamp.
    tw.slice("late", "cell", 30, 5, 1, 0,
             {{"model", "I4C8S4"}});
    tw.slice("early \"quoted\"\nline", "cell", 10, 20, 1, 0);
    EXPECT_EQ(tw.sliceCount(), 2u);

    std::string j = tw.json();
    expectBalancedJson(j);
    EXPECT_NE(j.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(j.find("\"process_name\""), std::string::npos);
    EXPECT_NE(j.find("\"model\": \"I4C8S4\""), std::string::npos);
    // Escaping: the quote and newline must be JSON escapes.
    EXPECT_NE(j.find("early \\\"quoted\\\"\\nline"),
              std::string::npos);
    // Timestamp order: ts 10 before ts 30.
    EXPECT_LT(j.find("\"ts\": 10"), j.find("\"ts\": 30"));
}

/**
 * Telemetry accounting identity on a real simulated kernel: the
 * offered slot-cycles decompose exactly into busy plus the four
 * stall causes, and the analyzed windows cover exactly the executed
 * cycles.
 */
TEST(SimTelemetry, AccountingIdentity)
{
    for (const char *kernel :
         {"Variable-Bit-Rate Coder",
          "RGB:YCrCb converter/subsampler"}) {
        const KernelSpec &k = kernelByName(kernel);
        const VariantSpec &v = k.variants.back();
        MachineModel machine(variantConfig(v, models::byName("I4C8S4")));
        Function fn = lowerVariant(k, v, machine);
        MemoryImage mem(fn);
        k.prepare(fn, mem, FrameGeometry{48, 32}, 0);

        CycleSim sim(machine, v.mode);
        obs::GroupTelemetry t;
        CycleSimReport rep = sim.run(fn, mem, &t);

        EXPECT_EQ(t.cycles, rep.cycles) << kernel;
        EXPECT_EQ(t.slotCyclesTotal,
                  t.slotCyclesBusy + t.stallOperand +
                      t.stallStructural + t.stallTransfer +
                      t.stallNoWork)
            << kernel;
        uint64_t per_cluster = 0;
        for (uint64_t b : t.clusterBusy)
            per_cluster += b;
        EXPECT_EQ(per_cluster, t.slotCyclesBusy) << kernel;
        EXPECT_GT(t.slotCyclesBusy, 0u) << kernel;
        EXPECT_GT(t.rfReads, 0u) << kernel;
        EXPECT_GE(t.slotUtilization(), 0.0);
        EXPECT_LE(t.slotUtilization(), 1.0);
        EXPECT_GE(t.xbarUtilization(), 0.0);
        EXPECT_LE(t.xbarUtilization(), 1.0);

        // recordTo round-trips through a registry.
        obs::StatsRegistry reg;
        t.recordTo(reg.scope("sim"));
        EXPECT_EQ(reg.counterValue("sim/cycles"), t.cycles);
        EXPECT_EQ(reg.counterValue("sim/slots/busy"),
                  t.slotCyclesBusy);
    }
}

/**
 * The modulo stall split reads the ResMII/RecMII the scheduler
 * recorded, passed beside the encoded section, and refuses a modulo
 * section without them rather than re-deriving them.
 */
TEST(SimTelemetry, ModuloSplitReadsTheScheduleBounds)
{
    MachineModel machine(models::i4c8s4());
    BankOfFn bank_of = [](int) { return 0; };
    // v1 = v3 + 1; v2 = v1 + 1; v3 = v2 + 1: a carried three-op
    // cycle, so the recurrence binds the II.
    std::vector<Operation> ops(3);
    for (int i = 0; i < 3; ++i) {
        ops[i].op = Opcode::Add;
        ops[i].dst = static_cast<Vreg>(i + 1);
        ops[i].src = {Operand::ofReg(static_cast<Vreg>(i == 0 ? 3 : i)),
                      Operand::ofImm(1), Operand::none()};
    }
    BlockSchedule s = ModuloScheduler(machine, bank_of).schedule(ops);
    ASSERT_EQ(s.recMii, 3);
    ASSERT_EQ(s.ii, 3);
    IsaSection sec = buildSection("swp", ops, s, false, machine, bank_of);
    obs::GroupTelemetry t =
        obs::analyzeSchedule(sec, s.resMii, s.recMii, machine, bank_of);
    EXPECT_EQ(t.ii, s.ii);
    EXPECT_EQ(t.resMii, s.resMii);
    EXPECT_EQ(t.recMii, s.recMii);
    EXPECT_EQ(t.stallOperand, t.slotCyclesTotal - t.slotCyclesBusy);
    EXPECT_EQ(t.stallStructural, 0u);

    EXPECT_DEATH(obs::analyzeSchedule(sec, s.resMii, 0, machine, bank_of),
                 "carries no II bounds");
}

/**
 * A rendered software-pipelined group draws every op on the witness
 * slot the verifier derived: no two ops of one cluster share a
 * (modulo row, slot) track, and the loop branch sits on the control
 * track.
 */
TEST(SimTelemetry, ModuloTraceDrawsWitnessSlots)
{
    const KernelSpec &k = kernelByName("Full Motion Search");
    const VariantSpec &v = k.variant("SW pipelined & unrolled");
    MachineModel machine(models::byName("I4C8S4"));
    Function fn = lowerVariant(k, v, machine);
    MemoryImage mem(fn);
    k.prepare(fn, mem, FrameGeometry{48, 32}, 0);
    obs::TraceWriter tw;
    CycleSim sim(machine, v.mode);
    sim.setTrace(&tw, 0, "t");
    sim.run(fn, mem);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(tw.json(), doc, error)) << error;
    const std::vector<json::Value> &events =
        doc.find("traceEvents")->array();
    std::set<int> swp_pids;
    for (const json::Value &e : events) {
        if (e.find("ph")->asString() == "M" &&
            e.find("name")->asString() == "process_name" &&
            e.find("args")->find("name")->asString().find("/swp:") !=
                std::string::npos)
            swp_pids.insert(static_cast<int>(e.find("pid")->asNumber()));
    }
    ASSERT_FALSE(swp_pids.empty());

    const int control = machine.clusters() * machine.slotsPerCluster();
    std::set<std::tuple<int, int, std::string>> tracks;
    int ops = 0, branches = 0;
    for (const json::Value &e : events) {
        const int pid = static_cast<int>(e.find("pid")->asNumber());
        if (e.find("ph")->asString() != "X" || !swp_pids.count(pid))
            continue;
        const int tid = static_cast<int>(e.find("tid")->asNumber());
        const std::string &name = e.find("name")->asString();
        if (name == opcodeName(Opcode::Br) ||
            name == opcodeName(Opcode::BrCond)) {
            EXPECT_EQ(tid, control) << "branch off the control track";
            branches++;
            continue;
        }
        const std::string &row =
            e.find("args")->find("modulo_row")->asString();
        EXPECT_NE(tid, control) << name;
        EXPECT_TRUE(tracks.insert({pid, tid, row}).second)
            << "pid " << pid << " track " << tid << " row " << row
            << " holds two ops";
        ops++;
    }
    EXPECT_GT(ops, 0);
    EXPECT_EQ(branches, static_cast<int>(swp_pids.size()));
}

} // anonymous namespace
} // namespace vvsp
