/**
 * @file
 * `vvsp utilization`: datapath utilization report across the
 * candidate models (the "utilization" experiment spec; --model
 * restricts the set). For every model, cycle-simulates each kernel's
 * most-optimized variant and prints issue-slot, crossbar,
 * memory-port, and register-file-port utilization plus the
 * stall-attribution breakdown. The (model, kernel) simulations run
 * as tasks on one --threads-wide pool and print in unit order, so
 * the report is the same at any thread count. A second section
 * reproduces the paper's conclusion that real-time full motion
 * search keeps "between 33% and 46% of the compute" busy at 30
 * frames/s; the check fails (exit 1) if the reference I4C8S4
 * datapath leaves the band. --trace=FILE additionally renders every
 * group the simulated kernels execute as a pipeline diagram.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "driver.hh"
#include "arch/models.hh"
#include "kernels/kernel.hh"
#include "obs/sim_telemetry.hh"
#include "sim/cycle_sim.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "vlsi/clock_estimator.hh"

namespace vvsp
{
namespace cli
{

namespace
{

/** Paper band for full-search compute utilization, +-5 points. */
constexpr double kBandLo = 0.33 - 0.05;
constexpr double kBandHi = 0.46 + 0.05;

double
pct(double x)
{
    return 100.0 * x;
}

/** One (model, kernel) simulation; a pool task fills its slot. */
struct Unit
{
    const DatapathConfig *model = nullptr;
    const KernelSpec *kernel = nullptr;
    CycleSimReport report;
    obs::GroupTelemetry telemetry;
    /** --trace: the unit's pipeline diagrams, numbered from pid 0. */
    obs::TraceWriter trace;
    int tracePids = 0; ///< trace process ids the unit used.
};

/**
 * The most-optimized variant of the unit's kernel (variants are
 * ordered as the paper's rows: least to most optimized) and the
 * machine it runs on.
 */
const VariantSpec &
unitVariant(const Unit &unit)
{
    return unit.kernel->variants.back();
}

MachineModel
unitMachine(const Unit &unit)
{
    return MachineModel(variantConfig(unitVariant(unit), *unit.model));
}

/** Cycle-simulate the unit's lowered variant on its model. */
void
simulate(Unit &unit, Function fn, const FrameGeometry &geom,
         bool traced)
{
    const KernelSpec &k = *unit.kernel;
    MachineModel machine = unitMachine(unit);
    checkForMachine(fn, machine);
    MemoryImage mem(fn);
    k.prepare(fn, mem, geom, 0);
    CycleSim sim(machine, unitVariant(unit).mode);
    if (traced)
        sim.setTrace(&unit.trace, 0, unit.model->name + "/" + k.name);
    unit.report = sim.run(fn, mem, &unit.telemetry);
    unit.tracePids = sim.nextTracePid();
}

} // anonymous namespace

int
cmdUtilization(const ExperimentSpec &spec, const DriverOptions &opts)
{
    // The spec declares the full seven-model set; --model/--machine
    // narrows it (JSON-loaded machines run through the same path).
    std::vector<DatapathConfig> model_set;
    if (opts.machines.empty()) {
        for (const std::string &name : spec.models)
            model_set.push_back(models::byName(name));
    } else {
        model_set = resolveMachines(opts);
    }

    Observability sinks(opts);
    sinks.setMachines(model_set);
    DiskCacheAttachment disk(opts);

    const FrameGeometry geom{48, 32};
    const bool traced = !opts.traceFile.empty();
    const auto &kernels = allKernels();

    // The (model, kernel) units lower through the sweep's stages: one
    // prefix per variant, one lowering per LoweringTarget. Each unit
    // is then one task on one pool, and the units' modulo schedulers
    // run their speculative II waves on the pool they run on:
    // TaskGroup's caller-runs wait keeps that nesting deadlock-free,
    // and the waves are bit-identical at any width (see
    // sched/modulo_scheduler.hh). Joined before the full-search
    // sweep below opens its own pool.
    std::vector<Unit> units(model_set.size() * kernels.size());
    LoweringStages stages;
    for (size_t u = 0; u < units.size(); ++u) {
        units[u].model = &model_set[u / kernels.size()];
        units[u].kernel = &kernels[u % kernels.size()];
        const VariantSpec &v = unitVariant(units[u]);
        stages.add(u, v, loweringTarget(v, unitMachine(units[u])));
    }
    {
        ThreadPool pool(opts.threads);
        stages.run(&pool, [&units, &geom, traced](size_t u, Function fn,
                                                   uint64_t) {
            simulate(units[u], std::move(fn), geom, traced);
        });
    }
    if (traced) {
        // Unit order, renumbered from pid 100 (the sweep timeline
        // owns the low pids) exactly as one serial run numbers them.
        int pid = 100;
        for (const Unit &u : units) {
            sinks.trace().append(u.trace, pid);
            pid += u.tracePids;
        }
    }

    if (!opts.json) {
        std::printf("Datapath utilization, most-optimized variant "
                    "per kernel (cycle sim, %dx%d frame)\n\n",
                    geom.width, geom.height);
    } else {
        std::printf("{\"models\": [\n");
    }

    for (size_t mi = 0; mi < model_set.size(); ++mi) {
        const std::string &model_name = model_set[mi].name;
        obs::GroupTelemetry model_total;
        TextTable table;
        table.header({"kernel", "variant", "cycles", "slot%",
                      "xbar%", "mem%", "rfrd%", "stall op/st/xf/id"});
        if (opts.json)
            std::printf("{\"model\": \"%s\", \"kernels\": [\n",
                        json::escape(model_name).c_str());

        for (size_t ki = 0; ki < kernels.size(); ++ki) {
            const KernelSpec &k = kernels[ki];
            const VariantSpec &v = k.variants.back();
            const Unit &unit = units[mi * kernels.size() + ki];
            const CycleSimReport &rep = unit.report;
            const obs::GroupTelemetry &t = unit.telemetry;
            model_total.addScaled(t, 1);
            t.recordTo(
                obs::globalScope("sim/" + model_name + "/" + k.name));

            uint64_t stalls = t.stallOperand + t.stallStructural +
                              t.stallTransfer + t.stallNoWork;
            auto share = [stalls](uint64_t s) {
                return stalls == 0 ? 0.0
                                   : 100.0 * static_cast<double>(s) /
                                         static_cast<double>(stalls);
            };
            if (opts.json) {
                std::printf(
                    "  {\"kernel\": \"%s\", \"variant\": \"%s\", "
                    "\"cycles\": %llu, \"slot_util\": %.4f, "
                    "\"xbar_util\": %.4f, \"mem_util\": %.4f, "
                    "\"rf_read_util\": %.4f, "
                    "\"stall\": {\"operand\": %llu, "
                    "\"structural\": %llu, \"transfer\": %llu, "
                    "\"no_work\": %llu}}%s\n",
                    json::escape(k.name).c_str(),
                    json::escape(v.name).c_str(),
                    static_cast<unsigned long long>(rep.cycles),
                    t.slotUtilization(), t.xbarUtilization(),
                    t.memPortUtilization(),
                    t.rfReadPortUtilization(),
                    static_cast<unsigned long long>(t.stallOperand),
                    static_cast<unsigned long long>(
                        t.stallStructural),
                    static_cast<unsigned long long>(t.stallTransfer),
                    static_cast<unsigned long long>(t.stallNoWork),
                    ki + 1 < kernels.size() ? "," : "");
            } else {
                table.row(
                    {k.name, v.name,
                     TextTable::cycles(
                         static_cast<double>(rep.cycles)),
                     TextTable::num(pct(t.slotUtilization()), 1),
                     TextTable::num(pct(t.xbarUtilization()), 1),
                     TextTable::num(pct(t.memPortUtilization()), 1),
                     TextTable::num(pct(t.rfReadPortUtilization()),
                                    1),
                     TextTable::num(share(t.stallOperand), 0) + "/" +
                         TextTable::num(share(t.stallStructural),
                                        0) +
                         "/" +
                         TextTable::num(share(t.stallTransfer), 0) +
                         "/" +
                         TextTable::num(share(t.stallNoWork), 0)});
            }
        }
        if (opts.json) {
            std::printf("], \"slot_util\": %.4f, "
                        "\"xbar_util\": %.4f}%s\n",
                        model_total.slotUtilization(),
                        model_total.xbarUtilization(),
                        mi + 1 < model_set.size() ? "," : "");
        } else {
            std::printf("%s:\n%s", model_name.c_str(),
                        table.str().c_str());
            std::printf("  overall: slot %.1f%%, crossbar %.1f%% "
                        "(the paper's underutilized switch), "
                        "rf read %.1f%%\n\n",
                        pct(model_total.slotUtilization()),
                        pct(model_total.xbarUtilization()),
                        pct(model_total.rfReadPortUtilization()));
        }
    }
    if (opts.json)
        std::printf("],\n");

    // Paper conclusion: real-time full search uses 33%-46% of the
    // compute at 30 frames/s on the viable models (the complex-
    // addressing I4C8S4C pays a ~40% clock penalty and is excluded
    // by the paper's own analysis). The cells are the conclusions
    // spec's full-search section.
    const ExperimentSpec *conclusions =
        findExperimentSpec("conclusions");
    const SpecSection &fs_section = conclusions->sections.front();
    SectionGrid grid = lowerSection(*conclusions, fs_section);
    SweepRunner runner(sweepOptions(opts, sinks, disk));
    std::vector<ExperimentResult> results = runner.run(grid.requests);

    ClockEstimator clock;
    // The reference 4x8 datapath must reproduce the claim; the
    // small-cluster models run ~30% faster clocks in our estimator
    // and therefore use a smaller share of their cycles, so they
    // are reported against the band but do not gate the check.
    bool band_ok = true;
    if (opts.json)
        std::printf("\"fullsearch_check\": [\n");
    else
        std::printf("Real-time full motion search at 30 frames/s "
                    "(paper: 33%%-46%% of compute):\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const std::string &name = grid.models[i].name;
        double mhz = clock.clockMhz(grid.requests[i].model);
        double util =
            results[i].cyclesPerFrame * 30.0 / (mhz * 1e6);
        bool in_band = util >= kBandLo && util <= kBandHi;
        if (name == "I4C8S4")
            band_ok = band_ok && in_band;
        if (opts.json) {
            std::printf("  {\"model\": \"%s\", \"utilization\": "
                        "%.4f, \"in_band\": %s}%s\n",
                        name.c_str(), util,
                        in_band ? "true" : "false",
                        i + 1 < results.size() ? "," : "");
        } else {
            std::printf("  %-10s %5.1f%% of compute  [%s]\n",
                        name.c_str(), pct(util),
                        in_band ? "in 33-46 +-5 band"
                                : "below band: faster clock");
        }
    }
    if (opts.json) {
        std::printf("],\n\"band_ok\": %s}\n",
                    band_ok ? "true" : "false");
    } else {
        std::printf("check: %s\n", band_ok ? "PASS" : "FAIL");
    }
    return band_ok ? 0 : 1;
}

} // namespace cli
} // namespace vvsp
