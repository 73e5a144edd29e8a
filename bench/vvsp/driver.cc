#include "driver.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <span>
#include <thread>

#include "arch/config_json.hh"
#include "support/table.hh"

namespace vvsp
{
namespace cli
{

namespace
{

void
usageAndExit(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s <subcommand> [section] [--json] "
                 "[--threads=N] [--machine=NAME|FILE.json ...] "
                 "[--variant=NAME] [--no-cache] [--no-disk-cache] "
                 "[--cache-dir=DIR] [--stats[=json]] [--profile] "
                 "[--trace=FILE] [--ledger[=FILE]]\n"
                 "report/diff: [--last=N] [--a=IDX] [--b=IDX] "
                 "[--threshold=R] [--floor=FILE]\n"
                 "run `%s list` for subcommands, sections, and "
                 "models\n",
                 prog, prog);
    std::exit(2);
}

} // anonymous namespace

DriverOptions
parseDriverArgs(int argc, char **argv, int first)
{
    DriverOptions opts;
    for (int i = first; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--json") == 0) {
            opts.json = true;
        } else if (std::strncmp(a, "--threads=", 10) == 0) {
            char *end = nullptr;
            long n = std::strtol(a + 10, &end, 10);
            if (end == a + 10 || *end != '\0' || n <= 0) {
                std::fprintf(stderr,
                             "%s: --threads wants a positive "
                             "integer, got '%s' (omit the flag for "
                             "hardware concurrency)\n",
                             argv[0], a + 10);
                std::exit(2);
            }
            opts.threads = static_cast<int>(n);
        } else if (std::strncmp(a, "--machine=", 10) == 0 &&
                   a[10] != '\0') {
            opts.machines.push_back(a + 10);
        } else if (std::strncmp(a, "--model=", 8) == 0 &&
                   a[8] != '\0') {
            opts.machines.push_back(a + 8);
        } else if (std::strncmp(a, "--variant=", 10) == 0 &&
                   a[10] != '\0') {
            opts.variant = a + 10;
        } else if (std::strncmp(a, "--kernel=", 9) == 0 &&
                   a[9] != '\0') {
            opts.kernelName = a + 9;
        } else if (std::strncmp(a, "--out=", 6) == 0 &&
                   a[6] != '\0') {
            opts.outPath = a + 6;
        } else if (std::strcmp(a, "--no-disk-cache") == 0 ||
                   std::strcmp(a, "--no-cache") == 0) {
            opts.diskCache = false;
        } else if (std::strncmp(a, "--cache-dir=", 12) == 0 &&
                   a[12] != '\0') {
            opts.cacheDir = a + 12;
        } else if (std::strcmp(a, "--stats") == 0) {
            opts.stats = true;
        } else if (std::strcmp(a, "--stats=json") == 0) {
            opts.stats = true;
            opts.statsJson = true;
        } else if (std::strcmp(a, "--profile") == 0) {
            opts.profile = true;
        } else if (std::strncmp(a, "--trace=", 8) == 0 &&
                   a[8] != '\0') {
            opts.traceFile = a + 8;
        } else if (std::strncmp(a, "--ledger=", 9) == 0 &&
                   a[9] != '\0') {
            opts.ledgerPath = a + 9;
        } else if (std::strcmp(a, "--ledger") == 0) {
            // Bare --ledger: the default ledger, unless the next
            // argument looks like a path (so the acceptance-style
            // `--ledger /tmp/l.jsonl` spelling also works; sections
            // and model names never contain '/' or '.').
            if (i + 1 < argc && argv[i + 1][0] != '-' &&
                (std::strchr(argv[i + 1], '/') ||
                 std::strchr(argv[i + 1], '.'))) {
                opts.ledgerPath = argv[++i];
            } else {
                opts.ledgerPath = obs::defaultLedgerPath();
            }
        } else if (std::strncmp(a, "--last=", 7) == 0) {
            char *end = nullptr;
            long n = std::strtol(a + 7, &end, 10);
            if (end == a + 7 || *end != '\0' || n <= 0) {
                std::fprintf(stderr,
                             "%s: --last wants a positive integer, "
                             "got '%s'\n",
                             argv[0], a + 7);
                std::exit(2);
            }
            opts.lastN = static_cast<int>(n);
        } else if (std::strncmp(a, "--a=", 4) == 0 ||
                   std::strncmp(a, "--b=", 4) == 0) {
            char *end = nullptr;
            long n = std::strtol(a + 4, &end, 10);
            if (end == a + 4 || *end != '\0') {
                std::fprintf(stderr,
                             "%s: %.3s wants an entry index "
                             "(negative = from the end), got '%s'\n",
                             argv[0], a, a + 4);
                std::exit(2);
            }
            (a[2] == 'a' ? opts.diffA : opts.diffB) =
                static_cast<int>(n);
        } else if (std::strncmp(a, "--threshold=", 12) == 0) {
            char *end = nullptr;
            opts.threshold = std::strtod(a + 12, &end);
            if (end == a + 12 || *end != '\0' ||
                opts.threshold <= 1.0) {
                std::fprintf(stderr,
                             "%s: --threshold wants a ratio > 1.0, "
                             "got '%s'\n",
                             argv[0], a + 12);
                std::exit(2);
            }
        } else if (std::strncmp(a, "--floor=", 8) == 0 &&
                   a[8] != '\0') {
            opts.floorPath = a + 8;
        } else if (std::strncmp(a, "--clusters=", 11) == 0) {
            opts.clustersList = a + 11;
        } else if (std::strncmp(a, "--slots=", 8) == 0) {
            opts.slotsList = a + 8;
        } else if (std::strncmp(a, "--regs=", 7) == 0) {
            opts.regsList = a + 7;
        } else if (std::strncmp(a, "--mem-kb=", 9) == 0) {
            opts.memKbList = a + 9;
        } else if (std::strncmp(a, "--stages=", 9) == 0) {
            opts.stagesList = a + 9;
        } else if (std::strcmp(a, "--mul16") == 0) {
            opts.mul16 = true;
        } else if (std::strncmp(a, "--max-area=", 11) == 0) {
            char *end = nullptr;
            opts.maxAreaMm2 = std::strtod(a + 11, &end);
            if (end == a + 11 || *end != '\0') {
                std::fprintf(stderr,
                             "%s: --max-area wants a number (mm^2), "
                             "got '%s'\n",
                             argv[0], a + 11);
                std::exit(2);
            }
        } else if (std::strcmp(a, "--no-score") == 0) {
            opts.score = false;
        } else if (std::strcmp(a, "--no-quarantine") == 0) {
            opts.fsckRepair = false;
        } else if (a[0] == '-') {
            usageAndExit(argv[0]);
        } else {
            opts.positional.push_back(a);
        }
    }
    return opts;
}

std::vector<DatapathConfig>
resolveMachines(const DriverOptions &opts,
                const std::vector<DatapathConfig> &fallback)
{
    if (opts.machines.empty())
        return fallback;
    std::vector<DatapathConfig> machines;
    for (const std::string &m : opts.machines) {
        std::string error;
        auto cfg = ModelRegistry::instance().resolve(m, &error);
        if (!cfg) {
            std::fprintf(stderr, "vvsp: %s\n", error.c_str());
            std::exit(2);
        }
        machines.push_back(std::move(*cfg));
    }
    return machines;
}

Observability::Observability(const DriverOptions &opts)
    : opts_(opts), start_(std::chrono::steady_clock::now())
{
    // The ledger persists the registry snapshot, so recording must be
    // on whenever any consumer (print, profile, or ledger) wants it.
    if (opts_.stats || opts_.profile || !opts_.ledgerPath.empty())
        obs::setGlobalStats(&stats_);
}

Observability::~Observability()
{
    obs::setGlobalStats(nullptr);
    if (opts_.profile) {
        // Per-phase wall-time breakdown from the "phase/<name>"
        // scopes timedPhase records (see obs/stats_registry.hh).
        // Phases nest - list_sched, modulo_sched, encode and the
        // rest of the schedule walk (walk) run inside compose - so
        // nested phases print indented under their parent with a
        // share of the *parent's* time; top-level shares are of the
        // pipeline total and sum to ~100%.
        struct Row
        {
            std::string name;
            obs::Log2Histogram wall;
        };
        auto parent_of = [](const std::string &name) -> const char * {
            if (name == "list_sched" || name == "modulo_sched" ||
                name == "encode" || name == "walk")
                return "compose";
            return nullptr;
        };
        std::vector<Row> rows;
        uint64_t pipeline_us = 0;
        for (const auto &d : stats_.distributions()) {
            const std::string &path = d.first;
            if (path.rfind("phase/", 0) != 0)
                continue;
            const std::string suffix = "/wall_us";
            if (path.size() <= 6 + suffix.size() ||
                path.compare(path.size() - suffix.size(),
                             suffix.size(), suffix) != 0) {
                continue;
            }
            std::string name = path.substr(
                6, path.size() - 6 - suffix.size());
            if (parent_of(name) == nullptr)
                pipeline_us += d.second.sum();
            rows.push_back(Row{std::move(name), d.second});
        }
        std::fputs("\n== profile (per-phase wall time) ==\n", stdout);
        if (rows.empty()) {
            std::fputs("no phase samples recorded (cache-only run?)\n",
                       stdout);
        } else {
            auto print_row = [](const std::string &label,
                                const obs::Log2Histogram &wall,
                                uint64_t base_us,
                                const char *share_note) {
                std::printf(
                    "%-16s %8llu %12.3f %10.1f %6.1f%%%s\n",
                    label.c_str(),
                    static_cast<unsigned long long>(wall.count()),
                    static_cast<double>(wall.sum()) / 1000.0,
                    wall.mean(),
                    base_us ? 100.0 * static_cast<double>(wall.sum()) /
                                  static_cast<double>(base_us)
                            : 0.0,
                    share_note);
            };
            std::printf("%-16s %8s %12s %10s %7s\n", "phase", "runs",
                        "total_ms", "avg_us", "share");
            for (const Row &r : rows) {
                if (parent_of(r.name) != nullptr)
                    continue; // printed under its parent below.
                print_row(r.name, r.wall, pipeline_us, "");
                for (const Row &c : rows) {
                    const char *p = parent_of(c.name);
                    if (p == nullptr || r.name != p)
                        continue;
                    print_row("  " + c.name, c.wall, r.wall.sum(),
                              " of parent");
                }
            }
            std::printf("pipeline total %.3f ms (top-level phases; "
                        "indented phases nest inside their parent "
                        "and report share-of-parent)\n",
                        static_cast<double>(pipeline_us) / 1000.0);
        }
    }
    if (opts_.stats) {
        std::string body =
            opts_.statsJson ? stats_.json() + "\n" : stats_.str();
        std::fputs("\n== stats ==\n", stdout);
        std::fputs(body.c_str(), stdout);
    }
    if (!opts_.traceFile.empty() && trace_.write(opts_.traceFile)) {
        std::fprintf(stderr,
                     "trace: wrote %zu slices to %s (load in "
                     "chrome://tracing)\n",
                     trace_.sliceCount(), opts_.traceFile.c_str());
    }
    if (!opts_.ledgerPath.empty()) {
        obs::RunManifest m;
        m.unixTime = static_cast<int64_t>(std::time(nullptr));
        m.subcommand = opts_.subcommand;
        m.machines = machines_;
        m.threads =
            opts_.threads
                ? opts_.threads
                : static_cast<int>(
                      std::thread::hardware_concurrency());
        m.diskCache = opts_.diskCache;
        m.cacheDir = !m.diskCache ? ""
                     : opts_.cacheDir.empty()
                         ? DiskCache::defaultDir()
                         : opts_.cacheDir;
        m.wallUs = obs::microsSince(start_);
        obs::snapshotStats(stats_, m);
        double wall_s = static_cast<double>(m.wallUs) / 1e6;
        uint64_t cells = stats_.counterValue("sweep/cells");
        m.metrics.emplace_back("wall_s", wall_s);
        if (cells > 0) {
            m.metrics.emplace_back("cells",
                                   static_cast<double>(cells));
            if (wall_s > 0) {
                m.metrics.emplace_back(
                    "cells_per_s",
                    static_cast<double>(cells) / wall_s);
            }
        }
        if (obs::appendToLedger(opts_.ledgerPath, m)) {
            std::fprintf(stderr, "ledger: appended '%s' entry to %s\n",
                         opts_.subcommand.c_str(),
                         opts_.ledgerPath.c_str());
        } else {
            std::fprintf(stderr, "ledger: cannot append to %s\n",
                         opts_.ledgerPath.c_str());
        }
    }
}

void
Observability::setMachines(const std::vector<DatapathConfig> &machines)
{
    machines_.clear();
    for (const DatapathConfig &m : machines)
        machines_.emplace_back(m.name, canonicalMachineKey(m));
}

DiskCacheAttachment::DiskCacheAttachment(const DriverOptions &opts)
{
    if (opts.diskCache) {
        disk_.emplace(opts.cacheDir.empty() ? DiskCache::defaultDir()
                                            : opts.cacheDir);
    }
}

SweepOptions
sweepOptions(const DriverOptions &opts, Observability &sinks,
             DiskCacheAttachment &disk)
{
    SweepOptions sopts;
    sopts.threads = opts.threads;
    sopts.disk = disk.get();
    if (!opts.traceFile.empty())
        sopts.trace = &sinks.trace();
    return sopts;
}

namespace
{

/**
 * Emit one kernel section's cells as a JSON object on stdout, in the
 * old per-table binaries' exact format, up to its closing brace.
 */
void
printJsonCells(const std::string &kernel_name,
               std::span<const ExperimentResult> results,
               const std::vector<double> &paper_values)
{
    std::printf("{\"kernel\": \"%s\", \"cells\": [\n",
                json::escape(kernel_name).c_str());
    for (size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &r = results[i];
        // "degraded" appears only on cells whose scheduling budget
        // ran out (VVSP_SCHED_BUDGET), keeping un-budgeted output —
        // and the golden byte-identity tests — unchanged.
        std::printf("  {\"variant\": \"%s\", \"model\": \"%s\", "
                    "\"cycles_per_frame\": %.1f, "
                    "\"cycles_per_unit\": %.4f, "
                    "\"paper_cycles_per_frame\": %.1f, "
                    "\"code_words\": %lld, \"code_bytes\": %lld, "
                    "\"passed\": %s, \"icache_ok\": %s, "
                    "\"registers_ok\": %s%s}%s\n",
                    json::escape(r.variant).c_str(),
                    json::escape(r.model).c_str(), r.cyclesPerFrame,
                    r.cyclesPerUnit, paper_values[i],
                    static_cast<long long>(r.comp.codeWords),
                    static_cast<long long>(r.comp.codeBytes),
                    r.passed ? "true" : "false",
                    r.comp.icacheOk ? "true" : "false",
                    r.comp.registersOk ? "true" : "false",
                    r.comp.degradedRegions > 0 ? ", \"degraded\": true"
                                               : "",
                    i + 1 < results.size() ? "," : "");
    }
    std::printf("]}");
}

/** Print one section's paper-style text table and flag legend. */
void
printTextSection(const std::string &kernel_name,
                 const SectionGrid &grid,
                 std::span<const ExperimentResult> results)
{
    std::printf("%s (cycles per 720x480 frame; 'paper' = HPCA'97 "
                "Table value)\n\n",
                kernel_name.c_str());

    TextTable table;
    std::vector<std::string> head{"schedule"};
    for (const auto &m : grid.models) {
        head.push_back(m.name);
        head.push_back("paper");
        head.push_back("code");
    }
    table.header(head);

    size_t idx = 0;
    for (const std::string &row_name : grid.rowNames) {
        std::vector<std::string> cells{row_name};
        for (size_t col = 0; col < grid.models.size(); ++col, ++idx) {
            const ExperimentResult &r = results[idx];
            std::string cell = TextTable::cycles(r.cyclesPerFrame);
            if (!r.passed)
                cell += "!";
            if (!r.comp.icacheOk)
                cell += "^"; // hot loop exceeds the icache.
            if (!r.comp.registersOk)
                cell += "*"; // register pressure exceeds the file.
            if (r.comp.degradedRegions > 0)
                cell += "~"; // scheduling budget exhausted.
            cells.push_back(cell);
            double pv = grid.paperCycles[idx];
            cells.push_back(pv > 0 ? TextTable::cycles(pv) : "-");
            // Measured static code size (encoder ground truth), in
            // long-instruction words.
            cells.push_back(
                std::to_string(r.comp.codeWords) + "w");
        }
        table.row(cells);
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("flags: ! golden mismatch, ^ hot loop exceeds icache, "
                "* register pressure exceeds file, ~ degraded "
                "(scheduling budget exhausted); 'code' = measured "
                "instruction words\n\n");
}

/** The sections the positional arguments name; all without any. */
std::vector<const SpecSection *>
selectSections(const ExperimentSpec &spec, const DriverOptions &opts)
{
    std::vector<const SpecSection *> sections;
    if (opts.positional.empty()) {
        for (const SpecSection &s : spec.sections)
            sections.push_back(&s);
        return sections;
    }
    for (const std::string &name : opts.positional) {
        const SpecSection *s = spec.section(name);
        if (!s) {
            std::fprintf(stderr,
                         "vvsp: %s has no section '%s' (sections:",
                         spec.name.c_str(), name.c_str());
            for (const SpecSection &sec : spec.sections)
                std::fprintf(stderr, " %s", sec.alias.c_str());
            std::fprintf(stderr, ")\n");
            std::exit(2);
        }
        sections.push_back(s);
    }
    return sections;
}

} // anonymous namespace

void
runSections(const ExperimentSpec &spec,
            const std::vector<DatapathConfig> &machines,
            const DriverOptions &opts)
{
    const std::vector<const SpecSection *> sections =
        selectSections(spec, opts);
    Observability sinks(opts);
    sinks.setMachines(machines);
    DiskCacheAttachment disk(opts);

    // Every selected section's cells as one batch, in paper order.
    std::vector<SectionGrid> grids;
    std::vector<ExperimentRequest> requests;
    for (const SpecSection *s : sections) {
        grids.push_back(lowerSection(spec, *s, machines, opts.variant));
        const SectionGrid &g = grids.back();
        requests.insert(requests.end(), g.requests.begin(),
                        g.requests.end());
    }
    SweepRunner runner(sweepOptions(opts, sinks, disk));
    const std::vector<ExperimentResult> results = runner.run(requests);

    // The distance from the paper, as counters a ledger diff flags.
    const FidelityScorecard card = scoreFidelity(grids, results);
    const obs::StatsScope fidelity =
        obs::globalScope("fidelity").scope(spec.name);
    card.batch.record(fidelity);
    for (size_t i = 0; i < sections.size(); ++i)
        card.sections[i].record(fidelity.scope(sections[i]->alias));

    // Several sections under --json form one array of the
    // per-section objects; a single section prints its object alone.
    const bool json_array = opts.json && sections.size() > 1;
    if (json_array)
        std::printf("[\n");
    size_t offset = 0;
    for (size_t i = 0; i < sections.size(); ++i) {
        const SectionGrid &grid = grids[i];
        const std::span<const ExperimentResult> slice(
            results.data() + offset, grid.requests.size());
        offset += grid.requests.size();
        if (!opts.json) {
            printTextSection(sections[i]->kernel, grid, slice);
            continue;
        }
        printJsonCells(sections[i]->kernel, slice, grid.paperCycles);
        std::printf(json_array && i + 1 < sections.size() ? ",\n"
                                                          : "\n");
    }
    if (json_array)
        std::printf("]\n");
}

} // namespace cli
} // namespace vvsp
