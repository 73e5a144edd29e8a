/**
 * @file
 * `vvsp explore [--machine BASE] [--clusters=..] [--slots=..]
 * [--regs=..] [--mem-kb=..] [--stages=..] [--mul16]
 * [--max-area=MM2] [--no-score]`: design-space exploration, the
 * paper's Sec. 3 methodology as a tool. Enumerates candidate
 * datapaths over the given ranges — starting from any registered or
 * JSON-loaded machine when --machine is given — prices each with
 * the VLSI models, scores the survivors with blocked full motion
 * search as one concurrent sweep batch, and prints the
 * area/performance Pareto frontier.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver.hh"
#include "core/design_space.hh"
#include "support/table.hh"

namespace vvsp
{
namespace cli
{

namespace
{

/** Parse a comma-separated positive-integer list, e.g. "4,8,16". */
std::vector<int>
parseIntList(const std::string &text, const char *flag)
{
    std::vector<int> values;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t comma = text.find(',', pos);
        std::string item = text.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        char *end = nullptr;
        long n = std::strtol(item.c_str(), &end, 10);
        if (end == item.c_str() || *end != '\0' || n <= 0) {
            std::fprintf(stderr,
                         "vvsp: %s wants a comma-separated list of "
                         "positive integers, got '%s'\n",
                         flag, text.c_str());
            std::exit(2);
        }
        values.push_back(static_cast<int>(n));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (values.empty()) {
        std::fprintf(stderr, "vvsp: %s wants a non-empty list\n",
                     flag);
        std::exit(2);
    }
    return values;
}

} // anonymous namespace

int
cmdExplore(const DriverOptions &opts)
{
    DesignSweep sweep;
    if (!opts.clustersList.empty())
        sweep.clusterCounts =
            parseIntList(opts.clustersList, "--clusters");
    if (!opts.slotsList.empty())
        sweep.issueSlots = parseIntList(opts.slotsList, "--slots");
    if (!opts.regsList.empty())
        sweep.registerCounts = parseIntList(opts.regsList, "--regs");
    else
        sweep.registerCounts = {64, 128};
    if (!opts.memKbList.empty())
        sweep.localMemKb = parseIntList(opts.memKbList, "--mem-kb");
    if (!opts.stagesList.empty())
        sweep.pipelineDepths =
            parseIntList(opts.stagesList, "--stages");
    sweep.includeMul16 = opts.mul16;
    sweep.maxAreaMm2 = opts.maxAreaMm2;

    std::string base_name = "paper derivation heuristics";
    if (!opts.machines.empty()) {
        if (opts.machines.size() > 1) {
            std::fprintf(stderr,
                         "vvsp: explore takes a single --machine "
                         "base\n");
            std::exit(2);
        }
        std::string error;
        auto base = ModelRegistry::instance().resolve(
            opts.machines.front(), &error);
        if (!base) {
            std::fprintf(stderr, "vvsp: %s\n", error.c_str());
            std::exit(2);
        }
        base_name = "base machine " + base->name;
        sweep.base = std::move(*base);
    }

    std::printf("VLIW VSP design-space exploration "
                "(0.25um megacell models, %s)\n\n",
                base_name.c_str());

    Observability sinks(opts);
    if (sweep.base)
        sinks.setMachines({*sweep.base});
    DiskCacheAttachment disk(opts);

    SweepRunner runner(sweepOptions(opts, sinks, disk));
    std::vector<DesignPoint> points =
        exploreDesignSpace(sweep, opts.score ? &runner : nullptr);
    std::printf("%zu candidate datapaths priced%s "
                "(%d threads)\n\n",
                points.size(), opts.score ? " and scored" : "",
                runner.threadCount());

    if (!opts.score) {
        TextTable t;
        t.header({"design", "area mm^2", "clock MHz", "peak GOPS"});
        for (const auto &p : points) {
            t.row({p.config.name, TextTable::num(p.areaMm2, 1),
                   TextTable::num(p.clockMhz, 0),
                   TextTable::num(p.peakGops, 1)});
        }
        std::printf("%s\n", t.str().c_str());
        return 0;
    }

    auto frontier = paretoFrontier(points);
    std::printf("Pareto frontier (area vs full-search frames/s):\n");
    TextTable t;
    t.header({"design", "area mm^2", "clock MHz", "peak GOPS",
              "frames/s"});
    for (const auto &p : frontier) {
        if (p.framesPerSecond <= 0)
            continue;
        t.row({p.config.name, TextTable::num(p.areaMm2, 1),
               TextTable::num(p.clockMhz, 0),
               TextTable::num(p.peakGops, 1),
               TextTable::num(p.framesPerSecond, 0)});
    }
    std::printf("%s\n", t.str().c_str());

    std::printf("The paper's observation should be visible here: "
                "small clusters with\nhigh clock rates dominate once "
                "blocking removes the load bottleneck,\nand memory "
                "capacity beyond the working set only costs area "
                "(Sec. 4).\n");
    return 0;
}

} // namespace cli
} // namespace vvsp
