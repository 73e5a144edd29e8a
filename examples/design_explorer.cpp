/**
 * @file
 * Design-space exploration (the paper's Sec. 3 methodology as a
 * tool): enumerate candidate datapaths over clusters, issue slots,
 * registers, memory and pipeline depth; price each with the VLSI
 * models; score them with a motion-search workload; and print the
 * area/performance Pareto frontier.
 *
 * exploreDesignSpace submits the scoring grid as one SweepRunner
 * batch: every candidate is evaluated concurrently, and configs that
 * differ only in parameters the kernel pipeline ignores share
 * memoized work.
 */

#include <cstdio>

#include "core/vvsp.hh"

using namespace vvsp;

int
main()
{
    std::printf("VLIW VSP design-space exploration "
                "(0.25um megacell models + full motion search)\n\n");

    DesignSweep sweep;
    sweep.clusterCounts = {4, 8, 16};
    sweep.issueSlots = {2, 4};
    sweep.registerCounts = {64, 128};
    sweep.localMemKb = {8, 16, 32};
    sweep.pipelineDepths = {4, 5};
    sweep.maxAreaMm2 = 260.0;

    SweepRunner runner;
    std::vector<DesignPoint> points = exploreDesignSpace(sweep, &runner);
    std::printf("%zu candidate datapaths priced and scored "
                "(%d threads)\n\n",
                points.size(), runner.threadCount());

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
