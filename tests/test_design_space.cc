/** @file Design-space exploration tests. */

#include <gtest/gtest.h>

#include "core/design_space.hh"
#include "core/sweep.hh"

namespace vvsp
{
namespace
{

TEST(DesignSpace, EnumeratesFullSweep)
{
    DesignSweep sweep;
    sweep.clusterCounts = {8};
    sweep.issueSlots = {2, 4};
    sweep.registerCounts = {64, 128};
    sweep.localMemKb = {16};
    sweep.pipelineDepths = {4};
    auto points = exploreDesignSpace(sweep);
    EXPECT_EQ(points.size(), 4u);
    for (const auto &p : points) {
        EXPECT_GT(p.areaMm2, 0);
        EXPECT_GT(p.clockMhz, 100);
        EXPECT_GT(p.peakGops, 1);
    }
}

TEST(DesignSpace, AreaLimitFilters)
{
    DesignSweep sweep;
    sweep.clusterCounts = {8, 16};
    sweep.issueSlots = {4};
    sweep.registerCounts = {128};
    sweep.localMemKb = {32};
    sweep.pipelineDepths = {4};
    auto all = exploreDesignSpace(sweep);
    sweep.maxAreaMm2 = 200.0;
    auto limited = exploreDesignSpace(sweep);
    EXPECT_LT(limited.size(), all.size());
    for (const auto &p : limited)
        EXPECT_LE(p.areaMm2, 200.0);
}

TEST(DesignSpace, ScorerFeedsFramesPerSecond)
{
    DesignSweep sweep;
    sweep.clusterCounts = {8};
    sweep.issueSlots = {4};
    sweep.registerCounts = {128};
    sweep.localMemKb = {32};
    sweep.pipelineDepths = {4};
    SweepOptions one_thread;
    one_thread.threads = 1;
    SweepRunner runner(one_thread);
    auto points = exploreDesignSpace(sweep, &runner);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_GT(points[0].framesPerSecond, 0);
    EXPECT_EQ(exploreDesignSpace(sweep)[0].framesPerSecond, 0);
}

TEST(DesignSpace, ParetoFrontierIsMinimalAndSorted)
{
    std::vector<DesignPoint> points(4);
    points[0].areaMm2 = 100;
    points[0].framesPerSecond = 50;
    points[1].areaMm2 = 150;
    points[1].framesPerSecond = 40; // dominated by [0].
    points[2].areaMm2 = 200;
    points[2].framesPerSecond = 90;
    points[3].areaMm2 = 120;
    points[3].framesPerSecond = 70;
    auto frontier = paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_DOUBLE_EQ(frontier[0].areaMm2, 100);
    EXPECT_DOUBLE_EQ(frontier[1].areaMm2, 120);
    EXPECT_DOUBLE_EQ(frontier[2].areaMm2, 200);
}

TEST(DesignSpace, MoreMemoryCostsArea)
{
    DesignSweep sweep;
    sweep.clusterCounts = {8};
    sweep.issueSlots = {4};
    sweep.registerCounts = {128};
    sweep.localMemKb = {8, 32};
    sweep.pipelineDepths = {4};
    auto points = exploreDesignSpace(sweep);
    ASSERT_EQ(points.size(), 2u);
    // Sec. 4: an 8KB memory "could save up to 40% in datapath area".
    double small = points[0].areaMm2, big = points[1].areaMm2;
    if (small > big)
        std::swap(small, big);
    EXPECT_GT((big - small) / big, 0.25);
}

} // namespace
} // namespace vvsp
