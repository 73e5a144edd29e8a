/**
 * @file
 * Declarative experiment registry: the paper's experiments are
 * declared as data and lower onto SweepRunner request grids. Checks
 * the registered specs, section lookup by alias, row-major lowering
 * with paper values in raw cycles, model-filtered lowering (paper
 * columns matched by name), and the design-space enumerator's
 * base-machine mode.
 */

#include <gtest/gtest.h>

#include "arch/models.hh"
#include "core/design_space.hh"
#include "core/experiment_spec.hh"

using namespace vvsp;

TEST(ExperimentSpec, RegistersThePaperArtifacts)
{
    for (const char *name : {"table1", "table2", "ablation",
                             "conclusions", "utilization", "figs"}) {
        ASSERT_NE(findExperimentSpec(name), nullptr) << name;
    }
    EXPECT_EQ(findExperimentSpec("table3"), nullptr);

    const ExperimentSpec &t1 = *findExperimentSpec("table1");
    EXPECT_EQ(t1.models.size(), 5u);
    EXPECT_EQ(t1.sections.size(), 6u);

    const ExperimentSpec &util = *findExperimentSpec("utilization");
    EXPECT_EQ(util.models.size(), 7u);
}

TEST(ExperimentSpec, SectionLookupByAliasOrKernelName)
{
    const ExperimentSpec &t1 = *findExperimentSpec("table1");
    const SpecSection *byAlias = t1.section("colorconv");
    ASSERT_NE(byAlias, nullptr);
    EXPECT_EQ(byAlias->kernel, "RGB:YCrCb converter/subsampler");
    EXPECT_EQ(t1.section("RGB:YCrCb converter/subsampler"), byAlias);
    EXPECT_EQ(t1.section("nope"), nullptr);
}

TEST(ExperimentSpec, LowersRowMajorWithPaperCycles)
{
    const ExperimentSpec &t1 = *findExperimentSpec("table1");
    const SpecSection &cc = *t1.section("colorconv");
    SectionGrid grid = lowerSection(t1, cc);

    ASSERT_EQ(grid.models.size(), 5u);
    ASSERT_EQ(grid.rowNames.size(), 4u);
    ASSERT_EQ(grid.requests.size(), 20u);
    ASSERT_EQ(grid.paperCycles.size(), 20u);

    // Row-major: first five requests are row 0 across the columns.
    EXPECT_EQ(grid.rowNames.front(), "Sequential");
    EXPECT_EQ(grid.requests[0].model.name, "I4C8S4");
    EXPECT_EQ(grid.requests[4].model.name, "I2C16S5");
    EXPECT_EQ(grid.requests[0].variant->name, "Sequential");
    EXPECT_EQ(grid.requests[0].profileUnits, cc.profileUnits);
    // Paper values are converted from millions to raw cycles.
    EXPECT_DOUBLE_EQ(grid.paperCycles[0], 15.15e6);
    EXPECT_DOUBLE_EQ(grid.paperCycles[1], 13.24e6);
}

TEST(ExperimentSpec, ModelFilterMatchesPaperColumnsByName)
{
    const ExperimentSpec &t1 = *findExperimentSpec("table1");
    const SpecSection &cc = *t1.section("colorconv");

    // I4C8S5 is spec column 2: its paper values must follow it.
    SectionGrid grid =
        lowerSection(t1, cc, {models::i4c8s5()});
    ASSERT_EQ(grid.models.size(), 1u);
    ASSERT_EQ(grid.requests.size(), 4u);
    EXPECT_DOUBLE_EQ(grid.paperCycles[0], 13.24e6);

    // A machine the paper never measured gets no paper values.
    DatapathConfig custom = models::i4c8s4();
    custom.name = "my-custom-machine";
    SectionGrid none = lowerSection(t1, cc, {custom});
    for (double pv : none.paperCycles)
        EXPECT_EQ(pv, 0.0);
}

TEST(ExperimentSpec, VariantFilterKeepsOneRow)
{
    const ExperimentSpec &t1 = *findExperimentSpec("table1");
    const SpecSection &cc = *t1.section("colorconv");
    SectionGrid grid =
        lowerSection(t1, cc, {}, "List-scheduled");
    ASSERT_EQ(grid.rowNames.size(), 1u);
    EXPECT_EQ(grid.rowNames.front(), "List-scheduled");
    EXPECT_EQ(grid.requests.size(), 5u);
}

TEST(ExperimentSpec, ConclusionsSpecDeclaresBestSchedules)
{
    const ExperimentSpec &c = *findExperimentSpec("conclusions");
    ASSERT_EQ(c.sections.size(), 4u);
    EXPECT_EQ(c.sections.front().kernel, "Full Motion Search");
    EXPECT_EQ(c.sections.front().rows.front().variant,
              "Add spec. op (blocked)");
    for (const SpecSection &s : c.sections)
        EXPECT_EQ(s.rows.size(), 1u) << s.kernel;
}

TEST(DesignSpace, DefaultEnumerationUnchanged)
{
    DesignSweep sweep;
    auto configs = enumerateSweepConfigs(sweep);
    // 3 clusters x 2 slots x 3 regs x 3 mem x 2 stages.
    EXPECT_EQ(configs.size(), 108u);
    for (const auto &cfg : configs)
        EXPECT_TRUE(cfg.validationError().empty()) << cfg.name;
    EXPECT_EQ(configs.front().name, "I2C4S4R64M8");
}

TEST(DesignSpace, BaseMachineInheritsUnsweptFields)
{
    DesignSweep sweep;
    sweep.base = models::i2c16s5();
    sweep.clusterCounts = {8};
    sweep.issueSlots = {4};
    sweep.registerCounts = {128};
    sweep.localMemKb = {16};
    sweep.pipelineDepths = {5};
    auto configs = enumerateSweepConfigs(sweep);
    ASSERT_EQ(configs.size(), 1u);
    const DatapathConfig &cfg = configs.front();
    // Swept fields overwrite the base...
    EXPECT_EQ(cfg.clusters, 8);
    EXPECT_EQ(cfg.cluster.issueSlots, 4);
    EXPECT_EQ(cfg.cluster.registers, 128);
    EXPECT_EQ(cfg.cluster.localMemBytes, 16 * 1024);
    // ...ports rise to the 3-per-slot minimum...
    EXPECT_GE(cfg.cluster.regFilePorts, 12);
    // ...and everything else is inherited from I2C16S5.
    EXPECT_TRUE(cfg.cluster.fastMemoryCell);
    EXPECT_EQ(cfg.addressing, AddressingModes::Complex);
    EXPECT_EQ(cfg.cluster.memBanks, 1);
}

TEST(DesignSpace, BaseMachineSkipsInconsistentCombos)
{
    // I4C8S4's 2048-byte memory modules make a 1 KB bank
    // impossible; the enumerator must skip it, not abort.
    DesignSweep sweep;
    sweep.base = models::i4c8s4();
    sweep.clusterCounts = {8};
    sweep.issueSlots = {4};
    sweep.registerCounts = {128};
    sweep.localMemKb = {1, 8};
    sweep.pipelineDepths = {4};
    auto configs = enumerateSweepConfigs(sweep);
    ASSERT_EQ(configs.size(), 1u);
    EXPECT_EQ(configs.front().cluster.localMemBytes, 8 * 1024);
}
