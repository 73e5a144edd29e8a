/**
 * @file
 * LoweringTarget soundness: a target is a complete key for a
 * lowering. Every variant of every kernel is lowered for the
 * registered models, their +2LS, +AD and +2LS+AD forms and the
 * example machine files. Machines whose targets compare equal must
 * lower a variant to the same function (fingerprint and text), and
 * the one lowering a shared target makes must equal lowerVariant on
 * the machines that share it.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "arch/config_json.hh"
#include "arch/models.hh"
#include "core/experiment.hh"
#include "sim/bytecode.hh"
#include "xform/passes.hh"

namespace vvsp
{
namespace
{

/** The machines a target must stand for. */
std::vector<DatapathConfig>
machines()
{
    std::vector<DatapathConfig> out;
    for (const char *name : {"I4C8S4", "I4C8S4C", "I4C8S5", "I2C16S4",
                             "I2C16S5", "I4C8S5M16", "I2C16S5M16"}) {
        const DatapathConfig base = models::byName(name);
        out.push_back(base);
        out.push_back(models::withAbsDiff(base));
        // A second load/store unit needs a slot of its own, which
        // the I2C16S4 cluster (two units on two slots) lacks.
        if (base.cluster.numLoadStoreUnits < base.cluster.issueSlots) {
            out.push_back(models::withDualLoadStore(base));
            out.push_back(
                models::withAbsDiff(models::withDualLoadStore(base)));
        }
    }
    for (const auto &entry :
         std::filesystem::directory_iterator(VVSP_EXAMPLE_MACHINES)) {
        std::string error;
        auto cfg = loadMachineFile(entry.path().string(), &error);
        EXPECT_TRUE(cfg) << entry.path() << ": " << error;
        if (cfg)
            out.push_back(*cfg);
    }
    return out;
}

/** The fields in which two targets differ, by name. */
std::string
differingFields(const LoweringTarget &a, const LoweringTarget &b)
{
    std::string out;
    auto note = [&out](bool differs, const char *field) {
        if (differs)
            out += std::string(out.empty() ? "" : ", ") + field;
    };
    note(a.mul16 != b.mul16, "mul16");
    note(a.complexAddressing != b.complexAddressing,
         "complexAddressing");
    note(a.partitionClusters != b.partitionClusters,
         "partitionClusters");
    note(a.memBanks != b.memBanks, "memBanks");
    return out.empty() ? "none" : out;
}

/** Whether lowerVariant's per-machine checks pass (it dies if not). */
bool
passesChecks(Function &fn, const MachineModel &machine)
{
    bool ok = true;
    passes::forEachBlock(fn, [&](BlockNode &block) {
        for (const Operation &op : block.ops)
            ok = ok && op.cluster < machine.clusters();
    });
    for (const MemBuffer &b : fn.buffers) {
        ok = ok && fn.bufferWords(b.cluster, b.bank) <=
                       machine.memWordsPerBank();
    }
    return ok;
}

TEST(LoweringTarget, EqualTargetsLowerToOneFunction)
{
    const std::vector<DatapathConfig> configs = machines();
    size_t cells = 0, shared = 0, composed = 0;
    for (const KernelSpec &k : allKernels()) {
        for (const VariantSpec &v : k.variants) {
            const Function prefix = lowerMachineFree(v);
            // One entry per distinct target: the lowering its first
            // machine made, and the last machine that shares it.
            struct Group
            {
                LoweringTarget target;
                std::string firstMachine;
                uint64_t fingerprint;
                std::string text;
                const DatapathConfig *last = nullptr;
            };
            std::vector<Group> groups;
            for (const DatapathConfig &base : configs) {
                const MachineModel machine(variantConfig(v, base));
                const LoweringTarget target =
                    loweringTarget(v, machine);
                Function fn = prefix.clone();
                lowerForMachine(fn, target);
                const uint64_t fingerprint = functionFingerprint(fn);
                ++cells;

                Group *group = nullptr;
                for (Group &g : groups) {
                    if (g.target == target)
                        group = &g;
                }
                if (!group) {
                    groups.push_back(
                        {target, base.name, fingerprint, fn.str()});
                    continue;
                }
                ++shared;
                SCOPED_TRACE(k.name + " / " + v.name + ": " + base.name +
                             " shares the target of " +
                             group->firstMachine + " (fields that " +
                             "differ: " +
                             differingFields(group->target, target) +
                             ")");
                EXPECT_EQ(fingerprint, group->fingerprint);
                EXPECT_TRUE(fn.str() == group->text);
                if (passesChecks(fn, machine))
                    group->last = &base;
            }
            // The staged lowering equals the composed path on a
            // machine other than the one that made it.
            for (const Group &g : groups) {
                if (!g.last)
                    continue;
                const DatapathConfig cfg = variantConfig(v, *g.last);
                SCOPED_TRACE(k.name + " / " + v.name + " on " +
                             cfg.name);
                const Function via =
                    lowerVariant(k, v, MachineModel(cfg));
                EXPECT_EQ(functionFingerprint(via), g.fingerprint);
                EXPECT_TRUE(via.str() == g.text);
                ++composed;
            }
        }
    }
    // 36 variants on every machine; most cells share a target.
    EXPECT_EQ(cells, 36u * configs.size());
    EXPECT_GT(shared, cells / 2);
    EXPECT_GT(composed, 36u);
}

/**
 * A ganged unit runs on the clusters its target partitions it over,
 * at most the machine's, so a four-cluster gang on a two-cluster
 * machine replicates once: its frame costs units * cycles per unit.
 */
TEST(LoweringTarget, GangWiderThanTheMachineReplicatesOnce)
{
    DatapathConfig two = models::i4c8s4();
    two.name = "I4C2S4";
    two.clusters = 2;
    two.cluster.localMemBytes = 16 * 1024;
    two.validate();
    struct Cell
    {
        const char *kernel;
        DatapathConfig model;
        int partition;
        double replication;
        double cyclesPerFrame;
    } cells[] = {
        {"DCT - traditional", two, 2, 1, 82'134'000},
        {"DCT - row/column", two, 2, 1, 22'874'400},
        {"DCT - row/column", models::i4c8s4(), 4, 2, 0},
    };
    for (const Cell &c : cells) {
        SCOPED_TRACE(std::string(c.kernel) + " on " + c.model.name);
        const KernelSpec &k = kernelByName(c.kernel);
        ExperimentRequest req;
        req.kernel = &k;
        req.variant = &k.variant("+unroll 2 levels & widen");
        req.model = c.model;
        req.profileUnits = 1;
        MachineModel machine(variantConfig(*req.variant, c.model));
        EXPECT_EQ(loweringTarget(*req.variant, machine).partitionClusters,
                  c.partition);
        ExperimentResult r = runExperiment(req);
        EXPECT_TRUE(r.passed) << r.note;
        EXPECT_EQ(r.replication, c.replication);
        EXPECT_DOUBLE_EQ(r.cyclesPerFrame, r.cyclesPerUnit *
                                               r.unitsPerFrame /
                                               c.replication);
        if (c.cyclesPerFrame > 0) {
            EXPECT_DOUBLE_EQ(r.cyclesPerFrame, c.cyclesPerFrame);
        }
    }
}

} // namespace
} // namespace vvsp
