/** @file Cluster partitioning and transfer-insertion tests. */

#include <gtest/gtest.h>

#include "arch/models.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "sched/cluster_assign.hh"
#include "xform/passes.hh"
#include "sim/interpreter.hh"

namespace vvsp
{
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

/** Four independent 4-op chains feeding one store. */
Function
buildChains()
{
    IRBuilder b("chains");
    int buf = b.buffer("o", 8);
    std::vector<Vreg> results;
    for (int c = 0; c < 4; ++c) {
        Vreg v = b.movi(c + 1);
        for (int i = 0; i < 3; ++i)
            v = b.add(R(v), K(1));
        results.push_back(v);
    }
    for (int c = 0; c < 4; ++c)
        b.store(buf, R(results[static_cast<size_t>(c)]), K(c));
    return b.finish();
}

TEST(AutoPartition, SpreadsIndependentChains)
{
    Function fn = buildChains();
    MachineModel machine(models::i4c8s4());
    autoPartition(fn, LoweringTarget::of(machine, 4));
    std::set<int> used;
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (const auto &op : blk.ops) {
            if (!op.info().isMemory)
                used.insert(op.cluster);
        }
    });
    EXPECT_EQ(used.size(), 4u);
}

TEST(AutoPartition, ChainsStayTogether)
{
    Function fn = buildChains();
    MachineModel machine(models::i4c8s4());
    autoPartition(fn, LoweringTarget::of(machine, 4));
    // Within each chain, producer and consumer share a cluster.
    std::map<Vreg, int> def_cluster;
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (const auto &op : blk.ops) {
            if (op.info().isMemory)
                continue;
            for (const auto &s : op.src) {
                if (s.isReg() && def_cluster.count(s.reg)) {
                    EXPECT_EQ(op.cluster, def_cluster[s.reg]);
                }
            }
            if (op.info().hasDst)
                def_cluster[op.dst] = op.cluster;
        }
    });
}

TEST(AutoPartition, MemoryOpsPinnedToBufferCluster)
{
    IRBuilder b("t");
    b.setCluster(0);
    int buf = b.buffer("o", 4);
    Vreg v = b.movi(1);
    b.store(buf, R(v), K(0)); // stores pin to the buffer's home.
    Function fn = b.finish();
    MachineModel machine(models::i4c8s4());
    autoPartition(fn, LoweringTarget::of(machine, 4));
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (const auto &op : blk.ops) {
            if (op.op == Opcode::Store) {
                EXPECT_EQ(op.cluster, 0);
            }
        }
    });
    validateClusterAssignment(fn, machine);
}

TEST(InsertTransfers, CrossClusterValuesGetXfers)
{
    Function fn = buildChains();
    MachineModel machine(models::i4c8s4());
    autoPartition(fn, LoweringTarget::of(machine, 4));
    insertTransfers(fn);
    fn.renumberAll();
    verifyOrDie(fn);
    validateClusterAssignment(fn, machine);
    // The stores sit on cluster 0; three chains live elsewhere, so
    // at least three transfers must exist.
    size_t xfers = 0;
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (const auto &op : blk.ops) {
            if (op.op == Opcode::Xfer) {
                xfers++;
                EXPECT_NE(op.cluster, op.dstCluster);
            }
        }
    });
    EXPECT_GE(xfers, 3u);
}

TEST(InsertTransfers, PreservesSemantics)
{
    Function fn = buildChains();
    Function ref = fn.clone();
    MachineModel machine(models::i4c8s4());
    autoPartition(fn, LoweringTarget::of(machine, 4));
    insertTransfers(fn);
    fn.renumberAll();
    verifyOrDie(fn);

    MemoryImage m1(fn), m2(ref);
    Interpreter(fn).run(m1);
    Interpreter(ref).run(m2);
    EXPECT_EQ(m1.bufferWords(0), m2.bufferWords(0));
}

TEST(InsertTransfers, ConsumersAfterTransferReuseTheCopy)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg v = b.movi(7);
    Vreg a = b.add(R(v), K(1));
    Vreg c = b.add(R(v), K(2));
    b.store(buf, R(a), K(0));
    b.store(buf, R(c), K(1));
    Function fn = b.finish();
    // Hand-assign: producer on cluster 1, consumers on cluster 0.
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (auto &op : blk.ops) {
            if (op.info().hasDst && op.dst == v)
                op.cluster = 1;
        }
    });
    insertTransfers(fn);
    size_t xfers = 0;
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (const auto &op : blk.ops) {
            if (op.op == Opcode::Xfer)
                xfers++;
        }
    });
    EXPECT_EQ(xfers, 1u); // one transfer serves both consumers.
}

TEST(ReplicateReadOnly, ClonesTablesPerCluster)
{
    IRBuilder b("t");
    int tab = b.buffer("tab", 8);
    int out = b.buffer("o", 2);
    Vreg x = b.load(tab, K(0));
    Vreg y = b.load(tab, K(1));
    Vreg s = b.add(R(x), R(y));
    b.store(out, R(s), K(0));
    Function fn = b.finish();
    // Force the loads onto cluster 2.
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (auto &op : blk.ops) {
            if (op.op == Opcode::Load)
                op.cluster = 2;
        }
    });
    size_t before = fn.buffers.size();
    replicateReadOnlyBuffers(fn);
    EXPECT_EQ(fn.buffers.size(), before + 1);
    EXPECT_EQ(fn.buffers.back().name, "tab");
    EXPECT_EQ(fn.buffers.back().cluster, 2);
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (const auto &op : blk.ops) {
            if (op.op == Opcode::Load) {
                EXPECT_EQ(fn.buffer(op.buffer).cluster, 2);
            }
        }
    });
}

TEST(ReplicateReadOnly, WrittenBuffersAreNotCloned)
{
    IRBuilder b("t");
    int buf = b.buffer("rw", 8);
    Vreg x = b.load(buf, K(0));
    b.store(buf, R(x), K(1));
    Function fn = b.finish();
    passes::forEachBlock(fn, [&](BlockNode &blk) {
        for (auto &op : blk.ops) {
            if (op.op == Opcode::Load)
                op.cluster = 1;
        }
    });
    size_t before = fn.buffers.size();
    replicateReadOnlyBuffers(fn);
    EXPECT_EQ(fn.buffers.size(), before);
}

TEST(InductionVars, CollectsAllLoops)
{
    IRBuilder b("t");
    auto &l1 = b.beginLoop(4, "a");
    auto &l2 = b.beginLoop(4, "b");
    b.add(R(l2.inductionVar), R(l1.inductionVar));
    b.endLoop();
    b.endLoop();
    Function fn = b.finish();
    auto ivs = inductionVars(fn);
    EXPECT_EQ(ivs.size(), 2u);
    EXPECT_TRUE(ivs.count(l1.inductionVar));
    EXPECT_TRUE(ivs.count(l2.inductionVar));
}

} // namespace
} // namespace vvsp
