/** @file IR construction, verification, and structural tests. */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/verifier.hh"

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

TEST(Operand, Kinds)
{
    EXPECT_TRUE(Operand::none().isNone());
    EXPECT_TRUE(R(3).isReg());
    EXPECT_TRUE(K(-7).isImm());
    EXPECT_EQ(R(3), R(3));
    EXPECT_FALSE(R(3) == R(4));
    EXPECT_FALSE(R(3) == K(3));
    EXPECT_EQ(K(5).str(), "#5");
    EXPECT_EQ(R(5).str(), "v5");
}

TEST(OpcodeTable, Consistency)
{
    EXPECT_EQ(opcodeName(Opcode::Add), "add");
    EXPECT_EQ(opcodeInfo(Opcode::Add).fuClass, FuClass::Alu);
    EXPECT_EQ(opcodeInfo(Opcode::Shl).fuClass, FuClass::Shift);
    EXPECT_EQ(opcodeInfo(Opcode::Mul8).fuClass, FuClass::Mult);
    EXPECT_EQ(opcodeInfo(Opcode::Load).fuClass, FuClass::Mem);
    EXPECT_EQ(opcodeInfo(Opcode::Br).fuClass, FuClass::Branch);
    EXPECT_TRUE(opcodeInfo(Opcode::CmpLt).isCompare);
    EXPECT_FALSE(opcodeInfo(Opcode::Store).hasDst);
    EXPECT_TRUE(opcodeInfo(Opcode::Store).isMemory);
}

TEST(Builder, BuildsBlocksAndLoops)
{
    IRBuilder b("t");
    int buf = b.buffer("data", 16);
    Vreg acc = b.movi(0);
    auto &loop = b.beginLoop(16, "i");
    Vreg x = b.load(buf, R(loop.inductionVar));
    b.emitTo(acc, Opcode::Add, R(acc), R(x));
    b.endLoop();
    b.store(buf, R(acc), K(0));
    Function fn = b.finish();

    EXPECT_EQ(fn.buffers.size(), 1u);
    EXPECT_EQ(fn.body.size(), 3u); // block, loop, block.
    EXPECT_EQ(fn.body[1]->kind(), NodeKind::Loop);
    EXPECT_TRUE(verify(fn).empty());
}

TEST(Builder, IfElseStructure)
{
    IRBuilder b("t");
    Vreg c = b.movi(1);
    b.beginIf(R(c));
    b.movi(10);
    b.beginElse();
    b.movi(20);
    b.endIf();
    Function fn = b.finish();
    ASSERT_EQ(fn.body.size(), 2u);
    const auto &iff = static_cast<const IfNode &>(*fn.body[1]);
    EXPECT_EQ(iff.kind(), NodeKind::If);
    EXPECT_EQ(iff.thenBody.size(), 1u);
    EXPECT_EQ(iff.elseBody.size(), 1u);
}

TEST(Builder, ClusterContext)
{
    IRBuilder b("t");
    b.setCluster(2);
    int buf = b.buffer("remote", 8);
    Vreg v = b.movi(1);
    b.store(buf, R(v), K(0));
    Function fn = b.finish();
    EXPECT_EQ(fn.buffer(buf).cluster, 2);
    const auto &blk = static_cast<const BlockNode &>(*fn.body[0]);
    for (const auto &op : blk.ops)
        EXPECT_EQ(op.cluster, 2);
}

TEST(Builder, BufferRanges)
{
    IRBuilder b("t");
    int pix = b.buffer("pix", 4, 0, 255);
    Function fn = b.finish();
    EXPECT_EQ(fn.buffer(pix).minValue, 0);
    EXPECT_EQ(fn.buffer(pix).maxValue, 255);
}

TEST(Function, CloneIsDeep)
{
    IRBuilder b("t");
    auto &loop = b.beginLoop(4, "i");
    (void)loop;
    b.movi(1);
    b.endLoop();
    Function fn = b.finish();
    Function copy = fn.clone();
    // Mutating the copy must not touch the original.
    static_cast<LoopNode &>(*copy.body[0]).tripCount = 99;
    EXPECT_EQ(static_cast<LoopNode &>(*fn.body[0]).tripCount, 4);
    EXPECT_EQ(copy.numVregs(), fn.numVregs());
}

TEST(Function, RenumberAllIsDenseAndUnique)
{
    IRBuilder b("t");
    auto &loop = b.beginLoop(4, "i");
    (void)loop;
    b.movi(1);
    b.movi(2);
    b.endLoop();
    b.movi(3);
    Function fn = b.finish();
    fn.renumberAll();
    std::set<int> node_ids, op_ids;
    forEachNode(fn.body, [&](const Node &n) {
        EXPECT_TRUE(node_ids.insert(n.id).second);
        if (n.kind() == NodeKind::Block) {
            for (const auto &op : static_cast<const BlockNode &>(n).ops)
                EXPECT_TRUE(op_ids.insert(op.id).second);
        }
    });
    EXPECT_EQ(static_cast<int>(node_ids.size()), fn.numNodeIds());
    EXPECT_EQ(static_cast<int>(op_ids.size()), fn.numOpIds());
}

TEST(Verifier, CatchesUndefinedUse)
{
    IRBuilder b("t");
    b.add(R(999), K(1));
    Function fn = b.finish();
    auto problems = verify(fn);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("undefined"), std::string::npos);
}

TEST(Verifier, CatchesBadBuffer)
{
    IRBuilder b("t");
    Vreg v = b.movi(0);
    Operation st;
    st.op = Opcode::Store;
    st.src = {R(v), K(0), Operand::none()};
    st.buffer = 7; // no such buffer.
    b.emitOp(st);
    Function fn = b.finish();
    EXPECT_FALSE(verify(fn).empty());
}

TEST(BuilderDeath, BeginLoopRejectsNegativeTripCount)
{
    IRBuilder b("t");
    EXPECT_DEATH(b.beginLoop(-1, "w"), "negative trip count");
}

TEST(Verifier, CatchesNegativeTripCount)
{
    IRBuilder b("t");
    b.movi(1);
    Function fn = b.finish();
    auto loop = std::make_unique<LoopNode>();
    loop->id = fn.newNodeId();
    loop->label = "w";
    loop->tripCount = -1;
    fn.body.push_back(std::move(loop));
    auto problems = verify(fn);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("negative trip count -1"),
              std::string::npos);
}

TEST(Verifier, AcceptsZeroTripLoop)
{
    // Zero is the smallest trip count a counted loop may have.
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    auto &loop = b.beginLoop(0, "i");
    b.store(buf, R(loop.inductionVar), K(0));
    b.endLoop();
    Function fn = b.finish();
    EXPECT_TRUE(verify(fn).empty());
}

TEST(Verifier, CatchesPointerLoopWithoutBound)
{
    IRBuilder b("t");
    Vreg base = b.movi(4);
    auto &loop = b.beginLoop(8, "p");
    loop.ivInit = R(base); // no boundVreg.
    b.movi(1);
    b.endLoop();
    Function fn = b.finish();
    EXPECT_FALSE(verify(fn).empty());
}

TEST(Verifier, AcceptsWellFormedPointerLoop)
{
    IRBuilder b("t");
    Vreg base = b.movi(4);
    Vreg bound = b.add(R(base), K(8));
    auto &loop = b.beginLoop(8, "p");
    loop.ivInit = R(base);
    loop.boundVreg = bound;
    b.add(R(loop.inductionVar), K(0));
    b.endLoop();
    Function fn = b.finish();
    EXPECT_TRUE(verify(fn).empty());
}

TEST(Region, PrintingIsStable)
{
    IRBuilder b("t");
    Vreg c = b.cmpLt(K(1), K(2));
    b.beginIf(R(c));
    b.movi(1);
    b.endIf();
    Function fn = b.finish();
    std::string s = fn.str();
    EXPECT_NE(s.find("function t"), std::string::npos);
    EXPECT_NE(s.find("cmplt"), std::string::npos);
    EXPECT_NE(s.find("if "), std::string::npos);
}

TEST(Operation, PredicatePrinting)
{
    Operation op;
    op.op = Opcode::Mov;
    op.dst = 1;
    op.src[0] = K(5);
    op.pred = R(9);
    op.predSense = false;
    EXPECT_NE(op.str().find("ifnot v9"), std::string::npos);
}

} // namespace
} // namespace vvsp
