/**
 * @file
 * Transformation-pass tests: each pass's specific rewrites plus the
 * blanket property that passes preserve functional semantics (same
 * buffer contents under the interpreter).
 */

#include <gtest/gtest.h>

#include "arch/models.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "kernels/kernel.hh"
#include "sim/bytecode.hh"
#include "sim/interpreter.hh"
#include "xform/passes.hh"

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

size_t
countOps(const Function &fn, Opcode op)
{
    size_t n = 0;
    forEachNode(const_cast<Function &>(fn).body, [&](Node &node) {
        if (node.kind() == NodeKind::Block) {
            for (const auto &o : static_cast<BlockNode &>(node).ops) {
                if (o.op == op)
                    n++;
            }
        }
    });
    return n;
}

size_t
totalOps(const Function &fn)
{
    size_t n = 0;
    forEachNode(const_cast<Function &>(fn).body, [&](Node &node) {
        if (node.kind() == NodeKind::Block)
            n += static_cast<BlockNode &>(node).ops.size();
    });
    return n;
}

/** Run fn and return the contents of its first buffer. */
std::vector<uint16_t>
runAndDump(const Function &fn,
           const std::vector<uint16_t> &init = {})
{
    MemoryImage mem(fn);
    if (!init.empty())
        mem.fill(0, 0, init);
    Interpreter interp(fn);
    interp.run(mem);
    return mem.bufferWords(0);
}

// ---- constant folding -------------------------------------------------

TEST(ConstFold, FoldsArithmetic)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg x = b.add(K(3), K(4));
    Vreg y = b.mul16(R(x), K(2));
    b.store(buf, R(y), K(0));
    Function fn = b.finish();
    passes::constFold(fn);
    EXPECT_EQ(countOps(fn, Opcode::Add), 0u);
    EXPECT_EQ(countOps(fn, Opcode::Mul16Lo), 0u);
    EXPECT_EQ(runAndDump(fn)[0], 14);
}

TEST(ConstFold, AlgebraicIdentities)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 4);
    Vreg v = b.load(buf, K(3));
    Vreg a = b.add(R(v), K(0));    // x+0 -> x.
    Vreg m = b.mul16(R(a), K(1));  // x*1 -> x.
    Vreg s = b.shl(R(m), K(0));    // x<<0 -> x.
    Vreg z = b.band(R(s), K(0));   // x&0 -> 0.
    b.store(buf, R(z), K(0));
    b.store(buf, R(s), K(1));
    Function fn = b.finish();
    passes::cleanup(fn);
    EXPECT_EQ(countOps(fn, Opcode::Add), 0u);
    EXPECT_EQ(countOps(fn, Opcode::Mul16Lo), 0u);
    EXPECT_EQ(countOps(fn, Opcode::Shl), 0u);
    EXPECT_EQ(countOps(fn, Opcode::And), 0u);
    auto out = runAndDump(fn, {0, 0, 0, 9});
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 9);
}

TEST(ConstFold, ResolvesConstantIfs)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg c = b.movi(0);
    b.beginIf(R(c));
    b.store(buf, K(1), K(0));
    b.beginElse();
    b.store(buf, K(2), K(0));
    b.endIf();
    Function fn = b.finish();
    passes::constFold(fn);
    bool has_if = false;
    forEachNode(fn.body, [&](const Node &n) {
        has_if |= n.kind() == NodeKind::If;
    });
    EXPECT_FALSE(has_if);
    EXPECT_EQ(runAndDump(fn)[0], 2);
}

TEST(ConstFold, DeletesZeroTripLoops)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    auto &loop = b.beginLoop(0, "i");
    b.store(buf, K(9), R(loop.inductionVar));
    b.endLoop();
    b.store(buf, K(3), K(1));
    Function fn = b.finish();
    passes::constFold(fn);
    bool has_loop = false;
    forEachNode(fn.body, [&](const Node &n) {
        has_loop |= n.kind() == NodeKind::Loop;
    });
    EXPECT_FALSE(has_loop);
    EXPECT_EQ(countOps(fn, Opcode::Store), 1u);
    auto out = runAndDump(fn);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 3);
}

TEST(ConstFold, StaticallyFalsePredicateBecomesNop)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    b.store(buf, K(3), K(0));
    Operation st;
    st.op = Opcode::Store;
    st.src = {K(9), K(0), Operand::none()};
    st.buffer = buf;
    st.pred = K(0); // never executes.
    b.emitOp(st);
    Function fn = b.finish();
    passes::constFold(fn);
    EXPECT_EQ(countOps(fn, Opcode::Store), 1u);
    EXPECT_EQ(runAndDump(fn)[0], 3);
}

TEST(ConstFold, CopyPropagationStopsAtRedefinition)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg src = b.movi(5);
    Vreg alias = b.mov(R(src));
    b.emitTo(src, Opcode::Mov, K(9));   // redefines the source.
    b.store(buf, R(alias), K(0));       // must still see 5.
    b.store(buf, R(src), K(1));
    Function fn = b.finish();
    passes::cleanup(fn);
    auto out = runAndDump(fn);
    EXPECT_EQ(out[0], 5);
    EXPECT_EQ(out[1], 9);
}

// ---- DCE ---------------------------------------------------------------

TEST(Dce, RemovesDeadChains)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg dead1 = b.movi(1);
    Vreg dead2 = b.add(R(dead1), K(1)); // only feeds dead code.
    b.add(R(dead2), K(1));
    b.store(buf, K(7), K(0));
    Function fn = b.finish();
    passes::deadCodeElim(fn);
    EXPECT_EQ(totalOps(fn), 1u); // just the store.
}

TEST(Dce, KeepsLoopsWithStores)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 8);
    auto &loop = b.beginLoop(8, "i");
    b.store(buf, R(loop.inductionVar), R(loop.inductionVar));
    b.endLoop();
    Function fn = b.finish();
    passes::deadCodeElim(fn);
    EXPECT_EQ(countOps(fn, Opcode::Store), 1u);
}

TEST(Dce, RemovesEmptyCountedLoops)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    auto &loop = b.beginLoop(8, "i");
    b.add(R(loop.inductionVar), K(1)); // dead.
    b.endLoop();
    b.store(buf, K(1), K(0));
    Function fn = b.finish();
    passes::deadCodeElim(fn);
    bool has_loop = false;
    forEachNode(fn.body, [&](const Node &n) {
        has_loop |= n.kind() == NodeKind::Loop;
    });
    EXPECT_FALSE(has_loop);
}

// ---- CSE ---------------------------------------------------------------

TEST(Cse, EliminatesRedundantArithmetic)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg x = b.load(buf, K(0));
    Vreg a = b.add(R(x), K(3));
    Vreg b2 = b.add(K(3), R(x)); // commuted duplicate.
    b.store(buf, R(a), K(0));
    b.store(buf, R(b2), K(1));
    Function fn = b.finish();
    passes::localCse(fn);
    EXPECT_EQ(countOps(fn, Opcode::Add), 1u);
    auto out = runAndDump(fn, {10, 0});
    EXPECT_EQ(out[0], 13);
    EXPECT_EQ(out[1], 13);
}

TEST(Cse, LoadsInvalidatedByStores)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg l1 = b.load(buf, K(0));
    b.store(buf, K(42), K(0));
    Vreg l2 = b.load(buf, K(0)); // must NOT reuse l1.
    Vreg s = b.add(R(l1), R(l2));
    b.store(buf, R(s), K(1));
    Function fn = b.finish();
    passes::localCse(fn);
    EXPECT_EQ(countOps(fn, Opcode::Load), 2u);
    auto out = runAndDump(fn, {5, 0});
    EXPECT_EQ(out[1], 5 + 42);
}

TEST(Cse, InvalidatesWhenOperandRedefined)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg x = b.movi(1);
    Vreg a = b.add(R(x), K(3));
    b.emitTo(x, Opcode::Mov, K(10));
    Vreg c = b.add(R(x), K(3)); // not redundant: x changed.
    b.store(buf, R(a), K(0));
    b.store(buf, R(c), K(1));
    Function fn = b.finish();
    passes::localCse(fn);
    EXPECT_EQ(countOps(fn, Opcode::Add), 2u);
    auto out = runAndDump(fn);
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[1], 13);
}

// ---- strength reduction -------------------------------------------------

TEST(StrengthReduce, PowerOfTwoBecomesShift)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg x = b.load(buf, K(0));
    Vreg m = b.mul16(R(x), K(8));
    b.store(buf, R(m), K(0));
    Function fn = b.finish();
    passes::strengthReduce(fn);
    EXPECT_EQ(countOps(fn, Opcode::Mul16Lo), 0u);
    EXPECT_EQ(countOps(fn, Opcode::Shl), 1u);
    EXPECT_EQ(runAndDump(fn, {7})[0], 56);
}

TEST(StrengthReduce, NegativePowerOfTwo)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg x = b.load(buf, K(0));
    Vreg m = b.mul16(R(x), K(-4));
    b.store(buf, R(m), K(0));
    Function fn = b.finish();
    passes::strengthReduce(fn);
    EXPECT_EQ(countOps(fn, Opcode::Mul16Lo), 0u);
    EXPECT_EQ(static_cast<int16_t>(runAndDump(fn, {5})[0]), -20);
}

TEST(StrengthReduce, LeavesGeneralConstantsAlone)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg x = b.load(buf, K(0));
    Vreg m = b.mul16(R(x), K(7));
    b.store(buf, R(m), K(0));
    Function fn = b.finish();
    passes::strengthReduce(fn);
    EXPECT_EQ(countOps(fn, Opcode::Mul16Lo), 1u);
}

// ---- LICM ---------------------------------------------------------------

TEST(Licm, HoistsInvariantArithmetic)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 8);
    Vreg k = b.movi(21);
    auto &loop = b.beginLoop(8, "i");
    Vreg inv = b.add(R(k), R(k)); // invariant.
    Vreg v = b.add(R(inv), R(loop.inductionVar));
    b.store(buf, R(v), R(loop.inductionVar));
    b.endLoop();
    Function fn = b.finish();
    size_t before = totalOps(fn);
    passes::licm(fn);
    verifyOrDie(fn);
    // The invariant add moved to a preheader: loop body shrank.
    const LoopNode *loop2 = nullptr;
    forEachNode(fn.body, [&](const Node &n) {
        if (n.kind() == NodeKind::Loop)
            loop2 = static_cast<const LoopNode *>(&n);
    });
    size_t body_ops = 0;
    forEachNode(const_cast<LoopNode *>(loop2)->body, [&](Node &n) {
        if (n.kind() == NodeKind::Block)
            body_ops += static_cast<BlockNode &>(n).ops.size();
    });
    EXPECT_EQ(body_ops, 2u);
    EXPECT_EQ(totalOps(fn), before);
    EXPECT_EQ(runAndDump(fn)[3], 45);
}

TEST(Licm, LoadHoistBudget)
{
    IRBuilder b("t");
    int tab = b.buffer("tab", 32);
    int buf = b.buffer("o", 1);
    Vreg acc = b.movi(0);
    b.beginLoop(4, "i");
    for (int j = 0; j < 12; ++j) {
        Vreg v = b.load(tab, K(j)); // all invariant.
        b.emitTo(acc, Opcode::Add, R(acc), R(v));
    }
    b.endLoop();
    b.store(buf, R(acc), K(0));
    Function fn = b.finish();
    passes::licm(fn, 8);
    // Only 8 loads may leave the loop.
    const LoopNode *loop2 = nullptr;
    forEachNode(fn.body, [&](const Node &n) {
        if (n.kind() == NodeKind::Loop)
            loop2 = static_cast<const LoopNode *>(&n);
    });
    size_t in_loop_loads = 0;
    forEachNode(const_cast<LoopNode *>(loop2)->body, [&](Node &n) {
        if (n.kind() == NodeKind::Block) {
            for (const auto &op : static_cast<BlockNode &>(n).ops) {
                if (op.op == Opcode::Load)
                    in_loop_loads++;
            }
        }
    });
    EXPECT_EQ(in_loop_loads, 4u);
}

TEST(Licm, DoesNotHoistLoadsPastStores)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 4);
    b.beginLoop(4, "i");
    Vreg v = b.load(buf, K(0)); // buffer is stored in the loop.
    Vreg w = b.add(R(v), K(1));
    b.store(buf, R(w), K(0));
    b.endLoop();
    Function fn = b.finish();
    passes::licm(fn);
    const LoopNode *loop2 = nullptr;
    forEachNode(fn.body, [&](const Node &n) {
        if (n.kind() == NodeKind::Loop)
            loop2 = static_cast<const LoopNode *>(&n);
    });
    ASSERT_NE(loop2, nullptr);
    EXPECT_EQ(runAndDump(fn)[0], 4);
}

// ---- unrolling ------------------------------------------------------------

TEST(Unroll, FullUnrollSubstitutesInduction)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 4);
    auto &loop = b.beginLoop(4, "i");
    b.store(buf, R(loop.inductionVar), R(loop.inductionVar));
    b.endLoop();
    Function fn = b.finish();
    passes::unrollLoopByLabel(fn, "i", 0);
    verifyOrDie(fn);
    bool has_loop = false;
    forEachNode(fn.body, [&](const Node &n) {
        has_loop |= n.kind() == NodeKind::Loop;
    });
    EXPECT_FALSE(has_loop);
    auto out = runAndDump(fn);
    EXPECT_EQ(out, (std::vector<uint16_t>{0, 1, 2, 3}));
}

TEST(Unroll, PartialKeepsSemantics)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg acc = b.movi(0);
    auto &loop = b.beginLoop(12, "i");
    b.emitTo(acc, Opcode::Add, R(acc), R(loop.inductionVar));
    b.endLoop();
    b.store(buf, R(acc), K(0));
    Function fn = b.finish();
    Function ref = fn.clone();
    passes::unrollLoopByLabel(fn, "i", 4);
    verifyOrDie(fn);
    const LoopNode *loop2 = passes::findLoop(fn, "i");
    ASSERT_NE(loop2, nullptr);
    EXPECT_EQ(loop2->tripCount, 3);
    EXPECT_EQ(loop2->step, 4);
    EXPECT_EQ(runAndDump(fn)[0], runAndDump(ref)[0]);
}

TEST(Unroll, AccumulatorChainsAcrossCopies)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg acc = b.movi(1);
    auto &loop = b.beginLoop(3, "i");
    (void)loop;
    b.emitTo(acc, Opcode::Mul16Lo, R(acc), K(2));
    b.endLoop();
    b.store(buf, R(acc), K(0));
    Function fn = b.finish();
    passes::unrollLoopByLabel(fn, "i", 0);
    EXPECT_EQ(runAndDump(fn)[0], 8);
}

TEST(Unroll, PointerLoopFullUnroll)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 8);
    Vreg base = b.movi(2);
    Vreg bound = b.add(R(base), K(3));
    auto &loop = b.beginLoop(3, "p");
    loop.ivInit = R(base);
    loop.boundVreg = bound;
    b.store(buf, R(loop.inductionVar), R(loop.inductionVar));
    b.endLoop();
    Function fn = b.finish();
    Function ref = fn.clone();
    passes::unrollLoopByLabel(fn, "p", 0);
    verifyOrDie(fn);
    EXPECT_EQ(runAndDump(fn), runAndDump(ref));
}

TEST(Unroll, PredicatedDefsKeepTheirRegister)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg best = b.movi(100);
    auto &loop = b.beginLoop(6, "i");
    Vreg less = b.cmpLt(R(loop.inductionVar), K(3));
    Operation mov;
    mov.op = Opcode::Mov;
    mov.dst = best;
    mov.src[0] = R(loop.inductionVar);
    mov.pred = R(less);
    b.emitOp(mov);
    b.endLoop();
    b.store(buf, R(best), K(0));
    Function fn = b.finish();
    Function ref = fn.clone();
    passes::unrollLoopByLabel(fn, "i", 3);
    verifyOrDie(fn);
    EXPECT_EQ(runAndDump(fn)[0], runAndDump(ref)[0]); // = 2.
}

TEST(Unroll, NestedLoopsClonedIntact)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg acc = b.movi(0);
    auto &outer = b.beginLoop(3, "outer");
    (void)outer;
    auto &inner = b.beginLoop(4, "inner");
    (void)inner;
    b.emitTo(acc, Opcode::Add, R(acc), K(1));
    b.endLoop();
    b.endLoop();
    b.store(buf, R(acc), K(0));
    Function fn = b.finish();
    passes::unrollLoopByLabel(fn, "outer", 0);
    verifyOrDie(fn);
    EXPECT_EQ(runAndDump(fn)[0], 12);
}

// ---- if-conversion ---------------------------------------------------------

TEST(IfConvert, RemovesIfAndPreservesSemantics)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 8);
    auto &loop = b.beginLoop(8, "i");
    Vreg odd = b.band(R(loop.inductionVar), K(1));
    b.beginIf(R(odd));
    b.store(buf, K(1), R(loop.inductionVar));
    b.beginElse();
    b.store(buf, K(2), R(loop.inductionVar));
    b.endIf();
    b.endLoop();
    Function fn = b.finish();
    Function ref = fn.clone();
    passes::ifConvert(fn);
    verifyOrDie(fn);
    bool has_if = false;
    forEachNode(fn.body, [&](const Node &n) {
        has_if |= n.kind() == NodeKind::If;
    });
    EXPECT_FALSE(has_if);
    EXPECT_EQ(runAndDump(fn), runAndDump(ref));
}

TEST(IfConvert, NestedConditionsCompose)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 16);
    auto &loop = b.beginLoop(16, "i");
    Vreg b0 = b.band(R(loop.inductionVar), K(1));
    Vreg b1 = b.band(R(loop.inductionVar), K(2));
    b.beginIf(R(b0));
    b.beginIf(R(b1));
    b.store(buf, K(3), R(loop.inductionVar));
    b.beginElse();
    b.store(buf, K(1), R(loop.inductionVar));
    b.endIf();
    b.beginElse();
    b.store(buf, K(0), R(loop.inductionVar));
    b.endIf();
    b.endLoop();
    Function fn = b.finish();
    Function ref = fn.clone();
    passes::ifConvert(fn);
    verifyOrDie(fn);
    EXPECT_EQ(runAndDump(fn), runAndDump(ref));
}

TEST(IfConvert, RespectsArmSizeLimit)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg c = b.movi(1);
    b.beginIf(R(c));
    for (int i = 0; i < 20; ++i)
        b.movi(i);
    b.store(buf, K(1), K(0));
    b.endIf();
    Function fn = b.finish();
    passes::ifConvert(fn, 4);
    bool has_if = false;
    forEachNode(fn.body, [&](const Node &n) {
        has_if |= n.kind() == NodeKind::If;
    });
    EXPECT_TRUE(has_if); // too big to convert.
}

// ---- range analysis & multiply decomposition -------------------------------

TEST(RangeAnalysis, TracksBufferAndArithmeticRanges)
{
    IRBuilder b("t");
    int pix = b.buffer("pix", 8, 0, 255);
    Vreg x = b.load(pix, K(0));
    Vreg shifted = b.sra(R(x), K(4));
    Vreg masked = b.band(R(x), K(0x3f));
    Vreg sum = b.add(R(x), R(x));
    Function fn = b.finish();
    passes::RangeAnalysis ra(fn);
    EXPECT_TRUE(ra.fitsUnsigned8(R(x)));
    EXPECT_FALSE(ra.fitsSigned8(R(x))); // up to 255.
    EXPECT_TRUE(ra.fitsSigned8(R(shifted)));
    EXPECT_TRUE(ra.fitsSigned8(R(masked)));
    auto r = ra.range(R(sum));
    EXPECT_EQ(r.first, 0);
    EXPECT_EQ(r.second, 510);
}

TEST(RangeAnalysis, CyclicChainsWidenToFull)
{
    IRBuilder b("t");
    Vreg acc = b.movi(0);
    auto &loop = b.beginLoop(100, "i");
    (void)loop;
    b.emitTo(acc, Opcode::Add, R(acc), K(1));
    b.endLoop();
    Function fn = b.finish();
    passes::RangeAnalysis ra(fn);
    auto r = ra.range(R(acc));
    EXPECT_EQ(r.first, -32768);
    EXPECT_EQ(r.second, 32767);
}

TEST(RangeAnalysis, InductionVariableBounds)
{
    IRBuilder b("t");
    auto &loop = b.beginLoop(16, "i", 2);
    Vreg v = b.add(R(loop.inductionVar), K(0)); // copy for probing.
    (void)v;
    b.endLoop();
    Function fn = b.finish();
    passes::RangeAnalysis ra(fn);
    auto r = ra.range(R(loop.inductionVar));
    EXPECT_EQ(r.first, 0);
    EXPECT_EQ(r.second, 30);
}

struct MulCase
{
    int a, b;
    int amin, amax, bmin, bmax; // declared buffer ranges.
};

class MulDecompose : public ::testing::TestWithParam<MulCase>
{
};

TEST_P(MulDecompose, ExactLow16OnEveryPath)
{
    const MulCase &t = GetParam();
    IRBuilder b("t");
    int out = b.buffer("o", 1);
    int ba = b.buffer("a", 1, t.amin, t.amax);
    int bb = b.buffer("b", 1, t.bmin, t.bmax);
    Vreg x = b.load(ba, K(0));
    Vreg y = b.load(bb, K(0));
    Vreg m = b.mul16(R(x), R(y));
    b.store(out, R(m), K(0));
    Function fn = b.finish();

    MachineModel machine(models::i4c8s4());
    passes::decomposeMultiplies(fn, LoweringTarget::of(machine));
    verifyOrDie(fn);
    EXPECT_EQ(countOps(fn, Opcode::Mul16Lo), 0u);

    MemoryImage mem(fn);
    mem.write(1, 0, static_cast<uint16_t>(t.a));
    mem.write(2, 0, static_cast<uint16_t>(t.b));
    Interpreter interp(fn);
    interp.run(mem);
    EXPECT_EQ(mem.read(0, 0),
              static_cast<uint16_t>(t.a * t.b));
}

INSTANTIATE_TEST_SUITE_P(
    Paths, MulDecompose,
    ::testing::Values(
        // both signed-8: single Mul8.
        MulCase{-100, 99, -128, 127, -128, 127},
        // unsigned-8 x signed-8: single MulU8.
        MulCase{231, -77, 0, 255, -128, 127},
        // both unsigned-8: single MulUU8.
        MulCase{200, 220, 0, 255, 0, 255},
        // one 8-bit factor: 6-op 16x8 form.
        MulCase{-5000, 37, -32768, 32767, -128, 127},
        MulCase{77, -4096, -128, 127, -32768, 32767},
        // general: 10-op form.
        MulCase{-30000, 29999, -32768, 32767, -32768, 32767},
        MulCase{1234, 567, -32768, 32767, -32768, 32767}));

TEST(MulDecompose, SkippedOnM16Models)
{
    IRBuilder b("t");
    int out = b.buffer("o", 1);
    Vreg m = b.mul16(K(300), K(300));
    b.store(out, R(m), K(0));
    Function fn = b.finish();
    MachineModel machine(models::i4c8s5m16());
    passes::decomposeMultiplies(fn, LoweringTarget::of(machine));
    EXPECT_EQ(countOps(fn, Opcode::Mul16Lo), 1u);
}

TEST(MulDecompose, GeneralPathOpCount)
{
    IRBuilder b("t");
    int out = b.buffer("o", 2);
    Vreg x = b.load(out, K(0));
    Vreg y = b.load(out, K(1));
    Vreg m = b.mul16(R(x), R(y));
    b.store(out, R(m), K(0));
    Function fn = b.finish();
    MachineModel machine(models::i4c8s4());
    size_t before = totalOps(fn);
    passes::decomposeMultiplies(fn, LoweringTarget::of(machine));
    // 1 multiply -> 10 ops ("as many as 21 issue slots" was the full
    // 32-bit case; the low-16 form costs 10).
    EXPECT_EQ(totalOps(fn), before + 9);
}

// ---- addressing lowering -----------------------------------------------

TEST(AddrMode, SplitsOnSimpleMachines)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 16);
    Vreg base = b.movi(4);
    Vreg v = b.load(buf, R(base), K(3));
    b.store(buf, R(v), K(0));
    Function fn = b.finish();
    MachineModel machine(models::i4c8s4());
    passes::lowerAddressing(fn, LoweringTarget::of(machine));
    verifyOrDie(fn);
    forEachNode(fn.body, [&](const Node &n) {
        if (n.kind() != NodeKind::Block)
            return;
        for (const auto &op : static_cast<const BlockNode &>(n).ops) {
            if (op.info().isMemory) {
                EXPECT_LE(MachineModel::addressComponents(op), 1)
                    << op.str();
            }
        }
    });
    EXPECT_EQ(runAndDump(fn, {0, 0, 0, 0, 0, 0, 0, 42})[0], 42);
}

TEST(AddrMode, FoldsSingleUseAddsOnComplexMachines)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 16);
    Vreg base = b.movi(4);
    Vreg addr = b.add(R(base), K(3));
    Vreg v = b.load(buf, R(addr));
    b.store(buf, R(v), K(0));
    Function fn = b.finish();
    MachineModel machine(models::i4c8s5());
    passes::lowerAddressing(fn, LoweringTarget::of(machine));
    verifyOrDie(fn);
    EXPECT_EQ(countOps(fn, Opcode::Add), 0u); // folded + DCE'd.
    EXPECT_EQ(runAndDump(fn, {0, 0, 0, 0, 0, 0, 0, 42})[0], 42);
}

TEST(AddrMode, DoesNotFoldMultiUseAdds)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 16);
    Vreg base = b.movi(4);
    Vreg addr = b.add(R(base), K(3));
    Vreg v = b.load(buf, R(addr));
    Vreg w = b.add(R(addr), R(v)); // second use of addr.
    b.store(buf, R(w), K(0));
    Function fn = b.finish();
    MachineModel machine(models::i4c8s5());
    passes::lowerAddressing(fn, LoweringTarget::of(machine));
    EXPECT_EQ(countOps(fn, Opcode::Add), 2u);
}

// ---- cleanup ------------------------------------------------------------

/**
 * One constFold + localCse + deadCodeElim round. Each pass must
 * report a change exactly when it moved the function's fingerprint.
 */
void
cleanupRound(Function &fn)
{
    for (auto pass : {passes::constFold, passes::localCse,
                      passes::deadCodeElim}) {
        const uint64_t before = functionFingerprint(fn);
        const bool changed = pass(fn);
        EXPECT_EQ(changed, functionFingerprint(fn) != before);
    }
}

/**
 * cleanup(fn) must produce exactly the IR of four unconditional
 * rounds; where the rounds settle before the fourth, one more round
 * after cleanup must change nothing.
 */
void
expectCleanupMatchesFourRounds(const Function &input)
{
    Function want = input.clone();
    bool settled = false;
    for (int round = 0; round < 4; ++round) {
        uint64_t before = functionFingerprint(want);
        cleanupRound(want);
        settled = settled || functionFingerprint(want) == before;
    }
    Function got = input.clone();
    passes::cleanup(got);
    const uint64_t h = functionFingerprint(got);
    EXPECT_EQ(h, functionFingerprint(want));
    if (settled) {
        cleanupRound(got);
        EXPECT_EQ(functionFingerprint(got), h);
    }
}

/**
 * Every kernel variant, lowered on a simple-addressing 8-bit-multiply
 * datapath and on a complex-addressing 16-bit-multiply one: the
 * inputs of each cleanup call of lowerVariant (after the variant's
 * own transform, and after the machine-dependent lowerings) plus the
 * freshly built function.
 */
TEST(Cleanup, EqualsFourRoundsOnEveryLowering)
{
    for (const char *model : {"I4C8S4", "I4C8S5M16"}) {
        MachineModel machine(models::byName(model));
        for (const KernelSpec &k : allKernels()) {
            for (const VariantSpec &v : k.variants) {
                SCOPED_TRACE(std::string(model) + " " + k.name + " " +
                             v.name);
                Function fn = v.build();
                expectCleanupMatchesFourRounds(fn);
                if (v.transform)
                    v.transform(fn);
                expectCleanupMatchesFourRounds(fn);
                passes::cleanup(fn);
                passes::strengthReduce(fn);
                passes::decomposeMultiplies(fn, LoweringTarget::of(machine));
                passes::lowerAddressing(fn, LoweringTarget::of(machine));
                expectCleanupMatchesFourRounds(fn);
            }
        }
    }
}

} // namespace
} // namespace vvsp
