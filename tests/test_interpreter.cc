/** @file Functional interpreter tests: 16-bit semantics & control. */

#include <gtest/gtest.h>

#include "ir/builder.hh"
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

// ---- alu16 semantics -------------------------------------------------

struct AluCase
{
    Opcode op;
    uint16_t a, b, c, expect;
};

class Alu16 : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(Alu16, Evaluates)
{
    const AluCase &t = GetParam();
    EXPECT_EQ(alu16::evaluate(t.op, t.a, t.b, t.c), t.expect)
        << opcodeName(t.op);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, Alu16,
    ::testing::Values(
        AluCase{Opcode::Add, 0xffff, 2, 0, 1},          // wraps.
        AluCase{Opcode::Sub, 0, 1, 0, 0xffff},
        AluCase{Opcode::Abs, 0xff80, 0, 0, 128},        // |-128|.
        AluCase{Opcode::AbsDiff, 10, 250, 0, 240},
        AluCase{Opcode::AbsDiff, 0x8000, 0x7fff, 0, 0xffff},
        AluCase{Opcode::Min, 0xffff, 1, 0, 0xffff},     // signed -1.
        AluCase{Opcode::Max, 0xffff, 1, 0, 1},
        AluCase{Opcode::Neg, 5, 0, 0, 0xfffb},
        AluCase{Opcode::Not, 0x00ff, 0, 0, 0xff00},
        AluCase{Opcode::Mov, 42, 0, 0, 42}));

INSTANTIATE_TEST_SUITE_P(
    Compares, Alu16,
    ::testing::Values(
        AluCase{Opcode::CmpEq, 3, 3, 0, 1},
        AluCase{Opcode::CmpNe, 3, 3, 0, 0},
        AluCase{Opcode::CmpLt, 0xffff, 0, 0, 1},  // -1 < 0 signed.
        AluCase{Opcode::CmpLtU, 0xffff, 0, 0, 0}, // unsigned.
        AluCase{Opcode::CmpLe, 5, 5, 0, 1},
        AluCase{Opcode::CmpGt, 0, 0xffff, 0, 1},
        AluCase{Opcode::CmpGe, 0x8000, 0x7fff, 0, 0},
        AluCase{Opcode::Select, 1, 11, 22, 11},
        AluCase{Opcode::Select, 0, 11, 22, 22}));

INSTANTIATE_TEST_SUITE_P(
    ShiftsAndLogic, Alu16,
    ::testing::Values(
        AluCase{Opcode::Shl, 1, 15, 0, 0x8000},
        AluCase{Opcode::Shl, 1, 16, 0, 1},        // shift mod 16.
        AluCase{Opcode::Shr, 0x8000, 15, 0, 1},
        AluCase{Opcode::Sra, 0x8000, 15, 0, 0xffff},
        AluCase{Opcode::And, 0x0ff0, 0x00ff, 0, 0x00f0},
        AluCase{Opcode::Or, 0x0f00, 0x00f0, 0, 0x0ff0},
        AluCase{Opcode::Xor, 0xffff, 0x00ff, 0, 0xff00}));

INSTANTIATE_TEST_SUITE_P(
    Multiplies, Alu16,
    ::testing::Values(
        AluCase{Opcode::Mul8, 0xff, 0xff, 0, 1},      // -1 * -1.
        AluCase{Opcode::Mul8, 0x80, 0x7f, 0, static_cast<uint16_t>(
                                                 -128 * 127)},
        AluCase{Opcode::MulU8, 0xff, 0xff, 0, static_cast<uint16_t>(
                                                  255 * -1)},
        AluCase{Opcode::MulUU8, 0xff, 0xff, 0, static_cast<uint16_t>(
                                                   255 * 255)},
        AluCase{Opcode::Mul16Lo, 300, 300, 0, static_cast<uint16_t>(
                                                  90000 & 0xffff)},
        AluCase{Opcode::Mul16Hi, 300, 300, 0, static_cast<uint16_t>(
                                                  90000 >> 16)},
        AluCase{Opcode::Mul16Hi, 0xffff, 2, 0, 0xffff})); // -1*2 hi.

/** Exhaustive cross-check: Mul8 variants agree with wide math. */
TEST(Alu16, MulVariantsExhaustiveOnBytes)
{
    for (int a = 0; a < 256; a += 3) {
        for (int b = 0; b < 256; b += 7) {
            int sa = static_cast<int8_t>(a), sb = static_cast<int8_t>(b);
            EXPECT_EQ(alu16::evaluate(Opcode::Mul8,
                                      static_cast<uint16_t>(a),
                                      static_cast<uint16_t>(b), 0),
                      static_cast<uint16_t>(sa * sb));
            EXPECT_EQ(alu16::evaluate(Opcode::MulU8,
                                      static_cast<uint16_t>(a),
                                      static_cast<uint16_t>(b), 0),
                      static_cast<uint16_t>(a * sb));
            EXPECT_EQ(alu16::evaluate(Opcode::MulUU8,
                                      static_cast<uint16_t>(a),
                                      static_cast<uint16_t>(b), 0),
                      static_cast<uint16_t>(a * b));
        }
    }
}

// ---- whole-function execution ----------------------------------------

TEST(Interpreter, CountedLoopAccumulates)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg acc = b.movi(0);
    auto &loop = b.beginLoop(10, "i");
    b.emitTo(acc, Opcode::Add, R(acc), R(loop.inductionVar));
    b.endLoop();
    b.store(buf, R(acc), K(0));
    Function fn = b.finish();

    MemoryImage mem(fn);
    Interpreter interp(fn);
    Profile p = interp.run(mem);
    EXPECT_EQ(mem.read(buf, 0), 45); // 0+1+...+9.
    EXPECT_EQ(p.loopIters[static_cast<size_t>(fn.body[1]->id)], 10u);
}

TEST(Interpreter, ZeroTripLoopSkipsBody)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg last = b.movi(7);
    auto &loop = b.beginLoop(0, "i");
    b.emitTo(last, Opcode::Mov, R(loop.inductionVar));
    b.store(buf, K(1), K(1));
    b.endLoop();
    b.store(buf, R(last), K(0));
    Function fn = b.finish();

    MemoryImage mem(fn);
    Profile p = Interpreter(fn).run(mem);
    EXPECT_EQ(mem.read(buf, 0), 7); // the body never wrote `last`.
    EXPECT_EQ(mem.read(buf, 1), 0);
    const auto &l = static_cast<const LoopNode &>(*fn.body[1]);
    EXPECT_EQ(p.loopEntries[static_cast<size_t>(l.id)], 1u);
    EXPECT_EQ(p.loopIters[static_cast<size_t>(l.id)], 0u);
    EXPECT_EQ(p.blockExec[static_cast<size_t>(l.body[0]->id)], 0u);
}

TEST(Interpreter, PointerLoopUsesInitialValue)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg base = b.movi(100);
    Vreg bound = b.add(R(base), K(3));
    Vreg acc = b.movi(0);
    auto &loop = b.beginLoop(3, "p");
    loop.ivInit = R(base);
    loop.boundVreg = bound;
    b.emitTo(acc, Opcode::Add, R(acc), R(loop.inductionVar));
    b.endLoop();
    b.store(buf, R(acc), K(0));
    Function fn = b.finish();

    MemoryImage mem(fn);
    Interpreter interp(fn);
    interp.run(mem);
    EXPECT_EQ(mem.read(buf, 0), 100 + 101 + 102);
}

TEST(Interpreter, LoopStepScalesInduction)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg last = b.movi(0);
    auto &loop = b.beginLoop(5, "i", 4);
    b.emitTo(last, Opcode::Mov, R(loop.inductionVar));
    b.endLoop();
    b.store(buf, R(last), K(0));
    Function fn = b.finish();
    MemoryImage mem(fn);
    Interpreter(fn).run(mem);
    EXPECT_EQ(mem.read(buf, 0), 16); // 4 * (5-1).
}

TEST(Interpreter, IfProfilesArms)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 4);
    auto &loop = b.beginLoop(8, "i");
    Vreg odd = b.band(R(loop.inductionVar), K(1));
    b.beginIf(R(odd));
    b.store(buf, K(1), K(0));
    b.beginElse();
    b.store(buf, K(2), K(1));
    b.endIf();
    b.endLoop();
    Function fn = b.finish();
    MemoryImage mem(fn);
    Interpreter interp(fn);
    Profile p = interp.run(mem);
    // Find the If node id.
    int if_id = -1;
    forEachNode(fn.body, [&](const Node &n) {
        if (n.kind() == NodeKind::If)
            if_id = n.id;
    });
    ASSERT_GE(if_id, 0);
    EXPECT_EQ(p.ifThen[static_cast<size_t>(if_id)], 4u);
    EXPECT_EQ(p.ifElse[static_cast<size_t>(if_id)], 4u);
}

TEST(Interpreter, PredicationNullifiesWritesAndStores)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    Vreg p0 = b.movi(0);
    Vreg v = b.movi(11);
    Operation mov;
    mov.op = Opcode::Mov;
    mov.dst = v;
    mov.src[0] = K(99);
    mov.pred = R(p0);
    mov.predSense = true; // pred false -> nullified.
    b.emitOp(mov);
    b.store(buf, R(v), K(0));
    Operation st;
    st.op = Opcode::Store;
    st.src = {K(55), K(1), Operand::none()};
    st.buffer = buf;
    st.pred = R(p0);
    st.predSense = false; // pred false, sense false -> executes.
    b.emitOp(st);
    Function fn = b.finish();
    MemoryImage mem(fn);
    Interpreter interp(fn);
    Profile p = interp.run(mem);
    EXPECT_EQ(mem.read(buf, 0), 11); // the mov was nullified.
    EXPECT_EQ(mem.read(buf, 1), 55);
    EXPECT_EQ(p.nullifiedOps, 1u);
}

TEST(Interpreter, ExecuteOperationSkipsPredicatedOffOpsWithoutEffect)
{
    // The op step the tree walker and CycleSim share: false means
    // nullified (counted apart from executed ops) and must leave the
    // registers and memory exactly as they were.
    IRBuilder b("t");
    int buf = b.buffer("o", 4);
    Function fn = b.finish();
    MemoryImage mem(fn);
    mem.fill(buf, 0, {5, 6, 7, 8});
    std::vector<uint16_t> regs = {0, 1, 30, 40};

    Operation add;
    add.op = Opcode::Add;
    add.dst = 2;
    add.src[0] = R(3);
    add.src[1] = K(2);
    add.pred = R(0);
    add.predSense = true; // v0 == 0 -> off.
    EXPECT_FALSE(executeOperation(add, regs, mem));
    EXPECT_EQ(regs, (std::vector<uint16_t>{0, 1, 30, 40}));
    add.predSense = false; // v0 == 0, sense false -> on.
    EXPECT_TRUE(executeOperation(add, regs, mem));
    EXPECT_EQ(regs[2], 42);

    Operation st;
    st.op = Opcode::Store;
    st.src = {R(3), R(1), K(2)}; // mem[o][1 + 2] = v3.
    st.buffer = buf;
    st.pred = R(1);
    st.predSense = false; // v1 == 1 -> off.
    EXPECT_FALSE(executeOperation(st, regs, mem));
    EXPECT_EQ(mem.bufferWords(buf), (std::vector<uint16_t>{5, 6, 7, 8}));
    st.predSense = true;
    EXPECT_TRUE(executeOperation(st, regs, mem));
    EXPECT_EQ(mem.read(buf, 3), 40);

    Operation ld;
    ld.op = Opcode::Load;
    ld.dst = 0;
    ld.src = {R(1), K(1), Operand::none()}; // v0 = mem[o][1 + 1].
    ld.buffer = buf;
    EXPECT_TRUE(executeOperation(ld, regs, mem)); // unpredicated.
    EXPECT_EQ(regs[0], 7);
}

TEST(Interpreter, MemoryBoundsChecked)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 2);
    b.store(buf, K(1), K(5)); // out of bounds.
    Function fn = b.finish();
    MemoryImage mem(fn);
    Interpreter interp(fn);
    EXPECT_DEATH(interp.run(mem), "beyond buffer");
}

TEST(MemoryImage, FillAndAccess)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 4);
    Function fn = b.finish();
    MemoryImage mem(fn);
    mem.fill(buf, 1, {7, 8});
    EXPECT_EQ(mem.read(buf, 0), 0);
    EXPECT_EQ(mem.read(buf, 1), 7);
    EXPECT_EQ(mem.read(buf, 2), 8);
    EXPECT_EQ(mem.bufferWords(buf).size(), 4u);
}

} // namespace
} // namespace vvsp
