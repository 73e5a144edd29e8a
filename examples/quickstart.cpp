/**
 * @file
 * Quickstart: build a small kernel with the IR builder, lower it for
 * the paper's initial datapath model (I4C8S4), software-pipeline it,
 * and run both the functional interpreter and the cycle simulator.
 */

#include <cstdio>

#include "core/vvsp.hh"

using namespace vvsp;

int
main()
{
    // A 64-tap dot product: out[0] = sum(a[i] * b[i]) >> 6.
    IRBuilder b("dot64");
    int abuf = b.buffer("a", 64);
    int bbuf = b.buffer("b", 64);
    int obuf = b.buffer("o", 1);

    Vreg acc = b.movi(0);
    auto &loop = b.beginLoop(64, "i");
    {
        Vreg av = b.load(abuf, Operand::ofReg(loop.inductionVar));
        Vreg bv = b.load(bbuf, Operand::ofReg(loop.inductionVar));
        Vreg p = b.mul16(Operand::ofReg(av), Operand::ofReg(bv));
        Vreg ps = b.sra(Operand::ofReg(p), Operand::ofImm(6));
        b.emitTo(acc, Opcode::Add, Operand::ofReg(acc),
                 Operand::ofReg(ps));
    }
    b.endLoop();
    b.store(obuf, Operand::ofReg(acc), Operand::ofImm(0));
    Function fn = b.finish();
    verifyOrDie(fn);

    // Target the paper's initial 32-issue model.
    MachineModel machine(models::i4c8s4());
    passes::strengthReduce(fn);
    passes::decomposeMultiplies(fn, LoweringTarget::of(machine));
    passes::lowerAddressing(fn, LoweringTarget::of(machine));
    passes::cleanup(fn);
    verifyOrDie(fn);

    // Fill inputs and run the functional interpreter.
    MemoryImage mem(fn);
    for (int i = 0; i < 64; ++i) {
        mem.write(abuf, i, static_cast<uint16_t>(i + 1));
        mem.write(bbuf, i, static_cast<uint16_t>(2 * i + 1));
    }
    Interpreter interp(fn);
    Profile prof = interp.run(mem);
    std::printf("interpreter: out = %u (%llu dynamic ops)\n",
                mem.read(obuf, 0),
                static_cast<unsigned long long>(prof.dynamicOps));

    // Software-pipeline and cycle-simulate the same code.
    MemoryImage mem2(fn);
    for (int i = 0; i < 64; ++i) {
        mem2.write(abuf, i, static_cast<uint16_t>(i + 1));
        mem2.write(bbuf, i, static_cast<uint16_t>(2 * i + 1));
    }
    CycleSim sim(machine, ScheduleMode::Swp);
    CycleSimReport rep = sim.run(fn, mem2);
    std::printf("cycle sim:   out = %u in %llu cycles "
                "(%.2f ops/cycle on %s)\n",
                mem2.read(obuf, 0),
                static_cast<unsigned long long>(rep.cycles),
                static_cast<double>(rep.operations) / rep.cycles,
                machine.name().c_str());

    if (mem.read(obuf, 0) != mem2.read(obuf, 0)) {
        std::printf("MISMATCH between interpreter and cycle sim!\n");
        return 1;
    }
    std::printf("results match.\n");
    return 0;
}
