/**
 * @file
 * Writing your own kernel against the public API: a 32-tap FIR
 * filter over a 256-sample line, built with the IR DSL, transformed
 * with the compiler passes (unroll + software pipelining), lowered
 * for two datapath models, validated against plain C++, and timed
 * with the cycle simulator. This is the workflow the paper's
 * methodology prescribes for evaluating a new VSP workload.
 */

#include <cstdio>
#include <vector>

#include "core/vvsp.hh"

using namespace vvsp;

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

constexpr int kTaps = 32;
constexpr int kSamples = 256;

/** taps[i] = 9-bit signed coefficients, s.8 fixed point - wide
 *  enough that the 8x8-multiplier models need partial products. */
int
tap(int i)
{
    return ((i * 37 + 11) % 401) - 200;
}

Function
buildFir()
{
    IRBuilder b("fir32");
    int in = b.buffer("in", kSamples + kTaps, -128, 127);
    int coef = b.buffer("coef", kTaps, -200, 200);
    int out = b.buffer("out", kSamples);

    auto &n = b.beginLoop(kSamples, "n");
    {
        Vreg acc = b.movi(0);
        auto &t = b.beginLoop(kTaps, "tap");
        {
            Vreg x = b.load(in, R(n.inductionVar),
                            R(t.inductionVar), 0, true);
            Vreg c = b.load(coef, R(t.inductionVar), Operand::none(),
                            1, true);
            Vreg p = b.mul16(R(x), R(c));
            Vreg ps = b.sra(R(p), K(5));
            b.emitTo(acc, Opcode::Add, R(acc), R(ps));
        }
        b.endLoop();
        Vreg y = b.sra(R(acc), K(3));
        b.store(out, R(y), R(n.inductionVar), Operand::none(), 2,
                true);
    }
    b.endLoop();
    return b.finish();
}

/** The same arithmetic in plain C++ (wrap-exact 16-bit). */
std::vector<uint16_t>
goldenFir(const std::vector<uint16_t> &in)
{
    auto w16 = [](int v) {
        return static_cast<int>(
            static_cast<int16_t>(static_cast<uint16_t>(v)));
    };
    std::vector<uint16_t> out(kSamples);
    for (int n = 0; n < kSamples; ++n) {
        int acc = 0;
        for (int t = 0; t < kTaps; ++t) {
            int p = w16(static_cast<int16_t>(in[static_cast<size_t>(
                            n + t)]) *
                        tap(t));
            acc = w16(acc + (w16(p) >> 5));
        }
        out[static_cast<size_t>(n)] =
            static_cast<uint16_t>(w16(acc) >> 3);
    }
    return out;
}

} // namespace

int
main()
{
    for (const char *model_name : {"I4C8S4", "I4C8S5M16"}) {
        DatapathConfig model = models::byName(model_name);
        MachineModel machine(model);

        // Build + transform: unroll the tap loop, pipeline the
        // sample loop (the motion-search recipe, reused).
        Function fn = buildFir();
        passes::unrollLoopByLabel(fn, "tap", 0);
        // Keep all 32 coefficients register-resident across samples.
        passes::licm(fn, /*max_loads=*/32);
        passes::cleanup(fn);
        passes::strengthReduce(fn);
        passes::decomposeMultiplies(fn, LoweringTarget::of(machine));
        passes::lowerAddressing(fn, LoweringTarget::of(machine));
        passes::cleanup(fn);
        fn.renumberAll();
        verifyOrDie(fn);
        assignBanks(fn, machine.memBanks());
        checkBankCapacity(fn, machine);

        // Inputs.
        std::vector<uint16_t> samples(kSamples + kTaps);
        Rng rng(99);
        for (auto &s : samples)
            s = static_cast<uint16_t>(rng.uniform(-100, 100));
        std::vector<uint16_t> coefs(kTaps);
        for (int i = 0; i < kTaps; ++i)
            coefs[static_cast<size_t>(i)] =
                static_cast<uint16_t>(tap(i));

        MemoryImage mem(fn);
        fillAllByName(fn, mem, "in", samples);
        fillAllByName(fn, mem, "coef", coefs);

        // Execute cycle-accurately and check against plain C++.
        CycleSim sim(machine, ScheduleMode::Swp);
        CycleSimReport rep = sim.run(fn, mem);
        auto expect = goldenFir(samples);
        int out_id = bufferIdByName(fn, "out");
        if (mem.bufferWords(out_id) != expect) {
            std::printf("%s: FIR output mismatch!\n", model_name);
            return 1;
        }

        ClockEstimator clock;
        double mhz = clock.clockMhz(model);
        std::printf("%-11s %6llu cycles for %d outputs "
                    "(%.2f cycles/output, %.2f ops/cycle, "
                    "%.1f Msamples/s at %.0f MHz) - output ok\n",
                    model_name,
                    static_cast<unsigned long long>(rep.cycles),
                    kSamples,
                    static_cast<double>(rep.cycles) / kSamples,
                    static_cast<double>(rep.operations) / rep.cycles,
                    kSamples * mhz / rep.cycles, mhz);
    }
    std::printf("\nThe M16 model shows Table 2's effect: one 2-cycle "
                "multiply replaces the\n6-operation 16x8 sequence "
                "the 8x8-multiplier models need.\n");
    return 0;
}
