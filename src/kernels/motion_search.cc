/**
 * @file
 * Motion-estimation kernels: Full Motion Search and Three-step
 * Search (paper Sec. 3.3, first two Table 1 sections).
 *
 * One unit = one 16x16 macroblock matched against a 32x32
 * edge-padded search window of the previous frame (displacements
 * dx, dy in [-8, 7], stored as window indices 0..15). Both kernels
 * share the SAD inner loop; the three-step search replaces the
 * exhaustive displacement scan with three data-dependent refinement
 * steps of 9/8/8 candidates.
 *
 * Variant coding styles follow the paper's hand schedules:
 *  - sequential rows use strength-reduced pointer addressing (the
 *    induction variable is the array pointer), which is why their
 *    cycle counts are identical on every datapath model;
 *  - unrolled rows use indexed addressing, which complex-addressing
 *    models fold into the loads;
 *  - the blocked full search keeps a window row and the per-dx SAD
 *    accumulators in registers, eliminating >90% of the loads.
 */

#include "kernels/kernel.hh"

#include "ir/builder.hh"
#include "kernels/kernel_ir.hh"

#include <algorithm>
#include <array>

#include "support/logging.hh"
#include "video/synthetic.hh"
#include "xform/passes.hh"

namespace vvsp
{

namespace
{

constexpr int kWinStride = 32;

using OpRef = Operand;

/** Emit |a-b| with or without the special ALU op; returns result. */
Vreg
emitAbsDiff(IRBuilder &b, OpRef a, OpRef c, bool use_absdiff)
{
    if (use_absdiff)
        return b.emit(Opcode::AbsDiff, a, c);
    Vreg d = b.sub(a, c);
    return b.abs(R(d));
}

// ---------------------------------------------------------------------
// Full Motion Search builders.
// ---------------------------------------------------------------------

/**
 * Baseline structure, pointer-addressed SAD inner loop:
 * identical operation counts on every datapath model.
 */
Function
buildFullSearchPointer(bool use_absdiff)
{
    IRBuilder b("full_search.seq");
    int cur = b.buffer("cur", 256);
    int win = b.buffer("win", kWinStride * 32);
    int out = b.buffer("out", 4);

    Vreg best = b.movi(0xffff); // SADs compare unsigned (CmpLtU).
    Vreg bestdx = b.movi(0);
    Vreg bestdy = b.movi(0);

    auto &dy = b.beginLoop(16, "dy");
    auto &dx = b.beginLoop(16, "dx");
    {
        // Window base for this displacement: dy*32 + dx.
        Vreg wb0 = b.shl(R(dy.inductionVar), K(5));
        Vreg wbase = b.add(R(wb0), R(dx.inductionVar));
        Vreg sad = b.movi(0);

        auto &y = b.beginLoop(16, "y");
        {
            // cur row pointer doubles as the x loop variable.
            Vreg cy = b.shl(R(y.inductionVar), K(4));
            Vreg cend = b.add(R(cy), K(16));
            Vreg wy0 = b.shl(R(y.inductionVar), K(5));
            Vreg wrow = b.add(R(wbase), R(wy0));
            Vreg wp = b.mov(R(wrow));

            auto &x = b.beginLoop(16, "x");
            x.ivInit = R(cy);
            x.boundVreg = cend;
            {
                Vreg a = b.load(cur, R(x.inductionVar), OpRef::none(),
                                0, true);
                Vreg w = b.load(win, R(wp), OpRef::none(), 0, true);
                Vreg ad = emitAbsDiff(b, R(a), R(w), use_absdiff);
                b.emitTo(sad, Opcode::Add, R(sad), R(ad));
                b.emitTo(wp, Opcode::Add, R(wp), K(1));
            }
            b.endLoop();
        }
        b.endLoop();

        Vreg less = b.emit(Opcode::CmpLtU, R(sad), R(best));
        b.beginIf(R(less));
        {
            b.emitTo(best, Opcode::Mov, R(sad));
            b.emitTo(bestdx, Opcode::Mov, R(dx.inductionVar));
            b.emitTo(bestdy, Opcode::Mov, R(dy.inductionVar));
        }
        b.endIf();
    }
    b.endLoop();
    b.endLoop();

    b.store(out, R(best), K(0));
    b.store(out, R(bestdx), K(1));
    b.store(out, R(bestdy), K(2));
    return b.finish();
}

/**
 * Indexed-addressing structure for the unrolled and software-
 * pipelined rows: after unrolling, addresses become base + constant,
 * which the complex-addressing models fold into the loads.
 */
Function
buildFullSearchIndexed(bool use_absdiff)
{
    IRBuilder b("full_search.idx");
    int cur = b.buffer("cur", 256);
    int win = b.buffer("win", kWinStride * 32);
    int out = b.buffer("out", 4);

    Vreg best = b.movi(0xffff);
    Vreg bestdx = b.movi(0);
    Vreg bestdy = b.movi(0);

    auto &dy = b.beginLoop(16, "dy");
    auto &dx = b.beginLoop(16, "dx");
    {
        Vreg wb0 = b.shl(R(dy.inductionVar), K(5));
        Vreg wbase = b.add(R(wb0), R(dx.inductionVar));
        Vreg sad = b.movi(0);

        auto &y = b.beginLoop(16, "y");
        {
            Vreg cy = b.shl(R(y.inductionVar), K(4));
            Vreg wy0 = b.shl(R(y.inductionVar), K(5));
            Vreg wrow = b.add(R(wbase), R(wy0));

            auto &x = b.beginLoop(16, "x");
            {
                Vreg a = b.load(cur, R(cy), R(x.inductionVar), 0,
                                true);
                Vreg w = b.load(win, R(wrow), R(x.inductionVar), 0,
                                true);
                Vreg ad = emitAbsDiff(b, R(a), R(w), use_absdiff);
                b.emitTo(sad, Opcode::Add, R(sad), R(ad));
            }
            b.endLoop();
        }
        b.endLoop();

        Vreg less = b.emit(Opcode::CmpLtU, R(sad), R(best));
        b.beginIf(R(less));
        {
            b.emitTo(best, Opcode::Mov, R(sad));
            b.emitTo(bestdx, Opcode::Mov, R(dx.inductionVar));
            b.emitTo(bestdy, Opcode::Mov, R(dy.inductionVar));
        }
        b.endIf();
    }
    b.endLoop();
    b.endLoop();

    b.store(out, R(best), K(0));
    b.store(out, R(bestdx), K(1));
    b.store(out, R(bestdy), K(2));
    return b.finish();
}

/**
 * Blocked/loop-exchanged full search (Sec. 3.4.1): the dx loop moves
 * inside the pixel loops; a register-resident window row and sixteen
 * SAD accumulators make every window and macroblock pixel load once
 * per dy instead of once per (dy, dx).
 */
Function
buildFullSearchBlocked(bool use_absdiff)
{
    IRBuilder b("full_search.blk");
    int cur = b.buffer("cur", 256);
    int win = b.buffer("win", kWinStride * 32);
    int out = b.buffer("out", 4);

    Vreg best = b.movi(0xffff);
    Vreg bestdx = b.movi(0);
    Vreg bestdy = b.movi(0);

    auto &dy = b.beginLoop(16, "dy");
    {
        std::array<Vreg, 16> sad;
        for (auto &s : sad)
            s = b.movi(0);
        Vreg wb0 = b.shl(R(dy.inductionVar), K(5));

        auto &y = b.beginLoop(16, "y");
        {
            Vreg cy = b.shl(R(y.inductionVar), K(4));
            Vreg wy0 = b.shl(R(y.inductionVar), K(5));
            Vreg wrow = b.add(R(wb0), R(wy0));

            // Window row into registers via a walking pointer.
            std::array<Vreg, 31> w;
            Vreg wp = b.mov(R(wrow));
            for (int j = 0; j < 31; ++j) {
                w[static_cast<size_t>(j)] =
                    b.load(win, R(wp), OpRef::none(), 0, true);
                if (j != 30)
                    b.emitTo(wp, Opcode::Add, R(wp), K(1));
            }
            // One macroblock pixel at a time against all 16 dx.
            Vreg cp = b.mov(R(cy));
            for (int x = 0; x < 16; ++x) {
                Vreg a = b.load(cur, R(cp), OpRef::none(), 0, true);
                if (x != 15)
                    b.emitTo(cp, Opcode::Add, R(cp), K(1));
                for (int d = 0; d < 16; ++d) {
                    Vreg ad = emitAbsDiff(
                        b, R(a), R(w[static_cast<size_t>(x + d)]),
                        use_absdiff);
                    auto s = sad[static_cast<size_t>(d)];
                    b.emitTo(s, Opcode::Add, R(s), R(ad));
                }
            }
        }
        b.endLoop();

        // Fold the 16 accumulated positions into the running best,
        // in dx order (same tie-breaking as the exhaustive scan).
        for (int d = 0; d < 16; ++d) {
            Vreg less = b.emit(Opcode::CmpLtU,
                               R(sad[static_cast<size_t>(d)]),
                               R(best));
            b.beginIf(R(less));
            b.emitTo(best, Opcode::Mov,
                     R(sad[static_cast<size_t>(d)]));
            b.emitTo(bestdx, Opcode::Mov, K(d));
            b.emitTo(bestdy, Opcode::Mov, R(dy.inductionVar));
            b.endIf();
        }
    }
    b.endLoop();

    b.store(out, R(best), K(0));
    b.store(out, R(bestdx), K(1));
    b.store(out, R(bestdy), K(2));
    return b.finish();
}

/** Shared golden full search (all variants compute the same). */
void
goldenFullSearch(const Function &fn, MemoryImage &mem)
{
    int cur = bufferIdByName(fn, "cur");
    int win = bufferIdByName(fn, "win");
    int out = bufferIdByName(fn, "out");
    uint16_t best = 0xffff, bestdx = 0, bestdy = 0;
    for (int dy = 0; dy < 16; ++dy) {
        for (int dx = 0; dx < 16; ++dx) {
            uint32_t sad = 0;
            for (int y = 0; y < 16; ++y) {
                for (int x = 0; x < 16; ++x) {
                    int a = mem.read(cur, y * 16 + x);
                    int w = mem.read(win,
                                     (y + dy) * kWinStride + x + dx);
                    sad += static_cast<uint32_t>(
                        a > w ? a - w : w - a);
                }
            }
            uint16_t s16 = static_cast<uint16_t>(sad);
            if (s16 < best) {
                best = s16;
                bestdx = static_cast<uint16_t>(dx);
                bestdy = static_cast<uint16_t>(dy);
            }
        }
    }
    mem.write(out, 0, best);
    mem.write(out, 1, bestdx);
    mem.write(out, 2, bestdy);
}

// ---------------------------------------------------------------------
// Three-step search.
// ---------------------------------------------------------------------

/**
 * Three refinement steps (strides 4, 2, 1) around a moving center in
 * window coordinates (start 8,8; candidates stay in [1, 15]).
 * 9 candidates in step one, 8 in each later step (center already
 * evaluated).
 */
Function
buildThreeStep(bool use_absdiff, bool indexed)
{
    IRBuilder b(indexed ? "three_step.idx" : "three_step.seq");
    int cur = b.buffer("cur", 256);
    int win = b.buffer("win", kWinStride * 32);
    int out = b.buffer("out", 4);

    Vreg best = b.movi(0xffff);
    Vreg cx = b.movi(8);
    Vreg cy = b.movi(8);

    for (int stride : {4, 2, 1}) {
        // Winning offsets of this step.
        Vreg seldx = b.movi(0);
        Vreg seldy = b.movi(0);
        for (int k = 0; k < 9; ++k) {
            int ox = (k % 3 - 1) * stride;
            int oy = (k / 3 - 1) * stride;
            if (stride != 4 && ox == 0 && oy == 0)
                continue; // center already evaluated last step.
            Vreg px = b.add(R(cx), K(ox));
            Vreg py = b.add(R(cy), K(oy));
            Vreg wbase0 = b.shl(R(py), K(5));
            Vreg wbase = b.add(R(wbase0), R(px));
            Vreg sad = b.movi(0);

            auto &y = b.beginLoop(16, std::string("y")
                                          .append(std::to_string(stride))
                                          .append("_")
                                          .append(std::to_string(k)));
            {
                Vreg cb = b.shl(R(y.inductionVar), K(4));
                Vreg wy0 = b.shl(R(y.inductionVar), K(5));
                Vreg wrow = b.add(R(wbase), R(wy0));
                if (indexed) {
                    auto &x = b.beginLoop(16, "x");
                    Vreg a = b.load(cur, R(cb), R(x.inductionVar), 0,
                                    true);
                    Vreg w = b.load(win, R(wrow), R(x.inductionVar),
                                    0, true);
                    Vreg ad = emitAbsDiff(b, R(a), R(w), use_absdiff);
                    b.emitTo(sad, Opcode::Add, R(sad), R(ad));
                    b.endLoop();
                } else {
                    Vreg cend = b.add(R(cb), K(16));
                    Vreg wp = b.mov(R(wrow));
                    auto &x = b.beginLoop(16, "x");
                    x.ivInit = R(cb);
                    x.boundVreg = cend;
                    Vreg a = b.load(cur, R(x.inductionVar),
                                    OpRef::none(), 0, true);
                    Vreg w = b.load(win, R(wp), OpRef::none(), 0,
                                    true);
                    Vreg ad = emitAbsDiff(b, R(a), R(w), use_absdiff);
                    b.emitTo(sad, Opcode::Add, R(sad), R(ad));
                    b.emitTo(wp, Opcode::Add, R(wp), K(1));
                    b.endLoop();
                }
            }
            b.endLoop();

            Vreg less = b.emit(Opcode::CmpLtU, R(sad), R(best));
            b.beginIf(R(less));
            b.emitTo(best, Opcode::Mov, R(sad));
            b.emitTo(seldx, Opcode::Mov, K(ox));
            b.emitTo(seldy, Opcode::Mov, K(oy));
            b.endIf();
        }
        b.emitTo(cx, Opcode::Add, R(cx), R(seldx));
        b.emitTo(cy, Opcode::Add, R(cy), R(seldy));
    }

    b.store(out, R(best), K(0));
    b.store(out, R(cx), K(1));
    b.store(out, R(cy), K(2));
    return b.finish();
}

/** Golden three-step search mirroring the builder's visit order. */
void
goldenThreeStep(const Function &fn, MemoryImage &mem)
{
    int cur = bufferIdByName(fn, "cur");
    int win = bufferIdByName(fn, "win");
    int out = bufferIdByName(fn, "out");

    auto sad_at = [&](int px, int py) {
        uint32_t sad = 0;
        for (int y = 0; y < 16; ++y) {
            for (int x = 0; x < 16; ++x) {
                int a = mem.read(cur, y * 16 + x);
                int w = mem.read(win, (py + y) * kWinStride + px + x);
                sad += static_cast<uint32_t>(a > w ? a - w : w - a);
            }
        }
        return static_cast<uint16_t>(sad);
    };

    uint16_t best = 0xffff;
    int cx = 8, cy = 8;
    for (int stride : {4, 2, 1}) {
        int seldx = 0, seldy = 0;
        for (int k = 0; k < 9; ++k) {
            int ox = (k % 3 - 1) * stride;
            int oy = (k / 3 - 1) * stride;
            if (stride != 4 && ox == 0 && oy == 0)
                continue;
            uint16_t s = sad_at(cx + ox, cy + oy);
            if (s < best) {
                best = s;
                seldx = ox;
                seldy = oy;
            }
        }
        cx += seldx;
        cy += seldy;
    }
    mem.write(out, 0, best);
    mem.write(out, 1, static_cast<uint16_t>(cx));
    mem.write(out, 2, static_cast<uint16_t>(cy));
}

// ---------------------------------------------------------------------
// Workload preparation (shared).
// ---------------------------------------------------------------------

void
prepareSearchUnit(const Function &fn, MemoryImage &mem,
                  const FrameGeometry &geom, int index)
{
    // The current macroblock from frame 1 and its search window,
    // edge-replicated at the frame border, from frame 0.
    const SyntheticVideo video(geom.width, geom.height, 7);
    int mbx = index % geom.macroblocksX();
    int mby = (index / geom.macroblocksX()) % geom.macroblocksY();
    std::vector<uint16_t> cur(256), win(32 * 32);
    for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
            cur[static_cast<size_t>(y * 16 + x)] =
                video.lumaAt(mbx * 16 + x, mby * 16 + y, 1);
        }
    }
    for (int y = 0; y < 32; ++y) {
        int wy = std::clamp(mby * 16 + y - 8, 0, geom.height - 1);
        for (int x = 0; x < 32; ++x) {
            int wx = std::clamp(mbx * 16 + x - 8, 0, geom.width - 1);
            win[static_cast<size_t>(y * 32 + x)] =
                video.lumaAt(wx, wy, 0);
        }
    }
    fillAllByName(fn, mem, "cur", cur);
    fillAllByName(fn, mem, "win", win);
}

double
macroblocksPerFrame(const FrameGeometry &geom)
{
    return geom.macroblocks();
}

// ---------------------------------------------------------------------
// Variant tables.
// ---------------------------------------------------------------------

void
transformSeq(Function &fn)
{
    passes::licm(fn);
    passes::ifConvert(fn);
    passes::cleanup(fn);
}

void
transformUnrollX(Function &fn)
{
    while (LoopNode *x = passes::findLoop(fn, "x"))
        passes::unrollLoop(fn, *x, 0);
    passes::licm(fn);
    passes::ifConvert(fn);
    passes::cleanup(fn);
}

void
transformUnrollXY(Function &fn)
{
    while (LoopNode *x = passes::findLoop(fn, "x"))
        passes::unrollLoop(fn, *x, 0);
    while (LoopNode *y = passes::findLoop(fn, "y"))
        passes::unrollLoop(fn, *y, 0);
    passes::licm(fn);
    passes::ifConvert(fn);
    passes::cleanup(fn);
}

void
transformBlocked(Function &fn)
{
    passes::licm(fn);
    passes::ifConvert(fn);
    passes::cleanup(fn);
}

} // anonymous namespace

KernelSpec
makeFullSearchKernel()
{
    KernelSpec k;
    k.name = "Full Motion Search";
    k.unitsPerFrame = macroblocksPerFrame;
    k.outputBuffers = {"out"};
    k.prepare = prepareSearchUnit;
    k.golden = goldenFullSearch;

    k.variants.push_back(
        {"Sequential-predicated", ScheduleMode::Sequential,
         /*replicate=*/false, 1, false, false,
         [] { return buildFullSearchPointer(false); }, transformSeq,
         nullptr});
    k.variants.push_back(
        {"Unrolled Inner Loop", ScheduleMode::Sequential, false, 1,
         false, false, [] { return buildFullSearchIndexed(false); },
         transformUnrollX, nullptr});
    k.variants.push_back(
        {"SW pipelined & unrolled", ScheduleMode::Swp, true, 1, false,
         false, [] { return buildFullSearchIndexed(false); },
         transformUnrollX, nullptr});
    k.variants.push_back(
        {"SW pipelined & unrolled 2 lev.", ScheduleMode::Swp, true, 1,
         false, false, [] { return buildFullSearchIndexed(false); },
         transformUnrollXY, nullptr});
    k.variants.push_back(
        {"Add spec. op (SW pipelined)", ScheduleMode::Swp, true, 1,
         false, true, [] { return buildFullSearchIndexed(true); },
         transformUnrollXY, nullptr});
    k.variants.push_back(
        {"Blocking/Loop Exchange", ScheduleMode::Swp, true, 1, false,
         false, [] { return buildFullSearchBlocked(false); },
         transformBlocked, nullptr});
    k.variants.push_back(
        {"Add spec. op (blocked)", ScheduleMode::Swp, true, 1, false,
         true, [] { return buildFullSearchBlocked(true); },
         transformBlocked, nullptr});
    return k;
}

KernelSpec
makeThreeStepKernel()
{
    KernelSpec k;
    k.name = "Three-step Search";
    k.unitsPerFrame = macroblocksPerFrame;
    k.outputBuffers = {"out"};
    k.prepare = prepareSearchUnit;
    k.golden = goldenThreeStep;

    k.variants.push_back(
        {"Sequential-predicated", ScheduleMode::Sequential, false, 1,
         false, false, [] { return buildThreeStep(false, false); },
         transformSeq, nullptr});
    k.variants.push_back(
        {"Unrolled Inner Loop", ScheduleMode::Sequential, false, 1,
         false, false, [] { return buildThreeStep(false, true); },
         transformUnrollX, nullptr});
    k.variants.push_back(
        {"SW pipelined & unrolled", ScheduleMode::Swp, true, 1, false,
         false, [] { return buildThreeStep(false, true); },
         transformUnrollX, nullptr});
    k.variants.push_back(
        {"SW pipelined & unrolled 2 lev.", ScheduleMode::Swp, true, 1,
         false, false, [] { return buildThreeStep(false, true); },
         transformUnrollXY, nullptr});
    k.variants.push_back(
        {"Add spec. op (SW pipelined)", ScheduleMode::Swp, true, 1,
         false, true, [] { return buildThreeStep(true, true); },
         transformUnrollXY, nullptr});
    // Blocked three-step: indexed addressing (the complex-addressing
    // models keep an edge here, unlike the blocked full search).
    k.variants.push_back(
        {"Blocking/Loop Exchange", ScheduleMode::Swp, true, 1, false,
         false, [] { return buildThreeStep(false, true); },
         transformUnrollXY, nullptr});
    k.variants.push_back(
        {"Add spec. op (blocked)", ScheduleMode::Swp, true, 1, false,
         true, [] { return buildThreeStep(true, true); },
         transformUnrollXY, nullptr});
    return k;
}

} // namespace vvsp
