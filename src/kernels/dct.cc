/**
 * @file
 * Two-dimensional 8x8 DCT kernels (paper Sec. 3.4.3, Tables 1-2).
 *
 * One unit = one 8x8 block of level-shifted pixels (-128..127).
 *
 * Fixed-point design ("The DCT requires multiplying numbers greater
 * than 8 bits in length", Sec. 3.4.3): stage-1 cosine coefficients
 * are 9-bit s.9 values (up to +-251) and the intermediate transform
 * values are 11-bit, so on the Table 1 models every multiply lowers
 * to the 6-operation 16x8 partial form - the paper's "less than
 * complete 16x16 multiplies" - while the M16 models of Table 2 do
 * each in a single 2-cycle operation. Scaling shifts are chosen so
 * no accumulator can wrap for ANY input (loose-bound safe); the
 * golden references compute identical arithmetic.
 *
 *  - Traditional: direct quadruple-loop sum. The unoptimized variant
 *    forms the basis product C[u][y]*C[v][x] on the fly; optimized
 *    variants read a precomputed 4096-entry basis table.
 *  - Row/column: eight row DCTs into a transposed temporary, then
 *    eight column DCTs. The "+arithmetic optimization" variant is
 *    the paper's numerical analysis: even/odd cosine symmetry halves
 *    the multiplies and reduced-precision 8-bit immediate
 *    coefficients replace table loads.
 */

#include "kernels/kernel.hh"

#include "ir/builder.hh"
#include "kernels/kernel_ir.hh"

#include <array>
#include <cmath>

#include "support/logging.hh"
#include "video/synthetic.hh"
#include "xform/passes.hh"

namespace vvsp
{

namespace
{

/** Cosine coefficient tables: s.9 (9-bit) and s.6 (8-bit). */
const std::array<int, 64> &
dctCoef9()
{
    static const std::array<int, 64> table = [] {
        std::array<int, 64> t{};
        for (int u = 0; u < 8; ++u) {
            double alpha = u == 0 ? std::sqrt(1.0 / 8.0) : 0.5;
            for (int i = 0; i < 8; ++i) {
                t[static_cast<size_t>(u * 8 + i)] =
                    static_cast<int>(std::lround(
                        512.0 * alpha *
                        std::cos((2 * i + 1) * u * M_PI / 16.0)));
            }
        }
        return t;
    }();
    return table;
}

const std::array<int, 64> &
dctCoef6()
{
    static const std::array<int, 64> table = [] {
        std::array<int, 64> t{};
        for (int u = 0; u < 8; ++u) {
            double alpha = u == 0 ? std::sqrt(1.0 / 8.0) : 0.5;
            for (int i = 0; i < 8; ++i) {
                t[static_cast<size_t>(u * 8 + i)] =
                    static_cast<int>(std::lround(
                        64.0 * alpha *
                        std::cos((2 * i + 1) * u * M_PI / 16.0)));
            }
        }
        return t;
    }();
    return table;
}

/** Precomputed basis B[u][v][y][x] = (c9[u][y]*c6[v][x]) >> 5. */
const std::array<int, 4096> &
dctBasis()
{
    static const std::array<int, 4096> table = [] {
        std::array<int, 4096> t{};
        const auto &c9 = dctCoef9();
        const auto &c6 = dctCoef6();
        for (int u = 0; u < 8; ++u) {
            for (int v = 0; v < 8; ++v) {
                for (int y = 0; y < 8; ++y) {
                    for (int x = 0; x < 8; ++x) {
                        int bb =
                            w16(c9[static_cast<size_t>(u * 8 + y)] *
                                c6[static_cast<size_t>(v * 8 + x)]);
                        t[static_cast<size_t>(
                            ((u * 8 + v) * 64) + y * 8 + x)] =
                            w16(bb) >> 5;
                    }
                }
            }
        }
        return t;
    }();
    return table;
}

// ---------------------------------------------------------------------
// Row/column kernel. Scales: term1 >>4, t = acc1 >>4 (= 2*X1),
// term2 >>3, out = acc2 >>4 (= X2). All loose bounds < 32768.
// ---------------------------------------------------------------------

Function
buildRowCol()
{
    IRBuilder b("dct_rowcol");
    int in = b.buffer("in", 64, -128, 127);
    int c9 = b.buffer("coef9", 64, -256, 256);
    int c6 = b.buffer("coef6", 64, -32, 32);
    int tmp = b.buffer("tmp", 64, -1024, 1023);
    int out = b.buffer("out", 64);

    auto &r1 = b.beginLoop(8, "row");
    {
        Vreg base = b.shl(R(r1.inductionVar), K(3));
        auto &u1 = b.beginLoop(8, "u");
        {
            Vreg cb = b.shl(R(u1.inductionVar), K(3));
            Vreg acc = b.movi(0);
            auto &i1 = b.beginLoop(8, "mac");
            {
                Vreg x = b.load(in, R(base), R(i1.inductionVar), 0,
                                true);
                Vreg c = b.load(c9, R(cb), R(i1.inductionVar), 1,
                                true);
                Vreg p = b.mul16(R(x), R(c));
                Vreg term = b.sra(R(p), K(4));
                b.emitTo(acc, Opcode::Add, R(acc), R(term));
            }
            b.endLoop();
            Vreg t = b.sra(R(acc), K(4));
            b.store(tmp, R(t), R(cb), R(r1.inductionVar), 2, true);
        }
        b.endLoop();
    }
    b.endLoop();

    auto &r2 = b.beginLoop(8, "row2");
    {
        Vreg base = b.shl(R(r2.inductionVar), K(3));
        auto &u2 = b.beginLoop(8, "u2");
        {
            Vreg cb = b.shl(R(u2.inductionVar), K(3));
            Vreg acc = b.movi(0);
            auto &i2 = b.beginLoop(8, "mac2");
            {
                Vreg x = b.load(tmp, R(base), R(i2.inductionVar), 2,
                                true);
                Vreg c = b.load(c6, R(cb), R(i2.inductionVar), 1,
                                true);
                Vreg p = b.mul16(R(x), R(c));
                Vreg term = b.sra(R(p), K(3));
                b.emitTo(acc, Opcode::Add, R(acc), R(term));
            }
            b.endLoop();
            Vreg o = b.sra(R(acc), K(4));
            b.store(out, R(o), R(cb), R(r2.inductionVar), 0, true);
        }
        b.endLoop();
    }
    b.endLoop();
    return b.finish();
}

void
goldenRowCol(const Function &fn, MemoryImage &mem)
{
    int in = bufferIdByName(fn, "in");
    int c9 = bufferIdByName(fn, "coef9");
    int c6 = bufferIdByName(fn, "coef6");
    int tmpb = bufferIdByName(fn, "tmp");
    int out = bufferIdByName(fn, "out");

    auto rd = [&mem](int buf, int a) {
        return static_cast<int>(
            static_cast<int16_t>(mem.read(buf, a)));
    };
    for (int r = 0; r < 8; ++r) {
        for (int u = 0; u < 8; ++u) {
            int acc = 0;
            for (int i = 0; i < 8; ++i) {
                int p = w16(rd(in, r * 8 + i) * rd(c9, u * 8 + i));
                acc = w16(acc + (w16(p) >> 4));
            }
            mem.write(tmpb, u * 8 + r,
                      static_cast<uint16_t>(w16(acc) >> 4));
        }
    }
    for (int r = 0; r < 8; ++r) {
        for (int u = 0; u < 8; ++u) {
            int acc = 0;
            for (int i = 0; i < 8; ++i) {
                int p = w16(rd(tmpb, r * 8 + i) * rd(c6, u * 8 + i));
                acc = w16(acc + (w16(p) >> 3));
            }
            mem.write(out, u * 8 + r,
                      static_cast<uint16_t>(w16(acc) >> 4));
        }
    }
}

// ---------------------------------------------------------------------
// "+arithmetic optimization" row/column: even/odd symmetry, 8-bit
// immediate coefficients (reduced precision). Scales: term1 >>1,
// t = acc1 >>4, s2 pre-scaled >>1, term2 >>3, out = acc2 >>3.
// ---------------------------------------------------------------------

void
emitFastDct8(IRBuilder &b, const std::array<Vreg, 8> &x,
             const std::function<void(int u, Vreg val)> &sink,
             bool stage2)
{
    const auto &c = dctCoef6();
    std::array<Vreg, 4> s{}, d{};
    for (int k = 0; k < 4; ++k) {
        Vreg sum = b.add(R(x[static_cast<size_t>(k)]),
                         R(x[static_cast<size_t>(7 - k)]));
        Vreg diff = b.sub(R(x[static_cast<size_t>(k)]),
                          R(x[static_cast<size_t>(7 - k)]));
        if (stage2) {
            sum = b.sra(R(sum), K(1));
            diff = b.sra(R(diff), K(1));
        }
        s[static_cast<size_t>(k)] = sum;
        d[static_cast<size_t>(k)] = diff;
    }
    for (int u = 0; u < 8; ++u) {
        const auto &half = (u % 2 == 0) ? s : d;
        Vreg acc = kNoVreg;
        for (int k = 0; k < 4; ++k) {
            int cv = c[static_cast<size_t>(u * 8 + k)];
            Vreg p = b.mul16(R(half[static_cast<size_t>(k)]), K(cv));
            Vreg term = b.sra(R(p), K(stage2 ? 3 : 1));
            acc = acc == kNoVreg ? term : b.add(R(acc), R(term));
        }
        sink(u, acc);
    }
}

Function
buildRowColFast()
{
    IRBuilder b("dct_rowcol.fast");
    int in = b.buffer("in", 64, -128, 127);
    int tmp = b.buffer("tmp", 64, -1024, 1023);
    int out = b.buffer("out", 64);

    auto &r1 = b.beginLoop(8, "row");
    {
        Vreg base = b.shl(R(r1.inductionVar), K(3));
        std::array<Vreg, 8> x{};
        Vreg p = b.mov(R(base));
        for (int i = 0; i < 8; ++i) {
            x[static_cast<size_t>(i)] =
                b.load(in, R(p), Operand::none(), 0, true);
            if (i != 7)
                b.emitTo(p, Opcode::Add, R(p), K(1));
        }
        emitFastDct8(b, x,
                     [&](int u, Vreg val) {
                         Vreg t = b.sra(R(val), K(4));
                         b.store(tmp, R(t), K(u * 8),
                                 R(r1.inductionVar), 2, true);
                     },
                     false);
    }
    b.endLoop();

    auto &r2 = b.beginLoop(8, "row2");
    {
        Vreg base = b.shl(R(r2.inductionVar), K(3));
        std::array<Vreg, 8> x{};
        Vreg p = b.mov(R(base));
        for (int i = 0; i < 8; ++i) {
            x[static_cast<size_t>(i)] =
                b.load(tmp, R(p), Operand::none(), 2, true);
            if (i != 7)
                b.emitTo(p, Opcode::Add, R(p), K(1));
        }
        emitFastDct8(b, x,
                     [&](int u, Vreg val) {
                         Vreg o = b.sra(R(val), K(3));
                         b.store(out, R(o), K(u * 8),
                                 R(r2.inductionVar), 0, true);
                     },
                     true);
    }
    b.endLoop();
    return b.finish();
}

void
goldenRowColFast(const Function &fn, MemoryImage &mem)
{
    int in = bufferIdByName(fn, "in");
    int tmpb = bufferIdByName(fn, "tmp");
    int out = bufferIdByName(fn, "out");
    const auto &c = dctCoef6();

    auto rd = [&mem](int buf, int a) {
        return static_cast<int>(
            static_cast<int16_t>(mem.read(buf, a)));
    };
    auto fast8 = [&c](const std::array<int, 8> &x, bool stage2,
                      std::array<int, 8> &outv) {
        std::array<int, 4> s{}, d{};
        for (int k = 0; k < 4; ++k) {
            int sum = w16(x[static_cast<size_t>(k)] +
                          x[static_cast<size_t>(7 - k)]);
            int diff = w16(x[static_cast<size_t>(k)] -
                           x[static_cast<size_t>(7 - k)]);
            if (stage2) {
                sum = w16(sum) >> 1;
                diff = w16(diff) >> 1;
            }
            s[static_cast<size_t>(k)] = sum;
            d[static_cast<size_t>(k)] = diff;
        }
        for (int u = 0; u < 8; ++u) {
            const auto &half = (u % 2 == 0) ? s : d;
            int acc = 0;
            bool first = true;
            for (int k = 0; k < 4; ++k) {
                int p = w16(half[static_cast<size_t>(k)] *
                            c[static_cast<size_t>(u * 8 + k)]);
                int term = w16(p) >> (stage2 ? 3 : 1);
                acc = first ? w16(term) : w16(acc + term);
                first = false;
            }
            outv[static_cast<size_t>(u)] = acc;
        }
    };

    for (int r = 0; r < 8; ++r) {
        std::array<int, 8> x{}, o{};
        for (int i = 0; i < 8; ++i)
            x[static_cast<size_t>(i)] = rd(in, r * 8 + i);
        fast8(x, false, o);
        for (int u = 0; u < 8; ++u) {
            mem.write(tmpb, u * 8 + r,
                      static_cast<uint16_t>(
                          w16(o[static_cast<size_t>(u)]) >> 4));
        }
    }
    for (int r = 0; r < 8; ++r) {
        std::array<int, 8> x{}, o{};
        for (int i = 0; i < 8; ++i)
            x[static_cast<size_t>(i)] = rd(tmpb, r * 8 + i);
        fast8(x, true, o);
        for (int u = 0; u < 8; ++u) {
            mem.write(out, u * 8 + r,
                      static_cast<uint16_t>(
                          w16(o[static_cast<size_t>(u)]) >> 3));
        }
    }
}

// ---------------------------------------------------------------------
// Traditional (direct 2-D) kernel. Scales: B = (c9*c6) >>5 (9-bit),
// term = (p*B) >>6, out = acc >>4. Loose bounds < 32768 everywhere.
// ---------------------------------------------------------------------

Function
buildTraditional(bool basis_table)
{
    IRBuilder b(basis_table ? "dct_trad.table" : "dct_trad");
    int in = b.buffer("in", 64, -128, 127);
    int c9 = -1, c6 = -1, basis = -1;
    if (basis_table)
        basis = b.buffer("basis", 4096, -256, 256);
    else {
        c9 = b.buffer("coef9", 64, -256, 256);
        c6 = b.buffer("coef6", 64, -32, 32);
    }
    int out = b.buffer("out", 64);

    auto &v = b.beginLoop(8, "v");
    {
        Vreg cv = b.shl(R(v.inductionVar), K(3));
        auto &u = b.beginLoop(8, "u");
        {
            Vreg cu = b.shl(R(u.inductionVar), K(3));
            Vreg acc = b.movi(0);
            // Basis-table row base: ((u*8+v)*64).
            Vreg brow = kNoVreg;
            if (basis_table) {
                Vreg uv = b.add(R(cu), R(v.inductionVar));
                brow = b.shl(R(uv), K(6));
            }
            auto &y = b.beginLoop(8, "y");
            {
                Vreg py = b.shl(R(y.inductionVar), K(3));
                Vreg c1 = kNoVreg, bybase = kNoVreg;
                if (basis_table)
                    bybase = b.add(R(brow), R(py));
                else
                    c1 = b.load(c9, R(cu), R(y.inductionVar), 1,
                                true);
                auto &x = b.beginLoop(8, "x");
                {
                    Vreg p = b.load(in, R(py), R(x.inductionVar), 0,
                                    true);
                    Vreg bs;
                    if (basis_table) {
                        bs = b.load(basis, R(bybase),
                                    R(x.inductionVar), 2, true);
                    } else {
                        Vreg c2 = b.load(c6, R(cv),
                                         R(x.inductionVar), 1, true);
                        Vreg bb = b.mul16(R(c1), R(c2));
                        bs = b.sra(R(bb), K(5));
                    }
                    Vreg m = b.mul16(R(p), R(bs));
                    Vreg ms = b.sra(R(m), K(6));
                    b.emitTo(acc, Opcode::Add, R(acc), R(ms));
                }
                b.endLoop();
            }
            b.endLoop();
            Vreg o = b.sra(R(acc), K(4));
            b.store(out, R(o), R(cu), R(v.inductionVar), 0, true);
        }
        b.endLoop();
    }
    b.endLoop();
    return b.finish();
}

void
goldenTraditional(const Function &fn, MemoryImage &mem)
{
    int in = bufferIdByName(fn, "in");
    int out = bufferIdByName(fn, "out");
    const auto &basis = dctBasis();
    auto rd = [&mem](int buf, int a) {
        return static_cast<int>(
            static_cast<int16_t>(mem.read(buf, a)));
    };
    // Whether formed on the fly or loaded, the basis values are the
    // same dctBasis() numbers (prepare fills the table identically).
    for (int v = 0; v < 8; ++v) {
        for (int u = 0; u < 8; ++u) {
            int acc = 0;
            for (int y = 0; y < 8; ++y) {
                for (int x = 0; x < 8; ++x) {
                    int bs = basis[static_cast<size_t>(
                        ((u * 8 + v) * 64) + y * 8 + x)];
                    int m = w16(rd(in, y * 8 + x) * bs);
                    acc = w16(acc + (w16(m) >> 6));
                }
            }
            mem.write(out, u * 8 + v,
                      static_cast<uint16_t>(w16(acc) >> 4));
        }
    }
}

/**
 * "+arithmetic optimization" traditional: register-resident block,
 * build-time basis immediates, small terms pruned (|B| <= 2).
 */
Function
buildTraditionalOpt()
{
    IRBuilder b2("dct_trad.opt");
    int in = b2.buffer("in", 64, -128, 127);
    int out = b2.buffer("out", 64);
    const auto &basis = dctBasis();

    std::array<Vreg, 64> px{};
    Vreg p = b2.movi(0);
    for (int i = 0; i < 64; ++i) {
        px[static_cast<size_t>(i)] =
            b2.load(in, R(p), Operand::none(), 0, true);
        if (i != 63)
            b2.emitTo(p, Opcode::Add, R(p), K(1));
    }
    for (int u = 0; u < 8; ++u) {
        for (int v2 = 0; v2 < 8; ++v2) {
            Vreg acc = kNoVreg;
            for (int y = 0; y < 8; ++y) {
                for (int x = 0; x < 8; ++x) {
                    int bs = basis[static_cast<size_t>(
                        ((u * 8 + v2) * 64) + y * 8 + x)];
                    if (bs >= -2 && bs <= 2)
                        continue; // pruned small term.
                    Vreg m = b2.mul16(
                        R(px[static_cast<size_t>(y * 8 + x)]), K(bs));
                    Vreg ms = b2.sra(R(m), K(6));
                    acc = acc == kNoVreg ? ms : b2.add(R(acc), R(ms));
                }
            }
            Vreg o = b2.sra(R(acc), K(4));
            b2.store(out, R(o), K(u * 8 + v2), Operand::none(), 0,
                     true);
        }
    }
    return b2.finish();
}

void
goldenTraditionalOpt(const Function &fn, MemoryImage &mem)
{
    int in = bufferIdByName(fn, "in");
    int out = bufferIdByName(fn, "out");
    const auto &basis = dctBasis();
    auto rd = [&mem](int buf, int a) {
        return static_cast<int>(
            static_cast<int16_t>(mem.read(buf, a)));
    };
    for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
            int acc = 0;
            bool first = true;
            for (int y = 0; y < 8; ++y) {
                for (int x = 0; x < 8; ++x) {
                    int bs = basis[static_cast<size_t>(
                        ((u * 8 + v) * 64) + y * 8 + x)];
                    if (bs >= -2 && bs <= 2)
                        continue;
                    int m = w16(rd(in, y * 8 + x) * bs);
                    int ms = w16(m) >> 6;
                    acc = first ? w16(ms) : w16(acc + ms);
                    first = false;
                }
            }
            mem.write(out, u * 8 + v,
                      static_cast<uint16_t>(w16(acc) >> 4));
        }
    }
}

// ---------------------------------------------------------------------
// Shared prepare.
// ---------------------------------------------------------------------

void
prepareDctUnit(const Function &fn, MemoryImage &mem,
               const FrameGeometry &geom, int index)
{
    const SyntheticVideo video(geom.width, geom.height, 11);
    int bw = geom.width / 8;
    int bh = geom.height / 8;
    int bx = index % bw;
    int by = (index / bw) % bh;

    std::vector<uint16_t> block(64);
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            int v = static_cast<int>(
                        video.lumaAt(bx * 8 + x, by * 8 + y, 0)) -
                    128;
            block[static_cast<size_t>(y * 8 + x)] =
                static_cast<uint16_t>(v);
        }
    }
    fillAllByName(fn, mem, "in", block);

    auto fill16 = [&](const std::string &name, const int *data,
                      int n) {
        for (const auto &buf : fn.buffers) {
            if (buf.name != name)
                continue;
            std::vector<uint16_t> words(static_cast<size_t>(n));
            for (int i = 0; i < n; ++i) {
                words[static_cast<size_t>(i)] = static_cast<uint16_t>(
                    static_cast<int16_t>(data[i]));
            }
            mem.fill(buf.id, 0, words);
        }
    };
    fill16("coef9", dctCoef9().data(), 64);
    fill16("coef6", dctCoef6().data(), 64);
    fill16("basis", dctBasis().data(), 4096);
}

double
codedBlocksPerFrame(const FrameGeometry &geom)
{
    return geom.codedBlocks();
}

// ---------------------------------------------------------------------
// Transform recipes.
// ---------------------------------------------------------------------

void
unrollLabels(Function &fn, const std::vector<std::string> &labels)
{
    for (const auto &label : labels) {
        while (LoopNode *loop = passes::findLoop(fn, label))
            passes::unrollLoop(fn, *loop, 0);
    }
    passes::licm(fn);
    passes::cleanup(fn);
}

} // anonymous namespace

KernelSpec
makeDctTraditionalKernel()
{
    KernelSpec k;
    k.name = "DCT - traditional";
    k.unitsPerFrame = codedBlocksPerFrame;
    k.outputBuffers = {"out"};
    k.prepare = prepareDctUnit;
    k.golden = goldenTraditional;

    k.variants.push_back({"Sequential-unoptimized",
                          ScheduleMode::Sequential, false, 1, false,
                          false, [] { return buildTraditional(false); },
                          [](Function &fn) { passes::licm(fn); },
                          nullptr});
    k.variants.push_back({"Unrolled inner loop",
                          ScheduleMode::Sequential, false, 1, false,
                          false, [] { return buildTraditional(true); },
                          [](Function &fn) {
                              unrollLabels(fn, {"x"});
                          },
                          nullptr});
    k.variants.push_back({"List Scheduled", ScheduleMode::Wide, true,
                          1, false, false,
                          [] { return buildTraditional(true); },
                          [](Function &fn) {
                              unrollLabels(fn, {"x"});
                          },
                          nullptr});
    k.variants.push_back({"SW pipelined & predicated",
                          ScheduleMode::Swp, true, 1, false, false,
                          [] { return buildTraditional(true); },
                          [](Function &fn) {
                              // Pipeline whole-output iterations (the
                              // u loop); pipelining the tiny MAC loop
                              // would drown in prologue/epilogue.
                              unrollLabels(fn, {"x", "y"});
                              passes::ifConvert(fn);
                          },
                          nullptr});
    k.variants.push_back({"+arithmetic optimization",
                          ScheduleMode::Swp, true, 1, false, false,
                          buildTraditionalOpt,
                          [](Function &fn) { passes::cleanup(fn); },
                          goldenTraditionalOpt});
    k.variants.push_back({"+unroll 2 levels & widen",
                          ScheduleMode::Swp, true, 4, false, false,
                          [] { return buildTraditional(true); },
                          [](Function &fn) {
                              // Unrolling u exposes eight output
                              // trees per v iteration for the
                              // four-cluster partition.
                              unrollLabels(fn, {"x", "y", "u"});
                          },
                          nullptr});
    return k;
}

KernelSpec
makeDctRowColKernel()
{
    KernelSpec k;
    k.name = "DCT - row/column";
    k.unitsPerFrame = codedBlocksPerFrame;
    k.outputBuffers = {"out"};
    k.prepare = prepareDctUnit;
    k.golden = goldenRowCol;

    k.variants.push_back({"Sequential-unoptimized",
                          ScheduleMode::Sequential, false, 1, false,
                          false, buildRowCol,
                          [](Function &fn) { passes::licm(fn); },
                          nullptr});
    k.variants.push_back({"Unrolled inner loop",
                          ScheduleMode::Sequential, false, 1, false,
                          false, buildRowCol,
                          [](Function &fn) {
                              unrollLabels(fn, {"mac", "mac2"});
                          },
                          nullptr});
    k.variants.push_back({"List Scheduled", ScheduleMode::Wide, true,
                          1, false, false, buildRowCol,
                          [](Function &fn) {
                              unrollLabels(fn, {"mac", "mac2"});
                          },
                          nullptr});
    k.variants.push_back({"SW pipelined & predicated",
                          ScheduleMode::Swp, true, 1, false, false,
                          buildRowCol,
                          [](Function &fn) {
                              unrollLabels(fn,
                                           {"mac", "mac2", "u", "u2"});
                              passes::ifConvert(fn);
                          },
                          nullptr});
    k.variants.push_back({"+arithmetic optimization",
                          ScheduleMode::Swp, true, 1, false, false,
                          buildRowColFast,
                          [](Function &fn) { passes::cleanup(fn); },
                          goldenRowColFast});
    k.variants.push_back({"+unroll 2 levels & widen",
                          ScheduleMode::Swp, true, 4, false, false,
                          buildRowCol,
                          [](Function &fn) {
                              unrollLabels(fn,
                                           {"mac", "mac2", "u", "u2"});
                          },
                          nullptr});
    return k;
}

} // namespace vvsp
