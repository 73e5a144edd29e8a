/**
 * @file
 * RGB -> YCrCb conversion with 4:4:4 -> 4:2:0 subsampling
 * (paper Sec. 3.4.4).
 *
 * One unit = one 16x16 macroblock of RGB samples. Fixed-point
 * formulas with 7 fractional bits (all products fit 16 bits):
 *
 *   Y  = ( 33 R + 64 G + 12 B) >> 7
 *   Cb = ((-19 R - 37 G + 56 B) >> 7) + 128
 *   Cr = (( 56 R - 47 G -  9 B) >> 7) + 128
 *
 * Chroma is computed from the average RGB of each 2x2 quad. The
 * baseline walks pixels with parity branches ("several paths through
 * the inner loop"); the restructured variants process one 2x2 quad
 * per iteration, which is how unrolling "eliminates branches that
 * depend only on loop index values".
 */

#include "kernels/kernel.hh"

#include "ir/builder.hh"
#include "kernels/kernel_ir.hh"
#include "support/logging.hh"
#include "video/synthetic.hh"
#include "xform/passes.hh"

namespace vvsp
{

namespace
{

struct CscCoefs
{
    int yr = 33, yg = 64, yb = 12;
    int cbr = -19, cbg = -37, cbb = 56;
    int crr = 56, crg = -47, crb = -9;
};

/** Emit (a*ca + b*cb + c*cc) >> 7 [+ bias]. */
Vreg
emitWeighted(IRBuilder &bld, Operand a, Operand b, Operand c, int ca,
             int cb, int cc, int bias)
{
    Vreg t1 = bld.mul16(a, K(ca));
    Vreg t2 = bld.mul16(b, K(cb));
    Vreg t3 = bld.mul16(c, K(cc));
    Vreg s1 = bld.add(R(t1), R(t2));
    Vreg s2 = bld.add(R(s1), R(t3));
    Vreg sh = bld.sra(R(s2), K(7));
    if (bias == 0)
        return sh;
    return bld.add(R(sh), K(bias));
}

/** Baseline: per-pixel loop with parity branches. */
Function
buildCscScalar()
{
    CscCoefs cf;
    IRBuilder b("csc.scalar");
    int rb = b.buffer("r", 256);
    int gb = b.buffer("g", 256);
    int bb = b.buffer("bch", 256);
    int yo = b.buffer("yout", 256);
    int cbo = b.buffer("cbout", 64);
    int cro = b.buffer("crout", 64);

    auto &py = b.beginLoop(16, "py");
    {
        Vreg yb = b.shl(R(py.inductionVar), K(4));
        auto &px = b.beginLoop(16, "px");
        {
            Vreg idx = b.add(R(yb), R(px.inductionVar));
            Vreg rv = b.load(rb, R(yb), R(px.inductionVar), 0, true);
            Vreg gv = b.load(gb, R(yb), R(px.inductionVar), 0, true);
            Vreg bv = b.load(bb, R(yb), R(px.inductionVar), 0, true);
            Vreg yv = emitWeighted(b, R(rv), R(gv), R(bv), cf.yr,
                                   cf.yg, cf.yb, 0);
            b.store(yo, R(yv), R(yb), R(px.inductionVar), 1, true);

            Vreg xp = b.band(R(px.inductionVar), K(1));
            Vreg yp = b.band(R(py.inductionVar), K(1));
            Vreg quad = b.band(R(xp), R(yp));
            b.beginIf(R(quad));
            {
                // Average the completed 2x2 quad (offsets 0, -1,
                // -16, -17 from the current odd/odd pixel).
                auto avg = [&](int buf) {
                    Vreg v0 = b.load(buf, R(idx), Operand::none(), 0,
                                     true);
                    Vreg v1 = b.load(buf, R(idx), K(-1), 0, true);
                    Vreg v2 = b.load(buf, R(idx), K(-16), 0, true);
                    Vreg v3 = b.load(buf, R(idx), K(-17), 0, true);
                    Vreg s1 = b.add(R(v0), R(v1));
                    Vreg s2 = b.add(R(v2), R(v3));
                    Vreg s = b.add(R(s1), R(s2));
                    return b.sra(R(s), K(2));
                };
                Vreg ra = avg(rb);
                Vreg ga = avg(gb);
                Vreg ba = avg(bb);
                Vreg cbv = emitWeighted(b, R(ra), R(ga), R(ba),
                                        cf.cbr, cf.cbg, cf.cbb, 128);
                Vreg crv = emitWeighted(b, R(ra), R(ga), R(ba),
                                        cf.crr, cf.crg, cf.crb, 128);
                Vreg cy = b.sra(R(py.inductionVar), K(1));
                Vreg cx = b.sra(R(px.inductionVar), K(1));
                Vreg cb8 = b.shl(R(cy), K(3));
                Vreg cidx = b.add(R(cb8), R(cx));
                b.store(cbo, R(cbv), R(cidx), Operand::none(), 2,
                        true);
                b.store(cro, R(crv), R(cidx), Operand::none(), 3,
                        true);
            }
            b.endIf();
        }
        b.endLoop();
    }
    b.endLoop();
    return b.finish();
}

/** Restructured: one 2x2 quad per iteration, no branches. */
Function
buildCscQuad()
{
    CscCoefs cf;
    IRBuilder b("csc.quad");
    int rb = b.buffer("r", 256);
    int gb = b.buffer("g", 256);
    int bb = b.buffer("bch", 256);
    int yo = b.buffer("yout", 256);
    int cbo = b.buffer("cbout", 64);
    int cro = b.buffer("crout", 64);

    auto &qy = b.beginLoop(8, "qy");
    {
        Vreg row0 = b.shl(R(qy.inductionVar), K(5)); // 2*qy*16.
        auto &qx = b.beginLoop(8, "qx");
        {
            Vreg x0 = b.shl(R(qx.inductionVar), K(1));
            Vreg i00 = b.add(R(row0), R(x0));

            Vreg rsum = kNoVreg, gsum = kNoVreg, bsum = kNoVreg;
            for (int off : {0, 1, 16, 17}) {
                Vreg rv = b.load(rb, R(i00), K(off), 0, true);
                Vreg gv = b.load(gb, R(i00), K(off), 0, true);
                Vreg bv = b.load(bb, R(i00), K(off), 0, true);
                Vreg yv = emitWeighted(b, R(rv), R(gv), R(bv), cf.yr,
                                       cf.yg, cf.yb, 0);
                b.store(yo, R(yv), R(i00), K(off), 1, true);
                rsum = rsum == kNoVreg ? rv : b.add(R(rsum), R(rv));
                gsum = gsum == kNoVreg ? gv : b.add(R(gsum), R(gv));
                bsum = bsum == kNoVreg ? bv : b.add(R(bsum), R(bv));
            }
            Vreg ra = b.sra(R(rsum), K(2));
            Vreg ga = b.sra(R(gsum), K(2));
            Vreg ba = b.sra(R(bsum), K(2));
            Vreg cbv = emitWeighted(b, R(ra), R(ga), R(ba), cf.cbr,
                                    cf.cbg, cf.cbb, 128);
            Vreg crv = emitWeighted(b, R(ra), R(ga), R(ba), cf.crr,
                                    cf.crg, cf.crb, 128);
            Vreg cb8 = b.shl(R(qy.inductionVar), K(3));
            Vreg cidx = b.add(R(cb8), R(qx.inductionVar));
            b.store(cbo, R(cbv), R(cidx), Operand::none(), 2, true);
            b.store(cro, R(crv), R(cidx), Operand::none(), 3, true);
        }
        b.endLoop();
    }
    b.endLoop();
    return b.finish();
}

/** Shared golden (quad averaging order matches both builders). */
void
goldenCsc(const Function &fn, MemoryImage &mem)
{
    CscCoefs cf;
    int rb = bufferIdByName(fn, "r");
    int gb = bufferIdByName(fn, "g");
    int bb = bufferIdByName(fn, "bch");
    int yo = bufferIdByName(fn, "yout");
    int cbo = bufferIdByName(fn, "cbout");
    int cro = bufferIdByName(fn, "crout");

    auto weighted = [](int a, int b2, int c, int ca, int cb, int cc,
                       int bias) {
        int t1 = w16(a * ca);
        int t2 = w16(b2 * cb);
        int t3 = w16(c * cc);
        int s = w16(w16(t1 + t2) + t3);
        return w16((s >> 7) + bias);
    };

    for (int i = 0; i < 256; ++i) {
        int rv = mem.read(rb, i), gv = mem.read(gb, i),
            bv = mem.read(bb, i);
        mem.write(yo, i,
                  static_cast<uint16_t>(weighted(
                      rv, gv, bv, cf.yr, cf.yg, cf.yb, 0)));
    }
    for (int qy = 0; qy < 8; ++qy) {
        for (int qx = 0; qx < 8; ++qx) {
            int i00 = qy * 32 + qx * 2;
            auto avg = [&](int buf) {
                int s = w16(w16(w16(mem.read(buf, i00)) +
                                w16(mem.read(buf, i00 + 1))) +
                            w16(w16(mem.read(buf, i00 + 16)) +
                                w16(mem.read(buf, i00 + 17))));
                return w16(s) >> 2;
            };
            int ra = avg(rb), ga = avg(gb), ba = avg(bb);
            mem.write(cbo, qy * 8 + qx,
                      static_cast<uint16_t>(
                          weighted(ra, ga, ba, cf.cbr, cf.cbg,
                                   cf.cbb, 128)));
            mem.write(cro, qy * 8 + qx,
                      static_cast<uint16_t>(
                          weighted(ra, ga, ba, cf.crr, cf.crg,
                                   cf.crb, 128)));
        }
    }
}

void
prepareCscUnit(const Function &fn, MemoryImage &mem,
               const FrameGeometry &geom, int index)
{
    const SyntheticVideo video(geom.width, geom.height, 23);
    int mbx = index % geom.macroblocksX();
    int mby = (index / geom.macroblocksX()) % geom.macroblocksY();
    std::vector<uint16_t> r(256), g(256), bch(256);
    for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
            size_t i = static_cast<size_t>(y * 16 + x);
            Rgb c = video.rgbAt(mbx * 16 + x, mby * 16 + y, 0);
            r[i] = c.r;
            g[i] = c.g;
            bch[i] = c.b;
        }
    }
    fillAllByName(fn, mem, "r", r);
    fillAllByName(fn, mem, "g", g);
    fillAllByName(fn, mem, "bch", bch);
}

} // anonymous namespace

KernelSpec
makeColorConvertKernel()
{
    KernelSpec k;
    k.name = "RGB:YCrCb converter/subsampler";
    k.unitsPerFrame = [](const FrameGeometry &g) {
        return static_cast<double>(g.macroblocks());
    };
    k.outputBuffers = {"yout", "cbout", "crout"};
    k.prepare = prepareCscUnit;
    k.golden = goldenCsc;

    k.variants.push_back({"Sequential", ScheduleMode::Sequential,
                          false, 1, false, false, buildCscScalar,
                          [](Function &fn) {
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    k.variants.push_back({"Sequential-unrolled",
                          ScheduleMode::Sequential, false, 1, false,
                          false, buildCscQuad,
                          [](Function &fn) {
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    k.variants.push_back({"List-scheduled", ScheduleMode::Wide, true,
                          1, false, false, buildCscQuad,
                          [](Function &fn) {
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    k.variants.push_back({"SW Pipelined & predicated",
                          ScheduleMode::Swp, true, 1, false, false,
                          buildCscQuad,
                          [](Function &fn) {
                              // Pipeline whole row-pair iterations.
                              passes::unrollLoopByLabel(fn, "qx", 0);
                              passes::ifConvert(fn);
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    return k;
}

} // namespace vvsp
