/**
 * @file
 * Variable-Bit-Rate coder (paper Sec. 3.4.5): combined run-length +
 * Huffman coding of quantized 8x8 DCT blocks, the final lossless
 * stage of MPEG-style compression.
 *
 * One unit = one quantized coefficient block. The kernel zigzag-scans
 * the block; zero coefficients extend the current run, nonzero ones
 * emit a table codeword (run, level class) plus a sign bit into a
 * serial 16-bit bit buffer. The bit buffer and the run counter form
 * the long loop-carried dependence chains that cap this kernel's
 * parallelism at ~2.5x. Runs longer than 15 and levels beyond +-7
 * clamp to the table edge (a lossy simplification of the MPEG escape
 * mechanism; see DESIGN.md).
 *
 * Replication across clusters is impossible (bit positions depend on
 * all previous blocks), so parallel variants gang the whole machine,
 * as the paper's list scheduler did with "the entire 33-issue
 * machine".
 */

#include "kernels/kernel.hh"

#include "ir/builder.hh"
#include "kernels/kernel_ir.hh"

#include <array>
#include <cmath>

#include "support/logging.hh"
#include "video/mpeg.hh"
#include "video/synthetic.hh"
#include "xform/passes.hh"

namespace vvsp
{

namespace
{

/** Mutable coder state registers. */
struct BitState
{
    Vreg run, bitbuf, nbits, wpos;
};

/**
 * Emit the append of `len` (register or imm) bits of `code` into the
 * serial bit buffer, spilling completed 16-bit words.
 */
void
emitAppend(IRBuilder &b, int bits_buf, BitState &st, Operand code,
           Operand len)
{
    Vreg total = b.add(R(st.nbits), len);
    Vreg over = b.sub(R(total), K(16));
    Vreg ovf = b.cmpGe(R(over), K(0));
    b.beginIf(R(ovf));
    {
        Vreg hi = b.sub(len, R(over));
        Vreg w1 = b.shl(R(st.bitbuf), R(hi));
        Vreg w2 = b.shr(code, R(over));
        Vreg w = b.bor(R(w1), R(w2));
        b.store(bits_buf, R(w), R(st.wpos), Operand::none(), 0, true);
        b.emitTo(st.wpos, Opcode::Add, R(st.wpos), K(1));
        Vreg m1 = b.shl(K(1), R(over));
        Vreg mask = b.sub(R(m1), K(1));
        b.emitTo(st.bitbuf, Opcode::And, code, R(mask));
        b.emitTo(st.nbits, Opcode::Mov, R(over));
    }
    b.beginElse();
    {
        Vreg sh = b.shl(R(st.bitbuf), len);
        b.emitTo(st.bitbuf, Opcode::Or, R(sh), code);
        b.emitTo(st.nbits, Opcode::Mov, R(total));
    }
    b.endIf();
}

/**
 * Baseline VBR coder. phase_split selects the "+phase pipelining"
 * organization: classification into a temporary run/level list
 * (capped at 16 codewords per block), then a separate packing loop.
 */
Function
buildVbr(bool phase_split)
{
    IRBuilder b(phase_split ? "vbr.phase" : "vbr");
    int coef = b.buffer("coef", 64);
    int zig = b.buffer("zig", 64);
    int hlen = b.buffer("hlen", 128);
    int hcode = b.buffer("hcode", 128);
    int bits = b.buffer("bits", 128);
    int obits = b.buffer("obits", 4);
    int tmp = phase_split ? b.buffer("tmp", 64) : -1;

    BitState st;
    st.run = b.movi(0);
    st.bitbuf = b.movi(0);
    st.nbits = b.movi(0);
    st.wpos = b.movi(0);

    auto classify = [&](Vreg k_iv,
                        const std::function<void(Vreg idx, Vreg sign)>
                            &emit_codeword) {
        Vreg zi = b.load(zig, R(k_iv), Operand::none(), 1, true);
        Vreg c = b.load(coef, R(zi), Operand::none(), 2, false);
        Vreg isz = b.cmpEq(R(c), K(0));
        b.beginIf(R(isz));
        {
            b.emitTo(st.run, Opcode::Add, R(st.run), K(1));
        }
        b.beginElse();
        {
            Vreg ac = b.abs(R(c));
            Vreg sign = b.cmpLt(R(c), K(0));
            Vreg cls = b.min(R(ac), K(7));
            Vreg ridx = b.min(R(st.run), K(15));
            Vreg r8 = b.shl(R(ridx), K(3));
            Vreg idx = b.add(R(r8), R(cls));
            emit_codeword(idx, sign);
            b.emitTo(st.run, Opcode::Mov, K(0));
        }
        b.endIf();
    };

    if (!phase_split) {
        auto &scan = b.beginLoop(64, "scan");
        classify(scan.inductionVar, [&](Vreg idx, Vreg sign) {
            Vreg len = b.load(hlen, R(idx), Operand::none(), 3, false);
            Vreg code = b.load(hcode, R(idx), Operand::none(), 4,
                               false);
            // Fold the sign bit into the codeword off the serial
            // bit-buffer chain: one append per coefficient.
            Vreg code1 = b.shl(R(code), K(1));
            Vreg code2 = b.bor(R(code1), R(sign));
            Vreg len2 = b.add(R(len), K(1));
            emitAppend(b, bits, st, R(code2), R(len2));
        });
        b.endLoop();
    } else {
        // Phase 1: classify into (idx, sign) pairs, at most 16.
        Vreg count = b.movi(0);
        auto &scan = b.beginLoop(64, "scan");
        classify(scan.inductionVar, [&](Vreg idx, Vreg sign) {
            Vreg fits = b.cmpLt(R(count), K(16));
            b.beginIf(R(fits));
            {
                Vreg s8 = b.shl(R(sign), K(8));
                Vreg packed = b.bor(R(idx), R(s8));
                b.store(tmp, R(packed), R(count), Operand::none(), 5,
                        false);
                b.emitTo(count, Opcode::Add, R(count), K(1));
            }
            b.endIf();
        });
        b.endLoop();
        // Phase 2: pack the recorded codewords (predicated on j <
        // count so the loop shape stays static).
        auto &pack = b.beginLoop(16, "pack");
        {
            Vreg valid = b.cmpLt(R(pack.inductionVar), R(count));
            b.beginIf(R(valid));
            {
                Vreg packed = b.load(tmp, R(pack.inductionVar),
                                     Operand::none(), 5, false);
                Vreg idx = b.band(R(packed), K(0xff));
                Vreg sign = b.shr(R(packed), K(8));
                Vreg len = b.load(hlen, R(idx), Operand::none(), 3,
                                  false);
                Vreg code = b.load(hcode, R(idx), Operand::none(), 4,
                                   false);
                Vreg code1 = b.shl(R(code), K(1));
                Vreg code2 = b.bor(R(code1), R(sign));
                Vreg len2 = b.add(R(len), K(1));
                emitAppend(b, bits, st, R(code2), R(len2));
            }
            b.endIf();
        }
        b.endLoop();
    }

    // End-of-block code, then expose the residual coder state.
    emitAppend(b, bits, st, K(VbrCodeTable::kEobCode),
               K(VbrCodeTable::kEobBits));
    b.store(obits, R(st.bitbuf), K(0));
    b.store(obits, R(st.nbits), K(1));
    b.store(obits, R(st.wpos), K(2));
    return b.finish();
}

/** Golden coder state machine mirroring the IR bit-exactly. */
struct GoldenBitState
{
    uint16_t run = 0, bitbuf = 0, nbits = 0, wpos = 0;

    void
    append(MemoryImage &mem, int bits_buf, uint16_t code,
           uint16_t len)
    {
        uint16_t total = static_cast<uint16_t>(nbits + len);
        int16_t over = static_cast<int16_t>(total - 16);
        if (over >= 0) {
            uint16_t hi = static_cast<uint16_t>(len - over);
            uint16_t w = static_cast<uint16_t>(
                (bitbuf << (hi & 15)) | (code >> (over & 15)));
            mem.write(bits_buf, wpos, w);
            wpos++;
            uint16_t mask =
                static_cast<uint16_t>((1u << (over & 15)) - 1);
            bitbuf = static_cast<uint16_t>(code & mask);
            nbits = static_cast<uint16_t>(over);
        } else {
            bitbuf = static_cast<uint16_t>((bitbuf << (len & 15)) |
                                           code);
            nbits = total;
        }
    }
};

void
goldenVbrCommon(const Function &fn, MemoryImage &mem, bool phase_split)
{
    int coef = bufferIdByName(fn, "coef");
    int zig = bufferIdByName(fn, "zig");
    int hlen = bufferIdByName(fn, "hlen");
    int hcode = bufferIdByName(fn, "hcode");
    int bits = bufferIdByName(fn, "bits");
    int obits = bufferIdByName(fn, "obits");
    int tmp = phase_split ? bufferIdByName(fn, "tmp") : -1;

    GoldenBitState st;
    std::vector<std::pair<uint16_t, uint16_t>> pending;
    uint16_t count = 0;

    for (int k = 0; k < 64; ++k) {
        int zi = mem.read(zig, k);
        int16_t c = static_cast<int16_t>(mem.read(coef, zi));
        if (c == 0) {
            st.run++;
            continue;
        }
        uint16_t ac = static_cast<uint16_t>(c < 0 ? -c : c);
        uint16_t sign = c < 0 ? 1 : 0;
        uint16_t cls = std::min<uint16_t>(ac, 7);
        uint16_t ridx = std::min<uint16_t>(st.run, 15);
        uint16_t idx = static_cast<uint16_t>(ridx * 8 + cls);
        if (!phase_split) {
            uint16_t code2 = static_cast<uint16_t>(
                (mem.read(hcode, idx) << 1) | sign);
            uint16_t len2 =
                static_cast<uint16_t>(mem.read(hlen, idx) + 1);
            st.append(mem, bits, code2, len2);
        } else if (count < 16) {
            uint16_t packed =
                static_cast<uint16_t>(idx | (sign << 8));
            mem.write(tmp, count, packed);
            pending.emplace_back(idx, sign);
            count++;
        }
        st.run = 0;
    }
    if (phase_split) {
        for (const auto &[idx, sign] : pending) {
            uint16_t code2 = static_cast<uint16_t>(
                (mem.read(hcode, idx) << 1) | sign);
            uint16_t len2 =
                static_cast<uint16_t>(mem.read(hlen, idx) + 1);
            st.append(mem, bits, code2, len2);
        }
    }
    st.append(mem, bits, VbrCodeTable::kEobCode,
              VbrCodeTable::kEobBits);
    mem.write(obits, 0, st.bitbuf);
    mem.write(obits, 1, st.nbits);
    mem.write(obits, 2, st.wpos);
}

void
goldenVbr(const Function &fn, MemoryImage &mem)
{
    goldenVbrCommon(fn, mem, false);
}

void
goldenVbrPhase(const Function &fn, MemoryImage &mem)
{
    goldenVbrCommon(fn, mem, true);
}

// ---------------------------------------------------------------------
// Workload: quantized DCT coefficients of synthetic video.
// ---------------------------------------------------------------------

/**
 * The quantized coefficients of 8x8 block (bx, by) of frame 0: a
 * reference float DCT plus the uniform quantizer, which produce the
 * sparse blocks with characteristic zero runs.
 */
std::vector<uint16_t>
coefBlock(const SyntheticVideo &video, int bx, int by)
{
    // Basis values tabulated once per block, not per product. Same
    // doubles, same summation order as calling cos() inline, so the
    // quantized block is bit-identical.
    std::array<std::array<double, 8>, 8> ct;
    for (int u = 0; u < 8; ++u) {
        for (int y = 0; y < 8; ++y) {
            ct[static_cast<size_t>(u)][static_cast<size_t>(y)] =
                std::cos((2 * y + 1) * u * M_PI / 16.0);
        }
    }
    std::array<int, 64> pix;
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            pix[static_cast<size_t>(y * 8 + x)] =
                video.lumaAt(bx * 8 + x, by * 8 + y, 0) - 128;
        }
    }
    std::array<double, 64> d{};
    for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
            double acc = 0;
            for (int y = 0; y < 8; ++y) {
                for (int x = 0; x < 8; ++x) {
                    double px = pix[static_cast<size_t>(y * 8 + x)];
                    acc += px *
                           ct[static_cast<size_t>(u)]
                             [static_cast<size_t>(y)] *
                           ct[static_cast<size_t>(v)]
                             [static_cast<size_t>(x)];
                }
            }
            double au = u == 0 ? std::sqrt(1.0 / 8) : 0.5;
            double av = v == 0 ? std::sqrt(1.0 / 8) : 0.5;
            d[static_cast<size_t>(u * 8 + v)] = au * av * acc;
        }
    }
    std::vector<uint16_t> raw(64);
    for (int i = 0; i < 64; ++i) {
        raw[static_cast<size_t>(i)] = static_cast<uint16_t>(
            static_cast<int16_t>(
                std::lround(d[static_cast<size_t>(i)])));
    }
    return quantizeBlock(raw);
}

void
prepareVbrUnit(const Function &fn, MemoryImage &mem,
               const FrameGeometry &geom, int index)
{
    // Units cycle over the frame's blocks in raster order.
    const int bw = geom.width / 8, bh = geom.height / 8;
    const int block = index % (bw * bh);
    fillAllByName(fn, mem, "coef",
                  coefBlock(SyntheticVideo(geom.width, geom.height, 31),
                            block % bw, block / bw));

    std::vector<uint16_t> zig(64);
    for (int i = 0; i < 64; ++i)
        zig[static_cast<size_t>(i)] = zigzagOrder()[
            static_cast<size_t>(i)];
    fillAllByName(fn, mem, "zig", zig);

    const VbrCodeTable &table = VbrCodeTable::instance();
    std::vector<uint16_t> hlen(table.length.begin(),
                               table.length.end());
    std::vector<uint16_t> hcode(table.code.begin(), table.code.end());
    fillAllByName(fn, mem, "hlen", hlen);
    fillAllByName(fn, mem, "hcode", hcode);
}

} // anonymous namespace

KernelSpec
makeVbrKernel()
{
    KernelSpec k;
    k.name = "Variable-Bit-Rate Coder";
    k.unitsPerFrame = [](const FrameGeometry &g) {
        return static_cast<double>(g.codedBlocks());
    };
    k.outputBuffers = {"bits", "obits"};
    k.prepare = prepareVbrUnit;
    k.golden = goldenVbr;

    k.variants.push_back({"Sequential", ScheduleMode::Sequential,
                          false, 1, false, false,
                          [] { return buildVbr(false); },
                          [](Function &fn) {
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    k.variants.push_back({"Sequential-predicated",
                          ScheduleMode::Sequential, false, 1, false,
                          false, [] { return buildVbr(false); },
                          [](Function &fn) {
                              // Predicate only the small diamonds
                              // (the overflow path of an append); a
                              // width-1 schedule pays for every
                              // predicated op, so converting the big
                              // zero/nonzero branch would hurt.
                              passes::ifConvert(fn, 14);
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    k.variants.push_back({"List-scheduled", ScheduleMode::Wide, false,
                          1, true, false,
                          [] { return buildVbr(false); },
                          [](Function &fn) {
                              passes::unrollLoopByLabel(fn, "scan", 4);
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    k.variants.push_back({"List-scheduled-predicated",
                          ScheduleMode::Wide, false, 1, true, false,
                          [] { return buildVbr(false); },
                          [](Function &fn) {
                              // Full predication plus unrolling lets
                              // successive coefficients overlap up to
                              // the bit-buffer recurrence.
                              passes::ifConvert(fn);
                              passes::unrollLoopByLabel(fn, "scan", 4);
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    k.variants.push_back({"SW pipelined + comp. pred.",
                          ScheduleMode::Swp, false, 1, true, false,
                          [] { return buildVbr(false); },
                          [](Function &fn) {
                              passes::ifConvert(fn);
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          nullptr});
    k.variants.push_back({"+phase pipelining", ScheduleMode::Swp,
                          false, 1, true, false,
                          [] { return buildVbr(true); },
                          [](Function &fn) {
                              passes::ifConvert(fn);
                              passes::licm(fn);
                              passes::cleanup(fn);
                          },
                          goldenVbrPhase});
    return k;
}

} // namespace vvsp
