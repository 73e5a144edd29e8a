/**
 * @file
 * Value-range analysis and 16x16 multiply decomposition onto the 8x8
 * multiplier (paper Sec. 3.4.3).
 *
 * "Since these models only include 8x8 multipliers, this can require
 * as many as 21 issue slots and at least 8 cycles ... for each 16x16
 * multiply. Aggressive numerical analysis can reduce the multiply
 * penalty substantially by using less than complete 16x16
 * multiplies." The range analysis is that numerical analysis: it
 * proves when a factor fits 8 bits (fixed-point coefficients, basis
 * products, pixel data) so the cheap forms apply.
 */

#include "support/logging.hh"
#include "xform/passes.hh"

#include <algorithm>

namespace vvsp
{
namespace passes
{

namespace
{

constexpr std::pair<int, int> kFull{-32768, 32767};

bool
isFull(const std::pair<int, int> &r)
{
    return r.first <= kFull.first && r.second >= kFull.second;
}

std::pair<int, int>
clampRange(long lo, long hi)
{
    if (lo < kFull.first || hi > kFull.second)
        return kFull;
    return {static_cast<int>(lo), static_cast<int>(hi)};
}

} // anonymous namespace

RangeAnalysis::RangeAnalysis(const Function &fn)
    : fn_(fn)
{
    forEachNode(const_cast<Function &>(fn).body, [this](Node &n) {
        if (n.kind() == NodeKind::Block) {
            for (const auto &op : static_cast<const BlockNode &>(n).ops) {
                if (!op.info().hasDst || op.dst == kNoVreg)
                    continue;
                if (multi_def_.count(op.dst))
                    continue;
                auto [it, fresh] = single_def_.emplace(op.dst, &op);
                if (!fresh) {
                    single_def_.erase(it);
                    multi_def_.insert(op.dst);
                }
            }
        } else if (n.kind() == NodeKind::Loop) {
            const auto &loop = static_cast<const LoopNode &>(n);
            if (loop.inductionVar != kNoVreg)
                iv_of_[loop.inductionVar] = &loop;
        }
    });
}

std::pair<int, int>
RangeAnalysis::range(const Operand &o)
{
    switch (o.kind) {
      case Operand::Kind::Imm: {
        int v = static_cast<int16_t>(static_cast<uint16_t>(o.imm));
        return {v, v};
      }
      case Operand::Kind::Reg:
        return rangeOfVreg(o.reg);
      case Operand::Kind::None:
        return {0, 0};
    }
    return kFull;
}

bool
RangeAnalysis::fitsSigned8(const Operand &o)
{
    auto [lo, hi] = range(o);
    return lo >= -128 && hi <= 127;
}

bool
RangeAnalysis::fitsUnsigned8(const Operand &o)
{
    auto [lo, hi] = range(o);
    return lo >= 0 && hi <= 255;
}

std::pair<int, int>
RangeAnalysis::rangeOfVreg(Vreg v)
{
    auto memo = memo_.find(v);
    if (memo != memo_.end())
        return memo->second;

    // Induction variables: bounded when the initial value is bounded.
    auto iv = iv_of_.find(v);
    if (iv != iv_of_.end()) {
        const LoopNode &loop = *iv->second;
        if (loop.tripCount >= 1) {
            auto init = range(loop.ivInit);
            if (!isFull(init)) {
                long span = (loop.tripCount - 1) *
                            static_cast<long>(loop.step);
                long lo = init.first + std::min(0L, span);
                long hi = init.second + std::max(0L, span);
                auto r = clampRange(lo, hi);
                memo_[v] = r;
                return r;
            }
        }
        memo_[v] = kFull;
        return kFull;
    }

    if (multi_def_.count(v)) {
        memo_[v] = kFull;
        return kFull;
    }
    auto def = single_def_.find(v);
    if (def == single_def_.end()) {
        memo_[v] = kFull;
        return kFull;
    }
    // Cyclic chains (loop-carried accumulators) widen to full.
    if (!in_progress_.insert(v).second)
        return kFull;
    auto r = rangeOfOp(*def->second);
    in_progress_.erase(v);
    memo_[v] = r;
    return r;
}

std::pair<int, int>
RangeAnalysis::rangeOfOp(const Operation &op)
{
    auto a = [&] { return range(op.src[0]); };
    auto b = [&] { return range(op.src[1]); };
    auto c = [&] { return range(op.src[2]); };
    switch (op.op) {
      case Opcode::Load: {
        const MemBuffer &buf = fn_.buffer(op.buffer);
        return {buf.minValue, buf.maxValue};
      }
      case Opcode::Mov:
        return a();
      case Opcode::Add: {
        auto [al, ah] = a();
        auto [bl, bh] = b();
        return clampRange(static_cast<long>(al) + bl,
                          static_cast<long>(ah) + bh);
      }
      case Opcode::Sub: {
        auto [al, ah] = a();
        auto [bl, bh] = b();
        return clampRange(static_cast<long>(al) - bh,
                          static_cast<long>(ah) - bl);
      }
      case Opcode::Neg: {
        auto [al, ah] = a();
        return clampRange(-static_cast<long>(ah),
                          -static_cast<long>(al));
      }
      case Opcode::Abs: {
        auto [al, ah] = a();
        long m = std::max(std::abs(static_cast<long>(al)),
                          std::abs(static_cast<long>(ah)));
        return clampRange(0, m);
      }
      case Opcode::AbsDiff: {
        auto [al, ah] = a();
        auto [bl, bh] = b();
        long m = std::max(std::abs(static_cast<long>(ah) - bl),
                          std::abs(static_cast<long>(bh) - al));
        return clampRange(0, m);
      }
      case Opcode::Min: {
        auto ra = a(), rb = b();
        return {std::min(ra.first, rb.first),
                std::min(ra.second, rb.second)};
      }
      case Opcode::Max: {
        auto ra = a(), rb = b();
        return {std::max(ra.first, rb.first),
                std::max(ra.second, rb.second)};
      }
      case Opcode::And: {
        auto ra = a(), rb = b();
        // Masking with a non-negative value bounds the result.
        if (ra.first >= 0 && rb.first >= 0)
            return {0, std::min(ra.second, rb.second)};
        if (rb.first >= 0)
            return {0, rb.second};
        if (ra.first >= 0)
            return {0, ra.second};
        return kFull;
      }
      case Opcode::Or:
      case Opcode::Xor: {
        auto ra = a(), rb = b();
        if (ra.first >= 0 && rb.first >= 0) {
            int hi = std::max(ra.second, rb.second);
            int bits = 0;
            while ((1 << bits) <= hi)
                ++bits;
            return {0, (1 << bits) - 1};
        }
        return kFull;
      }
      case Opcode::Shl: {
        auto ra = a();
        auto rb = b();
        if (rb.first == rb.second && rb.first >= 0 && rb.first < 16) {
            return clampRange(static_cast<long>(ra.first)
                                  << rb.first,
                              static_cast<long>(ra.second)
                                  << rb.first);
        }
        return kFull;
      }
      case Opcode::Sra: {
        auto ra = a();
        auto rb = b();
        if (rb.first == rb.second && rb.first >= 0 && rb.first < 16)
            return {ra.first >> rb.first, ra.second >> rb.first};
        return kFull;
      }
      case Opcode::Shr: {
        auto rb = b();
        if (rb.first == rb.second && rb.first >= 1 && rb.first < 16)
            return {0, 0xffff >> rb.first};
        return kFull;
      }
      case Opcode::CmpEq:
      case Opcode::CmpNe:
      case Opcode::CmpLt:
      case Opcode::CmpLe:
      case Opcode::CmpGt:
      case Opcode::CmpGe:
      case Opcode::CmpLtU:
        return {0, 1};
      case Opcode::Select: {
        auto rb = b(), rc = c();
        return {std::min(rb.first, rc.first),
                std::max(rb.second, rc.second)};
      }
      case Opcode::Mul8:
      case Opcode::MulU8:
      case Opcode::MulUU8:
      case Opcode::Mul16Lo: {
        auto ra = a(), rb = b();
        // Product bounds are exact only when the factors are within
        // the widths the opcode actually multiplies.
        bool ok;
        switch (op.op) {
          case Opcode::Mul8:
            ok = ra.first >= -128 && ra.second <= 127 &&
                 rb.first >= -128 && rb.second <= 127;
            break;
          case Opcode::MulU8:
            ok = ra.first >= 0 && ra.second <= 255 &&
                 rb.first >= -128 && rb.second <= 127;
            break;
          case Opcode::MulUU8:
            ok = ra.first >= 0 && ra.second <= 255 &&
                 rb.first >= 0 && rb.second <= 255;
            break;
          default:
            ok = true;
            break;
        }
        if (!ok)
            return kFull;
        long p1 = static_cast<long>(ra.first) * rb.first;
        long p2 = static_cast<long>(ra.first) * rb.second;
        long p3 = static_cast<long>(ra.second) * rb.first;
        long p4 = static_cast<long>(ra.second) * rb.second;
        return clampRange(std::min({p1, p2, p3, p4}),
                          std::max({p1, p2, p3, p4}));
      }
      case Opcode::Xfer:
        return a();
      default:
        return kFull;
    }
}

namespace
{

/** Append a clone of `proto` (keeps predicate) with new fields. */
Operation &
emit(Function &fn, std::vector<Operation> &out, const Operation &proto,
     Opcode op, Vreg dst, Operand a, Operand b)
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src = {a, b, Operand::none()};
    o.pred = proto.pred;
    o.predSense = proto.predSense;
    o.cluster = proto.cluster;
    o.id = fn.newOpId();
    out.push_back(o);
    return out.back();
}

/** x (16-bit) times c (provably sext8-exact): the 6-op 16x8 form. */
void
emit16x8(Function &fn, std::vector<Operation> &out,
         const Operation &op, Operand x, Operand c)
{
    Vreg xl = fn.newVreg(), xh = fn.newVreg();
    Vreg p0 = fn.newVreg(), p1 = fn.newVreg();
    Vreg s = fn.newVreg();
    emit(fn, out, op, Opcode::And, xl, x, Operand::ofImm(0xff));
    emit(fn, out, op, Opcode::Sra, xh, x, Operand::ofImm(8));
    emit(fn, out, op, Opcode::MulU8, p0, Operand::ofReg(xl), c);
    emit(fn, out, op, Opcode::Mul8, p1, Operand::ofReg(xh), c);
    emit(fn, out, op, Opcode::Shl, s, Operand::ofReg(p1),
         Operand::ofImm(8));
    emit(fn, out, op, Opcode::Add, op.dst, Operand::ofReg(p0),
         Operand::ofReg(s));
}

/** The exact 10-op low-16 form for general factors. */
void
emitGeneral(Function &fn, std::vector<Operation> &out,
            const Operation &op, Operand a, Operand b)
{
    Vreg al = fn.newVreg(), ah = fn.newVreg();
    Vreg bl = fn.newVreg(), bh = fn.newVreg();
    Vreg p0 = fn.newVreg(), p1 = fn.newVreg(), p2 = fn.newVreg();
    Vreg s = fn.newVreg(), s8 = fn.newVreg();
    emit(fn, out, op, Opcode::And, al, a, Operand::ofImm(0xff));
    emit(fn, out, op, Opcode::Sra, ah, a, Operand::ofImm(8));
    emit(fn, out, op, Opcode::And, bl, b, Operand::ofImm(0xff));
    emit(fn, out, op, Opcode::Sra, bh, b, Operand::ofImm(8));
    emit(fn, out, op, Opcode::MulUU8, p0, Operand::ofReg(al),
         Operand::ofReg(bl));
    emit(fn, out, op, Opcode::MulU8, p1, Operand::ofReg(al),
         Operand::ofReg(bh));
    emit(fn, out, op, Opcode::MulU8, p2, Operand::ofReg(bl),
         Operand::ofReg(ah));
    emit(fn, out, op, Opcode::Add, s, Operand::ofReg(p1),
         Operand::ofReg(p2));
    emit(fn, out, op, Opcode::Shl, s8, Operand::ofReg(s),
         Operand::ofImm(8));
    emit(fn, out, op, Opcode::Add, op.dst, Operand::ofReg(p0),
         Operand::ofReg(s8));
}

} // anonymous namespace

void
decomposeMultiplies(Function &fn, const LoweringTarget &target)
{
    if (target.mul16)
        return;
    // Decide every multiply's lowering BEFORE rewriting any block:
    // the range analysis holds pointers into the op vectors that the
    // rewrite below replaces.
    struct Fits
    {
        bool a_s8, b_s8, a_u8, b_u8;
    };
    std::map<int, Fits> decision;
    {
        RangeAnalysis ranges(fn);
        forEachBlock(fn, [&](BlockNode &block) {
            for (const auto &op : block.ops) {
                if (op.op != Opcode::Mul16Lo)
                    continue;
                decision[op.id] =
                    Fits{ranges.fitsSigned8(op.src[0]),
                         ranges.fitsSigned8(op.src[1]),
                         ranges.fitsUnsigned8(op.src[0]),
                         ranges.fitsUnsigned8(op.src[1])};
            }
        });
    }

    forEachBlock(fn, [&fn, &decision](BlockNode &block) {
        std::vector<Operation> out;
        out.reserve(block.ops.size());
        for (const auto &op : block.ops) {
            if (op.op == Opcode::Mul16Hi) {
                vvsp_fatal("kernel '%s' needs Mul16Hi, which has no "
                           "exact 8x8 decomposition on a datapath "
                           "without 16x16 multipliers; rewrite the "
                           "kernel scale-safe",
                           fn.name.c_str());
            }
            if (op.op != Opcode::Mul16Lo) {
                out.push_back(op);
                continue;
            }
            Operand a = op.src[0], b = op.src[1];
            const Fits &f = decision.at(op.id);
            bool a_s8 = f.a_s8;
            bool b_s8 = f.b_s8;
            bool a_u8 = f.a_u8;
            bool b_u8 = f.b_u8;
            if (a_s8 && b_s8) {
                Operation m = op;
                m.op = Opcode::Mul8;
                out.push_back(m);
            } else if ((a_u8 && b_s8) || (b_u8 && a_s8)) {
                Operation m = op;
                m.op = Opcode::MulU8;
                if (b_u8)
                    std::swap(m.src[0], m.src[1]);
                out.push_back(m);
            } else if (a_u8 && b_u8) {
                Operation m = op;
                m.op = Opcode::MulUU8;
                out.push_back(m);
            } else if (b_s8) {
                emit16x8(fn, out, op, a, b);
            } else if (a_s8) {
                emit16x8(fn, out, op, b, a);
            } else {
                emitGeneral(fn, out, op, a, b);
            }
        }
        block.ops = std::move(out);
    });
    fn.renumberOps();
}

} // namespace passes
} // namespace vvsp
