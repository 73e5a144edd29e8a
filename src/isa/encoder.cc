#include "isa/encoder.hh"

#include <algorithm>
#include <sstream>

#include "sched/reservation_table.hh"
#include "support/logging.hh"
#include "video/bitstream.hh"

namespace vvsp
{

namespace
{

/** Architectural 16-bit value of an immediate (sign-extended back). */
int32_t
canonicalImm(int32_t imm)
{
    return static_cast<int16_t>(static_cast<uint16_t>(imm));
}

/** FNV-1a 64 accumulator over canonical byte streams. */
struct Fnv64
{
    uint64_t h = 14695981039346656037ull;

    void
    byte(uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    void
    u16(uint16_t v)
    {
        byte(static_cast<uint8_t>(v >> 8));
        byte(static_cast<uint8_t>(v));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v >> 16));
        u16(static_cast<uint16_t>(v));
    }
};

void
hashOperand(Fnv64 &f, const Operand &o)
{
    f.byte(static_cast<uint8_t>(o.kind));
    if (o.isReg())
        f.u32(o.reg);
    else if (o.isImm())
        f.u16(static_cast<uint16_t>(o.imm));
}

/** Encoded operand-kind descriptor (2 bits). */
enum OperandCode : uint32_t
{
    kOperandNone = 0,
    kOperandReg = 1,
    kOperandImm = 2,
};

uint32_t
operandCode(const Operand &o)
{
    switch (o.kind) {
      case Operand::Kind::Reg:
        return kOperandReg;
      case Operand::Kind::Imm:
        return kOperandImm;
      case Operand::Kind::None:
        break;
    }
    return kOperandNone;
}

/**
 * Per-word occupancy map: which program-order op index sits in each
 * issue slot and in the control slot.
 */
struct WordMap
{
    std::vector<int> slotOp; ///< totalSlots entries, -1 = empty.
    int ctrlOp = -1;
};

std::vector<WordMap>
wordMaps(const IsaSection &sec, const IsaFormat &fmt)
{
    std::vector<WordMap> words(static_cast<size_t>(sec.words()));
    for (WordMap &w : words)
        w.slotOp.assign(static_cast<size_t>(fmt.totalSlots()), -1);
    for (size_t i = 0; i < sec.ops.size(); ++i) {
        const PlacedOp &p = sec.placed[i];
        vvsp_assert(p.cycle >= 0, "op %zu at negative cycle %d", i,
                    p.cycle);
        int w = sec.modulo ? p.cycle % sec.ii : p.cycle;
        vvsp_assert(w >= 0 && w < sec.words(),
                    "op %zu maps past word %d of section '%s'", i, w,
                    sec.label.c_str());
        WordMap &word = words[static_cast<size_t>(w)];
        if (p.slot < 0) {
            vvsp_assert(word.ctrlOp < 0,
                        "two control-slot ops in word %d of '%s'", w,
                        sec.label.c_str());
            word.ctrlOp = static_cast<int>(i);
            continue;
        }
        int idx = p.cluster * fmt.slotsPerCluster + p.slot;
        vvsp_assert(idx >= 0 && idx < fmt.totalSlots(),
                    "op %zu slot c%d.s%d outside the word", i,
                    p.cluster, p.slot);
        vvsp_assert(word.slotOp[static_cast<size_t>(idx)] < 0,
                    "slot collision at word %d c%d.s%d of '%s'", w,
                    p.cluster, p.slot, sec.label.c_str());
        word.slotOp[static_cast<size_t>(idx)] = static_cast<int>(i);
    }
    return words;
}

/** Pretty operand for assembly text. */
std::string
operandAsm(const Operand &o)
{
    if (o.isReg())
        return format("v%u", o.reg);
    if (o.isImm())
        return format("#%d", o.imm);
    return "_";
}

} // anonymous namespace

uint64_t
isaOpsHash(const std::vector<Operation> &ops)
{
    Fnv64 f;
    f.u32(static_cast<uint32_t>(ops.size()));
    for (const Operation &op : ops) {
        const OpcodeInfo &info = op.info();
        f.byte(static_cast<uint8_t>(op.op));
        if (info.hasDst)
            f.u32(op.dst);
        for (int i = 0; i < info.numSrcs; ++i)
            hashOperand(f, op.src[static_cast<size_t>(i)]);
        hashOperand(f, op.pred);
        if (op.isPredicated())
            f.byte(op.predSense ? 1 : 0);
        if (info.isMemory)
            f.u32(static_cast<uint32_t>(op.buffer));
        f.byte(static_cast<uint8_t>(op.cluster));
        if (info.fuClass == FuClass::Xbar)
            f.byte(static_cast<uint8_t>(op.dstCluster));
    }
    return f.h;
}

IsaSection
buildSection(const std::string &label,
             const std::vector<Operation> &ops,
             const BlockSchedule &sched, bool width1,
             const MachineModel &machine, const IsaBankOfFn &bank_of)
{
    vvsp_assert(ops.size() == sched.placed.size(),
                "schedule/op count mismatch in '%s'", label.c_str());
    IsaSection sec;
    sec.label = label;
    sec.modulo = sched.isModulo();
    sec.width1 = width1;
    sec.length = sched.length;
    sec.ii = sched.ii;
    sec.stages = sched.stages;
    sec.maxLive = sched.maxLive;
    sec.ops = ops;
    for (Operation &op : sec.ops) {
        for (Operand &s : op.src)
            if (s.isImm())
                s.imm = canonicalImm(s.imm);
        if (op.pred.isImm())
            op.pred.imm = canonicalImm(op.pred.imm);
    }
    sec.opsHash = isaOpsHash(sec.ops);

    sec.placed = sched.placed;
    if (sec.modulo) {
        // The modulo placer records cycles only (slot 0 everywhere),
        // so the section carries witness slots.
        std::vector<int> slots = witnessSlots(ops, sched.placed, sched.ii,
                                              machine, bank_of, width1);
        for (size_t i = 0; i < ops.size(); ++i) {
            sec.placed[i].slot = slots[i];
            int stage = sec.placed[i].cycle / sec.ii;
            vvsp_assert(stage >= 0 && stage < sec.stages,
                        "op %zu stage %d outside %d stages", i, stage,
                        sec.stages);
        }
    }
    return sec;
}

namespace isa_detail
{

SectionWidths
sectionWidths(const IsaSection &sec, const IsaFormat &fmt)
{
    SectionWidths w;
    w.regBits = fmt.archRegBits;
    w.bufBits = 1;
    unsigned max_reg = 0;
    bool any_reg = false;
    auto seeReg = [&](Vreg r) {
        max_reg = std::max(max_reg, r);
        any_reg = true;
    };
    for (const Operation &op : sec.ops) {
        const OpcodeInfo &info = op.info();
        if (info.hasDst)
            seeReg(op.dst);
        for (int i = 0; i < info.numSrcs; ++i)
            if (op.src[static_cast<size_t>(i)].isReg())
                seeReg(op.src[static_cast<size_t>(i)].reg);
        if (op.pred.isReg())
            seeReg(op.pred.reg);
        if (info.isMemory)
            w.bufBits = std::max(
                w.bufBits, bitsFor(static_cast<unsigned>(op.buffer)));
    }
    if (any_reg)
        w.regBits = std::max(w.regBits, bitsFor(max_reg));
    w.stageBits =
        sec.modulo ? bitsFor(static_cast<unsigned>(sec.stages - 1))
                   : 0;
    w.seqBits =
        sec.ops.empty()
            ? 0
            : bitsFor(static_cast<unsigned>(sec.ops.size() - 1));
    return w;
}

int
opPayloadBits(const Operation &op, const IsaFormat &fmt,
              const SectionWidths &w, bool modulo)
{
    const OpcodeInfo &info = op.info();
    int bits = fmt.opcodeBits;
    bits += 2; // predicate kind descriptor.
    if (op.isPredicated())
        bits += 1 + (op.pred.isReg() ? w.regBits : fmt.immBits);
    if (info.hasDst)
        bits += w.regBits;
    for (int i = 0; i < info.numSrcs; ++i) {
        const Operand &s = op.src[static_cast<size_t>(i)];
        bits += 2;
        if (s.isReg())
            bits += w.regBits;
        else if (s.isImm())
            bits += fmt.immBits;
    }
    if (info.isMemory)
        bits += w.bufBits;
    if (info.fuClass == FuClass::Xbar)
        bits += fmt.clusterBits;
    if (modulo)
        bits += w.stageBits;
    return bits;
}

} // namespace isa_detail

SectionStats
sectionStats(const IsaSection &sec, const IsaFormat &fmt)
{
    isa_detail::SectionWidths w =
        isa_detail::sectionWidths(sec, fmt);
    SectionStats st;
    st.words = sec.words();
    st.payloadBits = st.words * fmt.maskBits();
    for (const Operation &op : sec.ops)
        st.payloadBits +=
            isa_detail::opPayloadBits(op, fmt, w, sec.modulo);
    st.bytes = (st.payloadBits + 7) / 8;
    st.nopSlots = st.words * (fmt.totalSlots() + 1) -
                  static_cast<int64_t>(sec.ops.size());
    return st;
}

namespace
{

void
putString(BitWriter &bw, const std::string &s)
{
    vvsp_assert(s.size() < 65536, "string too long to encode");
    bw.put(static_cast<uint32_t>(s.size()), 16);
    for (char c : s)
        bw.put(static_cast<uint8_t>(c), 8);
}

void
putOperand(BitWriter &bw, const Operand &o,
           const isa_detail::SectionWidths &w, const IsaFormat &fmt)
{
    bw.put(operandCode(o), 2);
    if (o.isReg())
        bw.put(o.reg, w.regBits);
    else if (o.isImm())
        bw.put(static_cast<uint16_t>(o.imm), fmt.immBits);
}

void
putOp(BitWriter &bw, const Operation &op, const IsaSection &sec,
      const PlacedOp &p, const isa_detail::SectionWidths &w,
      const IsaFormat &fmt)
{
    const OpcodeInfo &info = op.info();
    bw.put(static_cast<uint32_t>(op.op), fmt.opcodeBits);
    bw.put(operandCode(op.pred), 2);
    if (op.isPredicated()) {
        bw.put(op.predSense ? 1 : 0, 1);
        if (op.pred.isReg())
            bw.put(op.pred.reg, w.regBits);
        else
            bw.put(static_cast<uint16_t>(op.pred.imm), fmt.immBits);
    }
    if (info.hasDst) {
        vvsp_assert(op.dst != kNoVreg, "'%s' needs a destination",
                    info.name);
        bw.put(op.dst, w.regBits);
    }
    for (int i = 0; i < info.numSrcs; ++i)
        putOperand(bw, op.src[static_cast<size_t>(i)], w, fmt);
    if (info.isMemory) {
        vvsp_assert(op.buffer >= 0, "'%s' without a buffer",
                    info.name);
        bw.put(static_cast<uint32_t>(op.buffer), w.bufBits);
    }
    if (info.fuClass == FuClass::Xbar)
        bw.put(static_cast<uint32_t>(op.dstCluster),
               fmt.clusterBits);
    if (sec.modulo)
        bw.put(static_cast<uint32_t>(p.cycle / sec.ii), w.stageBits);
}

} // anonymous namespace

std::vector<uint8_t>
encodeModule(const IsaModule &module)
{
    BitWriter bw;
    for (char c : {'V', 'I', 'S', 'A'})
        bw.put(static_cast<uint8_t>(c), 8);
    bw.put(isa_detail::kIsaBinaryVersion, 16);
    putString(bw, module.machine);
    putString(bw, module.name);
    const IsaFormat &fmt = module.fmt;
    bw.put(static_cast<uint32_t>(fmt.clusters), 8);
    bw.put(static_cast<uint32_t>(fmt.slotsPerCluster), 8);
    bw.put(static_cast<uint32_t>(fmt.opcodeBits), 8);
    bw.put(static_cast<uint32_t>(fmt.archRegBits), 8);
    bw.put(static_cast<uint32_t>(fmt.immBits), 8);
    bw.put(static_cast<uint32_t>(fmt.clusterBits), 8);
    bw.put(static_cast<uint32_t>(module.sections.size()), 16);

    for (const IsaSection &sec : module.sections) {
        isa_detail::SectionWidths w =
            isa_detail::sectionWidths(sec, fmt);
        putString(bw, sec.label);
        uint32_t flags = (sec.modulo ? 1u : 0u) |
                         (sec.width1 ? 2u : 0u);
        bw.put(flags, 8);
        bw.put(static_cast<uint32_t>(sec.ops.size()), 32);
        bw.put(static_cast<uint32_t>(sec.length), 16);
        bw.put(static_cast<uint32_t>(sec.ii), 16);
        bw.put(static_cast<uint32_t>(sec.stages), 16);
        bw.put(static_cast<uint32_t>(sec.maxLive), 16);
        bw.put(static_cast<uint32_t>(sec.opsHash >> 32), 32);
        bw.put(static_cast<uint32_t>(sec.opsHash), 32);
        bw.put(static_cast<uint32_t>(w.regBits), 8);
        bw.put(static_cast<uint32_t>(w.bufBits), 8);
        bw.put(static_cast<uint32_t>(w.stageBits), 8);
        bw.put(static_cast<uint32_t>(w.seqBits), 8);

        std::vector<WordMap> words = wordMaps(sec, fmt);
        std::vector<int> issueOrder;
        issueOrder.reserve(sec.ops.size());
        for (const WordMap &word : words) {
            for (int op_idx : word.slotOp)
                bw.put(op_idx >= 0 ? 1u : 0u, 1);
            bw.put(word.ctrlOp >= 0 ? 1u : 0u, 1);
            for (int op_idx : word.slotOp) {
                if (op_idx < 0)
                    continue;
                size_t i = static_cast<size_t>(op_idx);
                putOp(bw, sec.ops[i], sec, sec.placed[i], w, fmt);
                issueOrder.push_back(op_idx);
            }
            if (word.ctrlOp >= 0) {
                size_t i = static_cast<size_t>(word.ctrlOp);
                putOp(bw, sec.ops[i], sec, sec.placed[i], w, fmt);
                issueOrder.push_back(word.ctrlOp);
            }
        }
        vvsp_assert(issueOrder.size() == sec.ops.size(),
                    "issue enumeration lost ops in '%s'",
                    sec.label.c_str());
        // Program-order side table: within-cycle ordering matters to
        // the sequential replay engines, and the word stream above
        // only preserves issue order. Container metadata, not
        // architectural payload (excluded from code-size stats).
        for (int op_idx : issueOrder)
            bw.put(static_cast<uint32_t>(op_idx), w.seqBits);
    }

    for (char c : {'E', 'N', 'D'})
        bw.put(static_cast<uint8_t>(c), 8);
    bw.flush();

    std::vector<uint8_t> bytes;
    bytes.reserve(bw.words().size() * 2);
    for (uint16_t word : bw.words()) {
        bytes.push_back(static_cast<uint8_t>(word >> 8));
        bytes.push_back(static_cast<uint8_t>(word));
    }
    return bytes;
}

std::string
printAsm(const IsaModule &module)
{
    std::ostringstream os;
    os << ".module \"" << module.name << "\"\n";
    os << ".machine " << module.machine << "\n";
    const IsaFormat &fmt = module.fmt;
    os << ".format clusters=" << fmt.clusters
       << " slots=" << fmt.slotsPerCluster
       << " opcode_bits=" << fmt.opcodeBits
       << " reg_bits=" << fmt.archRegBits
       << " imm_bits=" << fmt.immBits
       << " cluster_bits=" << fmt.clusterBits << "\n";

    for (const IsaSection &sec : module.sections) {
        os << "\n.section \"" << sec.label << "\" kind="
           << (sec.modulo ? "modulo" : "acyclic");
        if (sec.width1)
            os << " width1=1";
        os << " length=" << sec.length;
        if (sec.modulo)
            os << " ii=" << sec.ii << " stages=" << sec.stages;
        os << " maxlive=" << sec.maxLive;
        os << format(" opshash=0x%016llx",
                     static_cast<unsigned long long>(sec.opsHash));
        os << "\n";

        std::vector<WordMap> words = wordMaps(sec, fmt);
        for (size_t wi = 0; wi < words.size(); ++wi) {
            os << ".w " << wi << "\n";
            auto emit = [&](int op_idx, int slot_idx) {
                size_t i = static_cast<size_t>(op_idx);
                const Operation &op = sec.ops[i];
                const OpcodeInfo &info = op.info();
                if (slot_idx < 0)
                    os << "  ctrl: ";
                else
                    os << "  c" << slot_idx / fmt.slotsPerCluster
                       << ".s" << slot_idx % fmt.slotsPerCluster
                       << ": ";
                os << info.name;
                bool first = true;
                auto arg = [&](const std::string &text) {
                    os << (first ? " " : ", ") << text;
                    first = false;
                };
                if (info.hasDst)
                    arg(format("v%u", op.dst));
                for (int s = 0; s < info.numSrcs; ++s)
                    arg(operandAsm(op.src[static_cast<size_t>(s)]));
                if (info.isMemory)
                    os << " b=" << op.buffer;
                if (info.fuClass == FuClass::Xbar)
                    os << " ->c" << op.dstCluster;
                if (op.isPredicated()) {
                    os << " ?" << (op.predSense ? "" : "!")
                       << operandAsm(op.pred);
                }
                if (sec.modulo)
                    os << " s=" << sec.placed[i].cycle / sec.ii;
                os << " @" << op_idx << "\n";
            };
            const WordMap &word = words[wi];
            for (size_t s = 0; s < word.slotOp.size(); ++s)
                if (word.slotOp[s] >= 0)
                    emit(word.slotOp[s], static_cast<int>(s));
            if (word.ctrlOp >= 0)
                emit(word.ctrlOp, -1);
        }
    }
    return os.str();
}

} // namespace vvsp
