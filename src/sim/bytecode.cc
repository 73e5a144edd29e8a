#include "sim/bytecode.hh"

#include <algorithm>
#include <unordered_map>

#include "sim/alu16.hh"
#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** Opcode -> ALU bytecode kind (compile-time table via X-macro). */
bool
aluKind(Opcode op, BcKind &out)
{
    switch (op) {
#define VVSP_BC_MAP(name)                                             \
      case Opcode::name:                                              \
        out = BcKind::k##name;                                        \
        return true;
        VVSP_BC_ALU_OPS(VVSP_BC_MAP)
#undef VVSP_BC_MAP
      default:
        return false;
    }
}

} // anonymous namespace

/** Single-use flattener; owns the in-progress program arrays. */
class BcCompiler
{
  public:
    BcCompiler(const Function &fn, BytecodeProgram &out)
        : fn_(fn), out_(out)
    {
        out_.num_vregs_ = fn.numVregs();
        out_.num_node_ids_ = fn.numNodeIds();
        out_.num_buffers_ = fn.buffers.size();
    }

    void compile()
    {
        compileList(fn_.body);
        emit(BcKind::kHalt);
    }

  private:
    int32_t pc() const
    {
        return static_cast<int32_t>(out_.code_.size());
    }

    BcInst &emit(BcKind kind)
    {
        BcInst inst;
        inst.kind = static_cast<uint8_t>(kind);
        out_.code_.push_back(inst);
        return out_.code_.back();
    }

    /** Regfile index of a deduplicated immediate. */
    uint32_t constIndex(uint16_t value)
    {
        auto it = const_index_.find(value);
        if (it != const_index_.end())
            return it->second;
        uint32_t idx = out_.constBase() +
                       static_cast<uint32_t>(out_.pool_.size());
        out_.pool_.push_back(value);
        const_index_.emplace(value, idx);
        return idx;
    }

    /**
     * Regfile index an operand reads from. Absent operands read the
     * dedicated zero slot (the tree walker's value(None) == 0), so
     * the replay loop never tests the operand kind.
     */
    uint32_t operandIndex(const Operand &o)
    {
        switch (o.kind) {
          case Operand::Kind::Reg:
            vvsp_assert(o.reg < out_.num_vregs_,
                        "bytecode: read of v%u out of range", o.reg);
            return o.reg;
          case Operand::Kind::Imm:
            return constIndex(static_cast<uint16_t>(o.imm));
          case Operand::Kind::None:
            return out_.zeroReg();
        }
        return out_.zeroReg();
    }

    uint32_t dstIndex(Vreg dst)
    {
        vvsp_assert(dst < out_.num_vregs_,
                    "bytecode: write of v%u out of range", dst);
        return dst;
    }

    int32_t nodeIndex(int id)
    {
        vvsp_assert(id >= 0 && id < out_.num_node_ids_,
                    "bytecode: node id %d out of range", id);
        return id;
    }

    void compileList(const NodeList &list)
    {
        for (const auto &n : list)
            compileNode(*n);
    }

    void compileNode(const Node &node)
    {
        switch (node.kind()) {
          case NodeKind::Block:
            compileBlock(static_cast<const BlockNode &>(node));
            return;
          case NodeKind::Loop:
            compileLoop(static_cast<const LoopNode &>(node));
            return;
          case NodeKind::If:
            compileIf(static_cast<const IfNode &>(node));
            return;
        }
    }

    void compileBlock(const BlockNode &block)
    {
        emit(BcKind::kBlockHead).arg = nodeIndex(block.id);
        for (const Operation &op : block.ops) {
            if (op.op == Opcode::Nop)
                continue;
            BcInst inst;
            inst.sense = op.predSense ? 1 : 0;
            inst.pred = op.isPredicated() ? operandIndex(op.pred)
                                          : kNoBcReg;
            BcKind alu;
            if (op.op == Opcode::Load) {
                inst.kind = static_cast<uint8_t>(BcKind::kLoad);
                inst.dst = dstIndex(op.dst);
                inst.a = operandIndex(op.src[0]);
                inst.b = operandIndex(op.src[1]);
                inst.arg = bufferIndex(op.buffer);
            } else if (op.op == Opcode::Store) {
                inst.kind = static_cast<uint8_t>(BcKind::kStore);
                inst.a = operandIndex(op.src[0]);
                inst.b = operandIndex(op.src[1]);
                inst.c = operandIndex(op.src[2]);
                inst.arg = bufferIndex(op.buffer);
            } else if (aluKind(op.op, alu)) {
                inst.kind = static_cast<uint8_t>(alu);
                inst.dst = dstIndex(op.dst);
                inst.a = operandIndex(op.src[0]);
                inst.b = operandIndex(op.src[1]);
                inst.c = operandIndex(op.src[2]);
            } else {
                vvsp_panic("branch op in unlowered IR: %s",
                           op.str().c_str());
            }
            out_.code_.push_back(inst);
        }
    }

    int32_t bufferIndex(int buffer)
    {
        vvsp_assert(buffer >= 0 &&
                        static_cast<size_t>(buffer) <
                            out_.num_buffers_,
                    "bytecode: buffer %d out of range", buffer);
        return buffer;
    }

    void compileLoop(const LoopNode &loop)
    {
        uint16_t slot = static_cast<uint16_t>(out_.loops_.size());
        vvsp_assert(out_.loops_.size() < 0xffff,
                    "bytecode: too many loops");
        BcLoopInfo info;
        info.tripCount = static_cast<uint64_t>(loop.tripCount);
        info.nodeId = nodeIndex(loop.id);
        if (loop.inductionVar != kNoVreg)
            info.ivReg = dstIndex(loop.inductionVar);
        info.ivInitIdx = operandIndex(loop.ivInit);
        info.step = static_cast<uint16_t>(loop.step);
        out_.loops_.push_back(info);

        emit(BcKind::kLoopEnter).slot = slot;
        int32_t head_pc = pc();
        emit(BcKind::kLoopHead).slot = slot;
        compileList(loop.body);
        emit(BcKind::kLoopBack).slot = slot;

        out_.loops_[slot].headPc = head_pc;
        out_.loops_[slot].exitPc = pc();
    }

    void compileIf(const IfNode &iff)
    {
        size_t head = static_cast<size_t>(pc());
        {
            BcInst &inst = emit(BcKind::kIfHead);
            inst.a = operandIndex(iff.cond);
            inst.sense = iff.sense ? 1 : 0;
            inst.dst = static_cast<uint32_t>(nodeIndex(iff.id));
        }
        compileList(iff.thenBody);
        size_t join = static_cast<size_t>(pc());
        emit(BcKind::kJump);
        out_.code_[head].arg = pc(); // else arm starts here.
        compileList(iff.elseBody);
        out_.code_[join].arg = pc(); // both arms rejoin here.
    }

    const Function &fn_;
    BytecodeProgram &out_;
    std::unordered_map<uint16_t, uint32_t> const_index_;
};

BytecodeProgram::BytecodeProgram(const Function &fn)
{
    BcCompiler compiler(fn, *this);
    compiler.compile();
}

BytecodeEngine::BytecodeEngine(const Function &fn) : prog_(fn) {}

uint16_t
BytecodeEngine::regValue(Vreg r) const
{
    vvsp_assert(r < prog_.numVregs(),
                "regValue of v%u out of range", r);
    return regs_[r];
}

namespace
{

/** Raw view of one MemoryImage buffer for unchecked-index access. */
struct BufSpan
{
    uint16_t *data;
    uint32_t size;
};

} // anonymous namespace

// Threaded dispatch: computed goto (a GCC/Clang extension, which
// every supported compiler has) keeps one indirect branch per
// handler, better-predicted than a shared switch branch.
#define VVSP_BC_CASE(name) lbl_##name
#define VVSP_BC_NEXT() goto *labels[ip->kind]

/** Shared predicate guard: nullify and fall through to the next op. */
#define VVSP_BC_PRED_GUARD(inst)                                      \
    if ((inst).pred != kNoBcReg &&                                    \
        (regs[(inst).pred] != 0) !=                                   \
            static_cast<bool>((inst).sense)) {                        \
        ++nullified;                                                  \
        ++ip;                                                         \
        VVSP_BC_NEXT();                                               \
    }

Profile
BytecodeEngine::run(MemoryImage &mem)
{
    const BytecodeProgram &p = prog_;
    Profile profile(p.numNodeIds());

    // Register file: zero the vreg + zero-slot prefix, then preload
    // the constant pool (constants are ordinary read-only slots).
    regs_.assign(p.numRegSlots(), 0);
    std::copy(p.constPool().begin(), p.constPool().end(),
              regs_.begin() + p.constBase());

    const size_t num_loops = p.loops().size();
    loop_iter_.assign(num_loops, 0);
    loop_iv_.assign(num_loops, 0);

    vvsp_assert(mem.numBuffers() >= p.numBuffers(),
                "memory image has %zu buffers, program needs %zu",
                mem.numBuffers(), p.numBuffers());
    std::vector<BufSpan> spans(p.numBuffers());
    for (size_t i = 0; i < p.numBuffers(); ++i) {
        auto &words = mem.bufferWords(static_cast<int>(i));
        spans[i] = {words.data(),
                    static_cast<uint32_t>(words.size())};
    }

    uint16_t *const regs = regs_.data();
    const BufSpan *const bufs = spans.data();
    const BcLoopInfo *const loops = p.loops().data();
    uint64_t *const iters = loop_iter_.data();
    uint16_t *const ivs = loop_iv_.data();
    uint64_t *const block_exec = profile.blockExec.data();
    uint64_t *const loop_entries = profile.loopEntries.data();
    uint64_t *const loop_iters = profile.loopIters.data();
    uint64_t *const if_then = profile.ifThen.data();
    uint64_t *const if_else = profile.ifElse.data();
    uint64_t dynamic = 0;
    uint64_t nullified = 0;

    const BcInst *const code = p.code().data();
    const BcInst *ip = code;

    static const void *const labels[] = {
#define VVSP_BC_LABEL(name) &&lbl_##name,
        VVSP_BC_ALU_OPS(VVSP_BC_LABEL)
        VVSP_BC_LABEL(Load) VVSP_BC_LABEL(Store)
        VVSP_BC_LABEL(BlockHead) VVSP_BC_LABEL(LoopEnter)
        VVSP_BC_LABEL(LoopHead) VVSP_BC_LABEL(LoopBack)
        VVSP_BC_LABEL(Jump) VVSP_BC_LABEL(IfHead)
        VVSP_BC_LABEL(Halt)
#undef VVSP_BC_LABEL
    };
    VVSP_BC_NEXT();

// One handler per ALU opcode: the constant Opcode argument folds the
// alu16::evaluate switch into straight-line code per case.
#define VVSP_BC_ALU_CASE(name)                                        \
    VVSP_BC_CASE(name) : {                                            \
        const BcInst &inst = *ip;                                     \
        VVSP_BC_PRED_GUARD(inst);                                     \
        ++dynamic;                                                    \
        regs[inst.dst] =                                              \
            alu16::evaluate(Opcode::name, regs[inst.a],               \
                            regs[inst.b], regs[inst.c]);              \
        ++ip;                                                         \
        VVSP_BC_NEXT();                                               \
    }
    VVSP_BC_ALU_OPS(VVSP_BC_ALU_CASE)
#undef VVSP_BC_ALU_CASE

    VVSP_BC_CASE(Load) : {
        const BcInst &inst = *ip;
        VVSP_BC_PRED_GUARD(inst);
        ++dynamic;
        const uint32_t addr =
            static_cast<uint16_t>(regs[inst.a] + regs[inst.b]);
        const BufSpan &span = bufs[inst.arg];
        if (addr >= span.size) {
            vvsp_panic("read of word %u beyond buffer %d "
                       "(%u words)",
                       addr, inst.arg, span.size);
        }
        regs[inst.dst] = span.data[addr];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(Store) : {
        const BcInst &inst = *ip;
        VVSP_BC_PRED_GUARD(inst);
        ++dynamic;
        const uint32_t addr =
            static_cast<uint16_t>(regs[inst.b] + regs[inst.c]);
        const BufSpan &span = bufs[inst.arg];
        if (addr >= span.size) {
            vvsp_panic("write of word %u beyond buffer %d "
                       "(%u words)",
                       addr, inst.arg, span.size);
        }
        span.data[addr] = regs[inst.a];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(BlockHead) : {
        ++block_exec[ip->arg];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(LoopEnter) : {
        const uint16_t slot = ip->slot;
        const BcLoopInfo &info = loops[slot];
        ++loop_entries[info.nodeId];
        iters[slot] = 0;
        // Initial induction value is captured once at entry, like
        // the tree walker's iv_base.
        ivs[slot] = regs[info.ivInitIdx];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(LoopHead) : {
        const uint16_t slot = ip->slot;
        const BcLoopInfo &info = loops[slot];
        if (iters[slot] >= info.tripCount) {
            ip = code + info.exitPc;
            VVSP_BC_NEXT();
        }
        if (info.ivReg != kNoBcReg)
            regs[info.ivReg] = ivs[slot];
        ++loop_iters[info.nodeId];
        ++ip;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(LoopBack) : {
        const uint16_t slot = ip->slot;
        ++iters[slot];
        ivs[slot] =
            static_cast<uint16_t>(ivs[slot] + loops[slot].step);
        ip = code + loops[slot].headPc;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(Jump) : {
        ip = code + ip->arg;
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(IfHead) : {
        const BcInst &inst = *ip;
        if ((regs[inst.a] != 0) == static_cast<bool>(inst.sense)) {
            ++if_then[inst.dst];
            ++ip;
        } else {
            ++if_else[inst.dst];
            ip = code + inst.arg;
        }
        VVSP_BC_NEXT();
    }

    VVSP_BC_CASE(Halt) : {
        goto done;
    }

done:
    profile.dynamicOps = dynamic;
    profile.nullifiedOps = nullified;
    return profile;
}

#undef VVSP_BC_PRED_GUARD
#undef VVSP_BC_CASE
#undef VVSP_BC_NEXT

namespace
{

/** FNV-1a accumulator over the function's semantic content. */
struct Fnv64
{
    uint64_t h = 1469598103934665603ull;

    void byte(uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }

    void operand(const Operand &o)
    {
        byte(static_cast<uint8_t>(o.kind));
        if (o.isReg())
            u64(o.reg);
        else if (o.isImm())
            i64(o.imm);
    }
};

void
hashList(Fnv64 &fnv, const NodeList &list);

void
hashNode(Fnv64 &fnv, const Node &node)
{
    fnv.byte(static_cast<uint8_t>(node.kind()));
    fnv.i64(node.id);
    switch (node.kind()) {
      case NodeKind::Block: {
        const auto &block = static_cast<const BlockNode &>(node);
        fnv.u64(block.ops.size());
        for (const Operation &op : block.ops) {
            fnv.byte(static_cast<uint8_t>(op.op));
            fnv.u64(op.dst);
            for (const Operand &src : op.src)
                fnv.operand(src);
            fnv.operand(op.pred);
            fnv.byte(op.predSense ? 1 : 0);
            fnv.i64(op.buffer);
            fnv.i64(op.aliasToken);
            fnv.byte(op.noCarriedAlias ? 1 : 0);
            fnv.i64(op.cluster);
            fnv.i64(op.dstCluster);
        }
        return;
      }
      case NodeKind::Loop: {
        const auto &loop = static_cast<const LoopNode &>(node);
        fnv.i64(loop.tripCount);
        fnv.u64(loop.inductionVar);
        fnv.i64(loop.step);
        fnv.operand(loop.ivInit);
        fnv.u64(loop.boundVreg);
        hashList(fnv, loop.body);
        return;
      }
      case NodeKind::If: {
        const auto &iff = static_cast<const IfNode &>(node);
        fnv.operand(iff.cond);
        fnv.byte(iff.sense ? 1 : 0);
        hashList(fnv, iff.thenBody);
        fnv.byte(0xff); // arm separator.
        hashList(fnv, iff.elseBody);
        return;
      }
    }
}

void
hashList(Fnv64 &fnv, const NodeList &list)
{
    fnv.u64(list.size());
    for (const auto &n : list)
        hashNode(fnv, *n);
}

} // anonymous namespace

uint64_t
functionFingerprint(const Function &fn)
{
    Fnv64 fnv;
    fnv.u64(fn.numVregs());
    fnv.i64(fn.numNodeIds());
    fnv.i64(fn.numOpIds());
    fnv.u64(fn.buffers.size());
    for (const MemBuffer &b : fn.buffers) {
        fnv.i64(b.id);
        // Buffer names are semantic: kernel prepare/golden hooks
        // address buffers by name (bufferIdByName).
        fnv.str(b.name);
        fnv.i64(b.sizeWords);
        fnv.i64(b.cluster);
        fnv.i64(b.bank);
        fnv.i64(b.minValue);
        fnv.i64(b.maxValue);
    }
    hashList(fnv, fn.body);
    return fnv.h;
}

} // namespace vvsp
