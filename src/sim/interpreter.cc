#include "sim/interpreter.hh"

#include <cstdlib>

#include "support/logging.hh"

namespace vvsp
{

Profile::Profile(int num_node_ids)
    : blockExec(static_cast<size_t>(num_node_ids), 0),
      loopEntries(static_cast<size_t>(num_node_ids), 0),
      loopIters(static_cast<size_t>(num_node_ids), 0),
      ifThen(static_cast<size_t>(num_node_ids), 0),
      ifElse(static_cast<size_t>(num_node_ids), 0)
{
}

Interpreter::Interpreter(const Function &fn)
    : fn_(fn), regs_(fn.numVregs(), 0), profile_(fn.numNodeIds())
{
}

uint16_t
operandValue(const Operand &o, const std::vector<uint16_t> &regs)
{
    switch (o.kind) {
      case Operand::Kind::Reg:
        vvsp_assert(o.reg < regs.size(), "read of v%u out of range",
                    o.reg);
        return regs[o.reg];
      case Operand::Kind::Imm:
        return static_cast<uint16_t>(o.imm);
      case Operand::Kind::None:
        return 0;
    }
    return 0;
}

bool
executeOperation(const Operation &op, std::vector<uint16_t> &regs,
                 MemoryImage &mem)
{
    auto value = [&regs](const Operand &o) {
        return operandValue(o, regs);
    };
    if (op.isPredicated() && (value(op.pred) != 0) != op.predSense)
        return false;
    switch (op.op) {
      case Opcode::Load: {
        int addr = static_cast<uint16_t>(value(op.src[0]) +
                                         value(op.src[1]));
        regs.at(op.dst) = mem.read(op.buffer, addr);
        break;
      }
      case Opcode::Store: {
        int addr = static_cast<uint16_t>(value(op.src[1]) +
                                         value(op.src[2]));
        mem.write(op.buffer, addr, value(op.src[0]));
        break;
      }
      case Opcode::Br:
      case Opcode::BrCond:
        vvsp_panic("branch op in unlowered IR: %s", op.str().c_str());
      default:
        regs.at(op.dst) = alu16::evaluate(op.op, value(op.src[0]),
                                          value(op.src[1]),
                                          value(op.src[2]));
    }
    return true;
}

void
Interpreter::runBlock(const BlockNode &block, MemoryImage &mem)
{
    profile_.blockExec[static_cast<size_t>(block.id)]++;
    for (const auto &op : block.ops) {
        if (op.op == Opcode::Nop)
            continue;
        if (executeOperation(op, regs_, mem))
            profile_.dynamicOps++;
        else
            profile_.nullifiedOps++;
    }
}

void
Interpreter::runNode(const Node &node, MemoryImage &mem)
{
    switch (node.kind()) {
      case NodeKind::Block:
        runBlock(static_cast<const BlockNode &>(node), mem);
        return;

      case NodeKind::Loop: {
        const auto &loop = static_cast<const LoopNode &>(node);
        profile_.loopEntries[static_cast<size_t>(loop.id)]++;
        uint16_t iv_base = value(loop.ivInit);
        for (uint64_t iter = 0;
             iter < static_cast<uint64_t>(loop.tripCount); ++iter) {
            if (loop.inductionVar != kNoVreg) {
                regs_.at(loop.inductionVar) = static_cast<uint16_t>(
                    iv_base +
                    iter * static_cast<uint64_t>(loop.step));
            }
            profile_.loopIters[static_cast<size_t>(loop.id)]++;
            runList(loop.body, mem);
        }
        return;
      }

      case NodeKind::If: {
        const auto &iff = static_cast<const IfNode &>(node);
        bool taken = (value(iff.cond) != 0) == iff.sense;
        if (taken) {
            profile_.ifThen[static_cast<size_t>(iff.id)]++;
            runList(iff.thenBody, mem);
        } else {
            profile_.ifElse[static_cast<size_t>(iff.id)]++;
            runList(iff.elseBody, mem);
        }
        return;
      }
    }
}

void
Interpreter::runList(const NodeList &list, MemoryImage &mem)
{
    for (const auto &n : list)
        runNode(*n, mem);
}

Profile
Interpreter::run(MemoryImage &mem)
{
    profile_ = Profile(fn_.numNodeIds());
    regs_.assign(fn_.numVregs(), 0);
    runList(fn_.body, mem);
    return profile_;
}

uint16_t
Interpreter::regValue(Vreg r) const
{
    vvsp_assert(r < regs_.size(), "regValue of v%u out of range", r);
    return regs_[r];
}

} // namespace vvsp
