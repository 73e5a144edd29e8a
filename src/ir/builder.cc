#include "ir/builder.hh"

#include "support/logging.hh"

namespace vvsp
{

IRBuilder::IRBuilder(std::string name)
{
    fn_.name = std::move(name);
    stack_.push_back(OpenRegion{nullptr, &fn_.body});
}

int
IRBuilder::buffer(const std::string &name, int size_words,
                  int min_value, int max_value)
{
    vvsp_assert(size_words > 0, "buffer '%s' needs a size", name.c_str());
    vvsp_assert(min_value <= max_value, "buffer '%s' range empty",
                name.c_str());
    MemBuffer b;
    b.id = static_cast<int>(fn_.buffers.size());
    b.name = name;
    b.sizeWords = size_words;
    b.cluster = cluster_;
    b.minValue = min_value;
    b.maxValue = max_value;
    fn_.buffers.push_back(b);
    return b.id;
}

NodeList &
IRBuilder::currentList()
{
    vvsp_assert(!stack_.empty(), "builder already finished");
    return *stack_.back().list;
}

BlockNode &
IRBuilder::currentBlock()
{
    NodeList &list = currentList();
    if (list.empty() || list.back()->kind() != NodeKind::Block) {
        auto b = std::make_unique<BlockNode>();
        b->id = fn_.newNodeId();
        list.push_back(std::move(b));
    }
    return static_cast<BlockNode &>(*list.back());
}

Vreg
IRBuilder::emit(Opcode op, Operand s0, Operand s1, Operand s2)
{
    vvsp_assert(opcodeInfo(op).hasDst, "emit() of %s needs emitTo/emitOp",
                opcodeName(op).c_str());
    Vreg dst = fn_.newVreg();
    emitTo(dst, op, s0, s1, s2);
    return dst;
}

void
IRBuilder::emitTo(Vreg dst, Opcode op, Operand s0, Operand s1, Operand s2)
{
    Operation o;
    o.op = op;
    o.dst = opcodeInfo(op).hasDst ? dst : kNoVreg;
    o.src = {s0, s1, s2};
    emitOp(o);
}

void
IRBuilder::emitOp(Operation op)
{
    op.id = fn_.newOpId();
    op.cluster = cluster_;
    currentBlock().ops.push_back(op);
}

Vreg
IRBuilder::load(int buf, Operand base, Operand index, int alias_token,
                bool no_carried_alias)
{
    Operation o;
    o.op = Opcode::Load;
    o.dst = fn_.newVreg();
    o.src = {base, index, Operand::none()};
    o.buffer = buf;
    o.aliasToken = alias_token;
    o.noCarriedAlias = no_carried_alias;
    emitOp(o);
    return o.dst;
}

void
IRBuilder::store(int buf, Operand value, Operand base, Operand index,
                 int alias_token, bool no_carried_alias)
{
    Operation o;
    o.op = Opcode::Store;
    o.src = {value, base, index};
    o.buffer = buf;
    o.aliasToken = alias_token;
    o.noCarriedAlias = no_carried_alias;
    emitOp(o);
}

LoopNode &
IRBuilder::beginLoop(long trip, const std::string &label, int step)
{
    vvsp_assert(trip >= 0, "loop '%s' has negative trip count %ld",
                label.c_str(), trip);
    auto loop = std::make_unique<LoopNode>();
    loop->id = fn_.newNodeId();
    loop->label = label;
    loop->tripCount = trip;
    loop->step = step;
    loop->inductionVar = fn_.newVreg();
    LoopNode *raw = loop.get();
    currentList().push_back(std::move(loop));
    stack_.push_back(OpenRegion{raw, &raw->body});
    return *raw;
}

void
IRBuilder::endLoop()
{
    vvsp_assert(stack_.size() > 1 &&
                    stack_.back().node->kind() == NodeKind::Loop,
                "endLoop without a matching beginLoop");
    stack_.pop_back();
}

void
IRBuilder::beginIf(Operand cond, bool sense)
{
    vvsp_assert(!cond.isNone(), "if needs a condition");
    auto iff = std::make_unique<IfNode>();
    iff->id = fn_.newNodeId();
    iff->cond = cond;
    iff->sense = sense;
    IfNode *raw = iff.get();
    currentList().push_back(std::move(iff));
    stack_.push_back(OpenRegion{raw, &raw->thenBody});
}

void
IRBuilder::beginElse()
{
    vvsp_assert(stack_.size() > 1 &&
                    stack_.back().node->kind() == NodeKind::If &&
                    !stack_.back().inElse,
                "beginElse without an open then-arm");
    auto *iff = static_cast<IfNode *>(stack_.back().node);
    stack_.back().list = &iff->elseBody;
    stack_.back().inElse = true;
}

void
IRBuilder::endIf()
{
    vvsp_assert(stack_.size() > 1 &&
                    stack_.back().node->kind() == NodeKind::If,
                "endIf without a matching beginIf");
    stack_.pop_back();
}

Function
IRBuilder::finish()
{
    vvsp_assert(stack_.size() == 1,
                "finish() with %zu unclosed regions", stack_.size() - 1);
    stack_.clear();
    return std::move(fn_);
}

} // namespace vvsp
