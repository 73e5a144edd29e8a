#include "ir/verifier.hh"

#include <unordered_set>

#include "support/logging.hh"

namespace vvsp
{

namespace
{

class Verifier
{
  public:
    explicit Verifier(const Function &fn) : fn_(fn) {}

    std::vector<std::string>
    run()
    {
        walk(fn_.body);
        return std::move(problems_);
    }

  private:
    void
    problem(const std::string &msg)
    {
        problems_.push_back(fn_.name + ": " + msg);
    }

    void
    checkUse(const Operand &o, const Operation &op)
    {
        if (o.isReg() && !defined_.count(o.reg)) {
            problem("use of undefined v" + std::to_string(o.reg) +
                    " in '" + op.str() + "'");
        }
    }

    void
    checkOp(const Operation &op)
    {
        const OpcodeInfo &inf = op.info();
        if (inf.hasDst && op.dst == kNoVreg)
            problem("missing dst in '" + op.str() + "'");
        if (!inf.hasDst && op.dst != kNoVreg)
            problem("unexpected dst in '" + op.str() + "'");
        for (int i = 0; i < 3; ++i) {
            const Operand &s = op.src[static_cast<size_t>(i)];
            bool architected = i < inf.numSrcs;
            // Memory addresses may omit the second component.
            bool optional_addr =
                (op.op == Opcode::Load && i == 1) ||
                (op.op == Opcode::Store && i == 2);
            if (architected && s.isNone() && !optional_addr) {
                problem("missing src" + std::to_string(i) + " in '" +
                        op.str() + "'");
            }
            if (!architected && !s.isNone()) {
                problem("extra src" + std::to_string(i) + " in '" +
                        op.str() + "'");
            }
            if (!s.isNone())
                checkUse(s, op);
        }
        if (inf.isMemory) {
            if (op.buffer < 0 ||
                op.buffer >= static_cast<int>(fn_.buffers.size())) {
                problem("bad buffer in '" + op.str() + "'");
            }
        } else if (op.buffer >= 0) {
            problem("buffer on non-memory op '" + op.str() + "'");
        }
        if (!op.pred.isNone()) {
            if (!op.pred.isReg())
                problem("non-register predicate in '" + op.str() + "'");
            else
                checkUse(op.pred, op);
        }
        if (inf.hasDst)
            defined_.insert(op.dst);
    }

    void
    walk(const NodeList &list)
    {
        for (const auto &n : list) {
            switch (n->kind()) {
              case NodeKind::Block:
                for (const auto &op :
                     static_cast<const BlockNode &>(*n).ops) {
                    checkOp(op);
                }
                break;
              case NodeKind::Loop: {
                const auto &loop = static_cast<const LoopNode &>(*n);
                if (loop.tripCount < 0) {
                    problem("loop '" + loop.label +
                            "' has negative trip count " +
                            std::to_string(loop.tripCount));
                }
                if (loop.ivInit.isReg() &&
                    !defined_.count(loop.ivInit.reg)) {
                    problem("loop '" + loop.label +
                            "' initial induction value v" +
                            std::to_string(loop.ivInit.reg) +
                            " undefined");
                }
                if (loop.ivInit.isReg() && loop.boundVreg == kNoVreg) {
                    problem("pointer loop '" + loop.label +
                            "' needs a precomputed bound register");
                }
                if (loop.boundVreg != kNoVreg &&
                    !defined_.count(loop.boundVreg)) {
                    problem("loop '" + loop.label + "' bound v" +
                            std::to_string(loop.boundVreg) +
                            " undefined");
                }
                if (loop.inductionVar != kNoVreg)
                    defined_.insert(loop.inductionVar);
                walk(loop.body);
                break;
              }
              case NodeKind::If: {
                const auto &iff = static_cast<const IfNode &>(*n);
                if (!iff.cond.isReg() && !iff.cond.isImm())
                    problem("if without a condition");
                walk(iff.thenBody);
                walk(iff.elseBody);
                break;
              }
            }
        }
    }

    const Function &fn_;
    std::unordered_set<Vreg> defined_;
    std::vector<std::string> problems_;
};

} // anonymous namespace

std::vector<std::string>
verify(const Function &fn)
{
    return Verifier(fn).run();
}

void
verifyOrDie(const Function &fn)
{
    auto problems = verify(fn);
    if (!problems.empty()) {
        vvsp_panic("IR verification failed (%zu problems), first: %s",
                   problems.size(), problems.front().c_str());
    }
}

} // namespace vvsp
