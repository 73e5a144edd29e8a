/**
 * @file
 * Embedded DSL for constructing kernel IR.
 *
 * The builder maintains a stack of open regions; emit calls append
 * to a trailing block of the innermost open region. Typical use:
 *
 *   IRBuilder b("sad8");
 *   int cur = b.buffer("cur", 64), ref = b.buffer("ref", 64);
 *   auto &row = b.beginLoop(8);
 *   Vreg i = row.inductionVar;
 *   Vreg a = b.load(cur, b.reg(i));
 *   Vreg c = b.load(ref, b.reg(i));
 *   Vreg d = b.sub(b.reg(a), b.reg(c));
 *   ... b.endLoop();
 *   Function f = b.finish();
 */

#ifndef VVSP_IR_BUILDER_HH
#define VVSP_IR_BUILDER_HH

#include <string>
#include <vector>

#include "ir/function.hh"

namespace vvsp
{

/** Region-stack IR builder. */
class IRBuilder
{
  public:
    explicit IRBuilder(std::string name);

    /** Declare a local-memory buffer; returns its id. */
    int buffer(const std::string &name, int size_words,
               int min_value = -32768, int max_value = 32767);

    // ---- operand helpers -------------------------------------------
    static Operand reg(Vreg r) { return Operand::ofReg(r); }
    static Operand imm(int32_t v) { return Operand::ofImm(v); }

    // ---- generic emission ------------------------------------------
    /** Append an op with a fresh destination; returns the dest vreg. */
    Vreg emit(Opcode op, Operand s0 = Operand::none(),
              Operand s1 = Operand::none(), Operand s2 = Operand::none());

    /** Append an op writing an existing vreg (non-SSA update). */
    void emitTo(Vreg dst, Opcode op, Operand s0 = Operand::none(),
                Operand s1 = Operand::none(),
                Operand s2 = Operand::none());

    /** Append a fully-formed operation (advanced use). */
    void emitOp(Operation op);

    /**
     * Cluster context for hand-ganged kernels: subsequently emitted
     * ops (and declared buffers) are assigned to this cluster.
     */
    void setCluster(int cluster) { cluster_ = cluster; }

    // ---- common operation shorthands -------------------------------
    Vreg movi(int32_t v) { return emit(Opcode::Mov, imm(v)); }
    Vreg mov(Operand a) { return emit(Opcode::Mov, a); }
    Vreg add(Operand a, Operand b) { return emit(Opcode::Add, a, b); }
    Vreg sub(Operand a, Operand b) { return emit(Opcode::Sub, a, b); }
    Vreg abs(Operand a) { return emit(Opcode::Abs, a); }
    Vreg min(Operand a, Operand b) { return emit(Opcode::Min, a, b); }
    Vreg max(Operand a, Operand b) { return emit(Opcode::Max, a, b); }
    Vreg band(Operand a, Operand b) { return emit(Opcode::And, a, b); }
    Vreg bor(Operand a, Operand b) { return emit(Opcode::Or, a, b); }
    Vreg shl(Operand a, Operand b) { return emit(Opcode::Shl, a, b); }
    Vreg shr(Operand a, Operand b) { return emit(Opcode::Shr, a, b); }
    Vreg sra(Operand a, Operand b) { return emit(Opcode::Sra, a, b); }
    Vreg mul8(Operand a, Operand b) { return emit(Opcode::Mul8, a, b); }
    Vreg mulu8(Operand a, Operand b) { return emit(Opcode::MulU8, a, b); }
    Vreg cmpEq(Operand a, Operand b) { return emit(Opcode::CmpEq, a, b); }
    Vreg cmpLt(Operand a, Operand b) { return emit(Opcode::CmpLt, a, b); }
    Vreg cmpGe(Operand a, Operand b) { return emit(Opcode::CmpGe, a, b); }
    Vreg select(Operand c, Operand t, Operand f)
    {
        return emit(Opcode::Select, c, t, f);
    }

    /**
     * A full 16x16 multiply producing the low 16 bits. Emitted as
     * Mul16Lo; the multiply-decomposition pass rewrites it into 8x8
     * steps on datapaths without the 16-bit multiplier.
     */
    Vreg mul16(Operand a, Operand b)
    {
        return emit(Opcode::Mul16Lo, a, b);
    }

    // ---- memory ------------------------------------------------------
    /**
     * Load buffer[base + index]; a two-component address uses the
     * complex addressing modes (lowered to an explicit add on simple
     * datapaths).
     */
    Vreg load(int buf, Operand base, Operand index = Operand::none(),
              int alias_token = 0, bool no_carried_alias = false);

    /** Store value to buffer[base + index]. */
    void store(int buf, Operand value, Operand base,
               Operand index = Operand::none(), int alias_token = 0,
               bool no_carried_alias = false);

    // ---- structured control -----------------------------------------
    /**
     * Open a counted loop of `trip` >= 0 iterations; returns the
     * loop node, whose inductionVar reads 0, step, 2*step, ...
     */
    LoopNode &beginLoop(long trip, const std::string &label = "",
                        int step = 1);

    void endLoop();

    /** Open a conditional. */
    void beginIf(Operand cond, bool sense = true);
    /** Switch to the else arm of the innermost open If. */
    void beginElse();
    void endIf();

    /** Finish and return the function (builder becomes empty). */
    Function finish();

  private:
    BlockNode &currentBlock();
    NodeList &currentList();

    struct OpenRegion
    {
        Node *node;       ///< owning node (null for function body).
        NodeList *list;   ///< active sequence within the node.
        bool inElse = false;
    };

    Function fn_;
    std::vector<OpenRegion> stack_;
    int cluster_ = 0;
};

} // namespace vvsp

#endif // VVSP_IR_BUILDER_HH
