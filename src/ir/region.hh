/**
 * @file
 * Structured intermediate representation.
 *
 * A kernel is a tree of regions rather than an arbitrary CFG: video
 * kernels are structured nests of counted loops, and a structured
 * form makes loop unrolling, interchange, and if-conversion direct
 * while still expressing the data-dependent control of the VBR coder
 * (If arms and predication inside counted loops).
 */

#ifndef VVSP_IR_REGION_HH
#define VVSP_IR_REGION_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/operation.hh"

namespace vvsp
{

class Node;
using NodePtr = std::unique_ptr<Node>;
using NodeList = std::vector<NodePtr>;

/** Node kinds of the structured IR tree. */
enum class NodeKind : uint8_t
{
    Block, ///< straight-line (possibly predicated) operations.
    Loop,  ///< counted loop.
    If,    ///< two-armed conditional.
};

/** A node in the structured IR tree. */
class Node
{
  public:
    explicit Node(NodeKind kind) : kind_(kind) {}
    virtual ~Node() = default;

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    NodeKind kind() const { return kind_; }

    /** Unique id within the function (assigned by the builder). */
    int id = -1;
    /** Optional human-readable label. */
    std::string label;

    /** Deep copy (fresh node, same ids; builder can renumber). */
    virtual NodePtr clone() const = 0;

    /** Multi-line printable form. */
    virtual std::string str(int indent = 0) const = 0;

  private:
    NodeKind kind_;
};

/** Straight-line code. */
class BlockNode : public Node
{
  public:
    BlockNode() : Node(NodeKind::Block) {}

    std::vector<Operation> ops;

    NodePtr clone() const override;
    std::string str(int indent = 0) const override;
};

/**
 * A counted loop: it runs exactly tripCount (>= 0) iterations, which
 * the unroller and the frame composer read. The induction variable,
 * when present, reads 0, step, 2*step, ... in successive iterations;
 * its update, compare, and back-edge branch are materialized by the
 * scheduler's loop lowering so that transformations never have to
 * repair them.
 */
class LoopNode : public Node
{
  public:
    LoopNode() : Node(NodeKind::Loop) {}

    /** Static trip count (never negative; the verifier checks). */
    long tripCount = 0;
    /** Induction register, or kNoVreg. */
    Vreg inductionVar = kNoVreg;
    /** Induction step per iteration. */
    int step = 1;
    /**
     * Initial induction value (default 0). A register initial value
     * expresses strength-reduced pointer loops (the induction
     * variable IS the array pointer); such loops must also set
     * boundVreg so the loop-close compare has an end pointer.
     */
    Operand ivInit = Operand::ofImm(0);
    /**
     * Precomputed loop bound (ivInit + tripCount*step), required
     * when ivInit is a register; kNoVreg otherwise.
     */
    Vreg boundVreg = kNoVreg;

    NodeList body;

    NodePtr clone() const override;
    std::string str(int indent = 0) const override;
};

/** Two-armed conditional on a register (or immediate) condition. */
class IfNode : public Node
{
  public:
    IfNode() : Node(NodeKind::If) {}

    Operand cond = Operand::none();
    /** Condition sense: take thenBody when (cond != 0) == sense. */
    bool sense = true;

    NodeList thenBody;
    NodeList elseBody;

    NodePtr clone() const override;
    std::string str(int indent = 0) const override;
};

/** Deep-copy a node list. */
NodeList cloneList(const NodeList &list);

/** Visit every node in a list, pre-order. */
void forEachNode(const NodeList &list,
                 const std::function<void(const Node &)> &fn);

/** Visit every node in a list, pre-order (mutable). */
void forEachNode(NodeList &list, const std::function<void(Node &)> &fn);

} // namespace vvsp

#endif // VVSP_IR_REGION_HH
