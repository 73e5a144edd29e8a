#include "ir/region.hh"

#include <sstream>

namespace vvsp
{

namespace
{

std::string
pad(int indent)
{
    return std::string(static_cast<size_t>(indent) * 2, ' ');
}

std::string
listStr(const NodeList &list, int indent)
{
    std::string s;
    for (const auto &n : list)
        s += n->str(indent);
    return s;
}

} // anonymous namespace

NodePtr
BlockNode::clone() const
{
    auto n = std::make_unique<BlockNode>();
    n->id = id;
    n->label = label;
    n->ops = ops;
    return n;
}

std::string
BlockNode::str(int indent) const
{
    std::ostringstream os;
    os << pad(indent) << "block";
    if (!label.empty())
        os << " '" << label << "'";
    os << " {\n";
    for (const auto &op : ops)
        os << pad(indent + 1) << op.str() << "\n";
    os << pad(indent) << "}\n";
    return os.str();
}

NodePtr
LoopNode::clone() const
{
    auto n = std::make_unique<LoopNode>();
    n->id = id;
    n->label = label;
    n->tripCount = tripCount;
    n->inductionVar = inductionVar;
    n->step = step;
    n->ivInit = ivInit;
    n->boundVreg = boundVreg;
    n->body = cloneList(body);
    return n;
}

std::string
LoopNode::str(int indent) const
{
    std::ostringstream os;
    os << pad(indent) << "loop";
    if (!label.empty())
        os << " '" << label << "'";
    os << " trip=" << tripCount;
    if (inductionVar != kNoVreg)
        os << " iv=v" << inductionVar << " step=" << step;
    os << " {\n" << listStr(body, indent + 1) << pad(indent) << "}\n";
    return os.str();
}

NodePtr
IfNode::clone() const
{
    auto n = std::make_unique<IfNode>();
    n->id = id;
    n->label = label;
    n->cond = cond;
    n->sense = sense;
    n->thenBody = cloneList(thenBody);
    n->elseBody = cloneList(elseBody);
    return n;
}

std::string
IfNode::str(int indent) const
{
    std::ostringstream os;
    os << pad(indent) << "if" << (sense ? " " : " not ") << cond.str()
       << " {\n"
       << listStr(thenBody, indent + 1);
    if (!elseBody.empty()) {
        os << pad(indent) << "} else {\n" << listStr(elseBody, indent + 1);
    }
    os << pad(indent) << "}\n";
    return os.str();
}

NodeList
cloneList(const NodeList &list)
{
    NodeList out;
    out.reserve(list.size());
    for (const auto &n : list)
        out.push_back(n->clone());
    return out;
}

void
forEachNode(const NodeList &list,
            const std::function<void(const Node &)> &fn)
{
    for (const auto &n : list) {
        fn(*n);
        switch (n->kind()) {
          case NodeKind::Loop:
            forEachNode(static_cast<const LoopNode &>(*n).body, fn);
            break;
          case NodeKind::If: {
            const auto &iff = static_cast<const IfNode &>(*n);
            forEachNode(iff.thenBody, fn);
            forEachNode(iff.elseBody, fn);
            break;
          }
          default:
            break;
        }
    }
}

void
forEachNode(NodeList &list, const std::function<void(Node &)> &fn)
{
    for (auto &n : list) {
        fn(*n);
        switch (n->kind()) {
          case NodeKind::Loop:
            forEachNode(static_cast<LoopNode &>(*n).body, fn);
            break;
          case NodeKind::If: {
            auto &iff = static_cast<IfNode &>(*n);
            forEachNode(iff.thenBody, fn);
            forEachNode(iff.elseBody, fn);
            break;
          }
          default:
            break;
        }
    }
}

} // namespace vvsp
