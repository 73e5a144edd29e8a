#include "ir/operation.hh"

#include <sstream>

namespace vvsp
{

std::string
Operand::str() const
{
    switch (kind) {
      case Kind::None:
        return "_";
      case Kind::Reg:
        return std::string("v").append(std::to_string(reg));
      case Kind::Imm:
        return std::string("#").append(std::to_string(imm));
    }
    return "?";
}

std::string
Operation::str() const
{
    std::ostringstream os;
    const OpcodeInfo &inf = info();
    if (inf.hasDst)
        os << "v" << dst << " = ";
    os << inf.name;
    if (buffer >= 0)
        os << ".b" << buffer;
    for (int i = 0; i < inf.numSrcs; ++i) {
        os << (i == 0 ? " " : ", ") << src[static_cast<size_t>(i)].str();
    }
    if (isPredicated())
        os << (predSense ? " if " : " ifnot ") << pred.str();
    return os.str();
}

} // namespace vvsp
