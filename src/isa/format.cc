#include "isa/format.hh"

#include <algorithm>

namespace vvsp
{

int
bitsFor(unsigned max_value)
{
    int bits = 0;
    while (max_value) {
        ++bits;
        max_value >>= 1;
    }
    return bits;
}

IsaFormat
isaFormatFor(const DatapathConfig &cfg)
{
    IsaFormat fmt;
    fmt.clusters = cfg.clusters;
    fmt.slotsPerCluster = cfg.cluster.issueSlots;
    fmt.opcodeBits = 6;
    fmt.archRegBits =
        std::max(1, bitsFor(unsigned(cfg.cluster.registers - 1)));
    fmt.immBits = 16;
    fmt.clusterBits = std::max(1, bitsFor(unsigned(cfg.clusters - 1)));
    return fmt;
}

} // namespace vvsp
