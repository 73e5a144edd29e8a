/**
 * @file
 * IntStat, the integer running statistics behind every
 * obs::StatsRegistry distribution.
 */

#ifndef VVSP_SUPPORT_STATS_HH
#define VVSP_SUPPORT_STATS_HH

#include <cstdint>

namespace vvsp
{

/**
 * Integer-valued running statistics: count / sum / min / max. All
 * fields are integral so that accumulating the same multiset of
 * samples in any order yields bit-identical state - the property the
 * sweep-stats determinism contract needs (double sums are not
 * order-independent).
 */
class IntStat
{
  public:
    void sample(uint64_t v);

    /** Fold another accumulator in (order-independent). */
    void merge(const IntStat &o);

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const;
    uint64_t max() const;
    double mean() const;

  private:
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
};

} // namespace vvsp

#endif // VVSP_SUPPORT_STATS_HH
