#include "support/stats.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vvsp
{

void
IntStat::sample(uint64_t v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
IntStat::merge(const IntStat &o)
{
    if (o.count_ == 0)
        return;
    if (count_ == 0) {
        *this = o;
        return;
    }
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    count_ += o.count_;
    sum_ += o.sum_;
}

uint64_t
IntStat::min() const
{
    vvsp_assert(count_ > 0, "min() of empty IntStat");
    return min_;
}

uint64_t
IntStat::max() const
{
    vvsp_assert(count_ > 0, "max() of empty IntStat");
    return max_;
}

double
IntStat::mean() const
{
    vvsp_assert(count_ > 0, "mean() of empty IntStat");
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

} // namespace vvsp
