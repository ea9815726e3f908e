#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace slinfer
{

void
Summary::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
Summary::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

void
CdfBuilder::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
CdfBuilder::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
CdfBuilder::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    if (p <= 0.0)
        return samples_.front();
    if (p >= 100.0)
        return samples_.back();
    // Linear interpolation between closest ranks.
    double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
CdfBuilder::fractionBelow(double x) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

double
CdfBuilder::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>>
CdfBuilder::cdfAt(const std::vector<double> &xs) const
{
    std::vector<std::pair<double, double>> out;
    out.reserve(xs.size());
    for (double x : xs)
        out.emplace_back(x, fractionBelow(x));
    return out;
}

void
CountCdf::add(int x)
{
    if (x < 0)
        panic("CountCdf: negative sample");
    auto v = static_cast<std::size_t>(x);
    if (v >= counts_.size())
        counts_.resize(v + 1, 0);
    ++counts_[v];
    ++count_;
    sum_ += v;
}

double
CountCdf::valueAtRank(std::size_t rank) const
{
    std::size_t seen = 0;
    std::size_t v = 0;
    while (seen + counts_[v] <= rank)
        seen += counts_[v++];
    return static_cast<double>(v);
}

double
CountCdf::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return valueAtRank(0);
    if (p >= 100.0)
        return valueAtRank(count_ - 1);
    // CdfBuilder::percentile's interpolation, over the same ranks.
    double rank = (p / 100.0) * static_cast<double>(count_ - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, count_ - 1);
    double frac = rank - static_cast<double>(lo);
    return valueAtRank(lo) * (1.0 - frac) + valueAtRank(hi) * frac;
}

double
CountCdf::fractionBelow(double x) const
{
    if (count_ == 0 || x < 0.0)
        return 0.0;
    // A NaN x compares false like this, and upper_bound counts every
    // sample for it too.
    if (!(x < static_cast<double>(counts_.size() - 1)))
        return 1.0;
    std::size_t below = 0;
    for (std::size_t v = 0; v <= static_cast<std::size_t>(x); ++v)
        below += counts_[v];
    return static_cast<double>(below) / static_cast<double>(count_);
}

double
CountCdf::mean() const
{
    if (count_ == 0)
        return 0.0;
    // Every partial sum of integers below 2^53 is exact in a double, so
    // CdfBuilder's running sum equals sum_ whatever its order.
    if (sum_ > (std::uint64_t{1} << 53))
        panic("CountCdf: sample sum exceeds 2^53");
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::vector<std::pair<double, double>>
CountCdf::cdfAt(const std::vector<double> &xs) const
{
    std::vector<std::pair<double, double>> out;
    out.reserve(xs.size());
    for (double x : xs)
        out.emplace_back(x, fractionBelow(x));
    return out;
}

} // namespace slinfer
