/**
 * @file
 * Streaming statistics: summaries, percentile/CDF builders, an exact
 * counting CDF for integer samples and time-weighted averages used by
 * the metrics subsystem and the benches that regenerate the paper's
 * figures.
 */

#ifndef SLINFER_COMMON_STATS_HH
#define SLINFER_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace slinfer
{

/**
 * Streaming mean/min/max/variance accumulator (Welford's algorithm).
 */
class Summary
{
  public:
    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double variance() const;
    double stddev() const;
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Collects raw samples and answers percentile / CDF queries. Sorting is
 * deferred until the first query.
 */
class CdfBuilder
{
  public:
    void add(double x);

    /** Pre-size the sample buffer (reserve-ahead for hot recording). */
    void reserve(std::size_t n) { samples_.reserve(n); }

    std::size_t count() const { return samples_.size(); }

    /** Value at percentile p in [0, 100]; 0 if empty. */
    double percentile(double p) const;

    /** Fraction of samples <= x. */
    double fractionBelow(double x) const;

    /** Mean of all samples. */
    double mean() const;

    /**
     * CDF evaluated at the given x positions, as (x, fraction<=x) pairs.
     * Useful for printing figure series.
     */
    std::vector<std::pair<double, double>>
    cdfAt(const std::vector<double> &xs) const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * CDF of non-negative integer samples kept as one exact count per
 * value, so memory is O(largest sample) rather than O(samples). Every
 * query returns the same bits a CdfBuilder fed the same samples would
 * (DESIGN.md, "Run memory"); mean() requires the sample sum to stay
 * within 2^53, where double addition of integers is exact.
 */
class CountCdf
{
  public:
    void add(int x);

    std::size_t count() const { return count_; }

    /** Value at percentile p in [0, 100]; 0 if empty. */
    double percentile(double p) const;

    /** Fraction of samples <= x. */
    double fractionBelow(double x) const;

    /** Mean of all samples. */
    double mean() const;

    /** CDF at the given x positions, as (x, fraction<=x) pairs. */
    std::vector<std::pair<double, double>>
    cdfAt(const std::vector<double> &xs) const;

    /** Count slots held: the largest sample plus one. */
    std::size_t bins() const { return counts_.size(); }

  private:
    /** The sample at 0-based `rank` in sorted order; rank < count(). */
    double valueAtRank(std::size_t rank) const;

    std::vector<std::size_t> counts_;
    std::size_t count_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace slinfer

#endif // SLINFER_COMMON_STATS_HH
