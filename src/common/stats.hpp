/**
 * @file
 * Small statistics accumulators: scalar counters, ratios, running
 * mean/min/max, and fixed-bucket histograms. These back the simulator
 * statistics (IPC, misprediction rate, bypass frequency, occupancy
 * distributions) reported by the bench harnesses. Histogram is the
 * distribution kind of a cesp::StatGroup (common/metrics.hpp).
 */

#ifndef CESP_COMMON_STATS_HPP
#define CESP_COMMON_STATS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace cesp {

/** Running mean / min / max / count of a sampled quantity. */
class Sample
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        count_ += 1;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = max_ = 0.0;
    }

  private:
    double sum_ = 0.0;
    uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width bucket histogram over [0, buckets*width). Out-of-range
 * samples are NOT folded into the edge buckets: they are counted in
 * dedicated underflow (v < 0) and overflow (v >= buckets*width)
 * counters, so a clamped sample is visible in reports and exports
 * instead of silently corrupting the top bucket. total() counts every
 * sample, in range or not.
 *
 * A growable histogram auto-ranges instead of overflowing: a sample
 * past the last bucket grows the bucket array (amortized, capacity
 * doubling) so no non-negative sample is ever lost to the overflow
 * counter. The logical bucket count is exactly max-seen-bucket + 1 —
 * a function of the samples, not of their order — so two growable
 * histograms fed the same samples in any order compare equal and
 * export identically. reset() shrinks back to the constructed size.
 */
class Histogram
{
  public:
    Histogram(size_t buckets, double width, bool growable = false)
        : counts_(buckets, 0), width_(width), base_buckets_(buckets),
          growable_(growable)
    {
    }

    void
    add(double v)
    {
        ++total_;
        if (v < 0) {
            ++underflow_;
            return;
        }
        addToBucket(static_cast<size_t>(v / width_));
    }

    /**
     * add(v) for a unit-width histogram and an integer v: the
     * simulator's per-cycle samples (entries buffered, instructions
     * issued) are counts, so they index the bucket directly with no
     * round trip through double. The histogram's width must be 1.
     */
    void
    addUnit(size_t v)
    {
        ++total_;
        addToBucket(v);
    }

    uint64_t bucket(size_t i) const { return counts_[i]; }
    size_t buckets() const { return counts_.size(); }
    double width() const { return width_; }
    bool growable() const { return growable_; }
    uint64_t total() const { return total_; }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    /** Samples that landed in a bucket (total minus out-of-range). */
    uint64_t inRange() const { return total_ - underflow_ - overflow_; }

    /** Fraction of ALL samples in bucket i (0 if empty histogram).
     *  Fractions sum to < 1 when any sample was out of range. */
    double
    fraction(size_t i) const
    {
        return total_ ? static_cast<double>(counts_[i]) / total_ : 0.0;
    }

    /** Mean of the bucket midpoints weighted by counts, over the
     *  in-range samples only. */
    double mean() const;

    void reset();

    /** Add another histogram's counts. Width and growability must
     *  match; fatal otherwise. Fixed histograms additionally require
     *  equal bucket counts, while growable ones grow to the larger
     *  shape, so merging differently-grown histograms stays exact. */
    void merge(const Histogram &o);

    /** Subtract an earlier snapshot of this histogram, leaving the
     *  samples recorded since. @p prev must have the same width and
     *  growability and be bucket-wise <= *this; fatal otherwise. */
    void subtract(const Histogram &prev);

    /** Restore from exported parts (used by StatGroup::fromJson).
     *  Recomputes total as in-range + underflow + overflow. A
     *  growable histogram accepts any count-vector size; a fixed one
     *  requires an exact shape match. */
    void restore(std::vector<uint64_t> counts, uint64_t underflow,
                 uint64_t overflow);

    /** Value equality over logical content: width, growability,
     *  out-of-range counters, and bucket-wise counts with missing
     *  trailing buckets treated as zero. */
    bool operator==(const Histogram &o) const;

  private:
    /** Count one in-range-or-overflow sample in bucket @p b. */
    void
    addToBucket(size_t b)
    {
        if (b >= counts_.size()) {
            if (!growable_) {
                ++overflow_;
                return;
            }
            grow(b + 1);
        }
        ++counts_[b];
    }
    void grow(size_t buckets);

    std::vector<uint64_t> counts_;
    double width_;
    size_t base_buckets_;
    bool growable_ = false;
    uint64_t total_ = 0;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
};

} // namespace cesp

#endif // CESP_COMMON_STATS_HPP
