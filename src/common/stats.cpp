/**
 * @file
 * Implementation of statistics helpers.
 */

#include "common/stats.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"

namespace cesp {

double
Histogram::mean() const
{
    uint64_t in_range = inRange();
    if (!in_range)
        return 0.0;
    double s = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i)
        s += (static_cast<double>(i) + 0.5) * width_ *
            static_cast<double>(counts_[i]);
    return s / static_cast<double>(in_range);
}

void
Histogram::reset()
{
    counts_.assign(base_buckets_, 0);
    total_ = underflow_ = overflow_ = 0;
}

void
Histogram::grow(size_t buckets)
{
    if (buckets <= counts_.size())
        return;
    // Reserve geometrically so a slowly rising sample stream grows in
    // O(log n) reallocations, but keep the logical size exactly
    // max-seen-bucket + 1 so the export shape is order-independent.
    if (buckets > counts_.capacity())
        counts_.reserve(std::max(buckets, counts_.capacity() * 2));
    counts_.resize(buckets, 0);
}

void
Histogram::merge(const Histogram &o)
{
    if (o.width_ != width_ || o.growable_ != growable_ ||
        (!growable_ && o.counts_.size() != counts_.size()))
        fatal("Histogram::merge: shape mismatch (%zu x %g%s vs %zu x "
              "%g%s)",
              counts_.size(), width_, growable_ ? " growable" : "",
              o.counts_.size(), o.width_,
              o.growable_ ? " growable" : "");
    grow(o.counts_.size());
    for (size_t i = 0; i < o.counts_.size(); ++i)
        counts_[i] += o.counts_[i];
    total_ += o.total_;
    underflow_ += o.underflow_;
    overflow_ += o.overflow_;
}

void
Histogram::subtract(const Histogram &prev)
{
    if (prev.width_ != width_ || prev.growable_ != growable_ ||
        prev.counts_.size() > counts_.size())
        fatal("Histogram::subtract: %zu x %g is not an earlier "
              "snapshot of %zu x %g",
              prev.counts_.size(), prev.width_, counts_.size(), width_);
    for (size_t i = 0; i < prev.counts_.size(); ++i) {
        if (prev.counts_[i] > counts_[i])
            fatal("Histogram::subtract: bucket %zu decreased "
                  "(%llu -> %llu)",
                  i, static_cast<unsigned long long>(prev.counts_[i]),
                  static_cast<unsigned long long>(counts_[i]));
        counts_[i] -= prev.counts_[i];
    }
    if (prev.total_ > total_ || prev.underflow_ > underflow_ ||
        prev.overflow_ > overflow_)
        fatal("Histogram::subtract: totals decreased since snapshot");
    total_ -= prev.total_;
    underflow_ -= prev.underflow_;
    overflow_ -= prev.overflow_;
}

void
Histogram::restore(std::vector<uint64_t> counts, uint64_t underflow,
                   uint64_t overflow)
{
    if (!growable_ && counts.size() != counts_.size())
        fatal("Histogram::restore: %zu counts for a %zu-bucket "
              "histogram", counts.size(), counts_.size());
    counts_ = std::move(counts);
    underflow_ = underflow;
    overflow_ = overflow;
    total_ = std::accumulate(counts_.begin(), counts_.end(),
                             underflow_ + overflow_);
}

bool
Histogram::operator==(const Histogram &o) const
{
    if (width_ != o.width_ || growable_ != o.growable_ ||
        total_ != o.total_ || underflow_ != o.underflow_ ||
        overflow_ != o.overflow_)
        return false;
    // Compare bucket-wise with missing trailing buckets as zero, so a
    // reset-then-refilled histogram equals a fresh one with the same
    // samples even if their array sizes differ.
    size_t n = std::max(counts_.size(), o.counts_.size());
    for (size_t i = 0; i < n; ++i) {
        uint64_t a = i < counts_.size() ? counts_[i] : 0;
        uint64_t b = i < o.counts_.size() ? o.counts_[i] : 0;
        if (a != b)
            return false;
    }
    return true;
}

} // namespace cesp
