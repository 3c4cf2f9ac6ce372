/**
 * @file
 * Power-of-two ring buffer: the allocation-free queue behind the
 * store queue and the rename and FIFO free lists. (The fetch queue
 * is not one: fetched instructions wait in their ROB slots; see
 * pipeline.hpp.)
 *
 * Indices are masked, never divided. The ring grows by doubling when
 * a push finds it full, so a caller that reserves its bound up front
 * (the free lists) never allocates again, and one without a
 * structural bound (the store queue) allocates only until it reaches
 * its high-water mark.
 */

#ifndef CESP_UARCH_RING_HPP
#define CESP_UARCH_RING_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace cesp::uarch {

/** Smallest power of two >= @p n (1 for n == 0). */
constexpr size_t
ceilPow2(size_t n)
{
    size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** FIFO-ordered ring of T with O(1) indexed access from the front. */
template <class T>
class Ring
{
  public:
    explicit Ring(size_t capacity = 0) { reserve(capacity); }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Element @p i counted from the front (0 = oldest). */
    T &operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &operator[](size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &
    front()
    {
        check();
        return (*this)[0];
    }
    T &
    back()
    {
        check();
        return (*this)[size_ - 1];
    }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            reserve(size_ + 1);
        buf_[(head_ + size_++) & mask_] = std::move(v);
    }

    void
    pop_front()
    {
        check();
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    pop_back()
    {
        check();
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Grow (never shrink) to hold at least @p n elements. */
    void
    reserve(size_t n)
    {
        if (n <= buf_.size())
            return;
        std::vector<T> grown(ceilPow2(n));
        for (size_t i = 0; i < size_; ++i)
            grown[i] = (*this)[i];
        buf_.swap(grown);
        mask_ = buf_.size() - 1;
        head_ = 0;
    }

  private:
    void
    check() const
    {
        if (size_ == 0)
            panic("Ring: access to empty ring");
    }

    std::vector<T> buf_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace cesp::uarch

#endif // CESP_UARCH_RING_HPP
