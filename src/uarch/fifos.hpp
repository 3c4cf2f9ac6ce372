/**
 * @file
 * The FIFO set of the dependence-based microarchitecture (Section 5).
 *
 * A fixed pool of in-order FIFOs is divided among the clusters. Free
 * FIFOs live in per-cluster free pools; allocation follows the paper's
 * two-free-list policy (Section 5.5): requests are satisfied from the
 * *current* cluster's pool, and only when it is empty does the other
 * pool become current — keeping dynamically-adjacent instructions in
 * the same cluster. A FIFO returns to its cluster's pool when its last
 * instruction leaves (Section 5.1).
 *
 * The same structure doubles as the *conceptual* FIFOs of the
 * two-window dispatch-steering organization (Section 5.6.2), where
 * instructions may leave from any position (flexible issue), so
 * removal from the middle is supported alongside head pops.
 *
 * Storage is dense: every FIFO is a fixed-depth ring inside one flat
 * array, and the free pools are rings sized to their cluster's FIFO
 * count, so no operation allocates. Age order across FIFOs is not
 * kept here: the pipeline reads it from the ROB.
 */

#ifndef CESP_UARCH_FIFOS_HPP
#define CESP_UARCH_FIFOS_HPP

#include <cstdint>
#include <vector>

#include "uarch/dyninst.hpp"
#include "uarch/ring.hpp"

namespace cesp::uarch {

/** A pool of per-cluster instruction FIFOs with free-list management. */
class FifoSet
{
  public:
    /**
     * @param num_clusters clusters sharing the pool
     * @param per_cluster FIFOs belonging to each cluster
     * @param depth maximum entries per FIFO
     */
    FifoSet(int num_clusters, int per_cluster, int depth);

    int numFifos() const { return num_fifos_; }
    int depth() const { return depth_; }
    int clusterOf(int fifo) const { return at(fifo).cluster; }

    bool empty(int fifo) const { return at(fifo).count == 0; }

    bool full(int fifo) const { return at(fifo).count >= depth_; }

    /** True if the FIFO is currently allocated (holds instructions). */
    bool allocated(int fifo) const { return at(fifo).allocated; }

    /** Oldest instruction in the FIFO (must be non-empty). */
    uint64_t head(int fifo) const;

    /** True if @p seq is present and is the newest entry. */
    bool
    isTail(int fifo, uint64_t seq) const
    {
        const Fifo &f = at(fifo);
        return f.count != 0 && f.tail == seq;
    }

    /** Append an instruction (FIFO must be allocated and not full). */
    void push(int fifo, uint64_t seq);

    /**
     * Remove the head (in-order issue). If the FIFO becomes empty it
     * is recycled to its cluster's free pool.
     */
    void popHead(int fifo);

    /** popHead, after checking that @p seq is the head (issue of a
     *  buried instruction is a simulator bug). */
    void popHead(int fifo, uint64_t seq);

    /**
     * Remove @p seq from any position (conceptual-FIFO mode).
     * Recycles the FIFO when it empties.
     */
    void remove(int fifo, uint64_t seq);

    /**
     * Allocate a free FIFO using the two-free-list policy: stay on
     * the current cluster while it has free FIFOs, then move on
     * (Section 5.5). Clusters for which @p cluster_ok(cluster)
     * returns false are skipped (used to avoid clusters whose issue
     * window is full). Returns the FIFO id or -1 if none is
     * available.
     */
    template <class ClusterOk>
    int
    allocate(ClusterOk &&cluster_ok)
    {
        for (int step = 0; step < num_clusters_; ++step) {
            int c = current_cluster_ + step;
            if (c >= num_clusters_)
                c -= num_clusters_;
            Ring<int> &pool = free_[static_cast<size_t>(c)];
            if (pool.empty() || !cluster_ok(c))
                continue;
            current_cluster_ = c;
            int id = pool.front();
            pool.pop_front();
            at(id).allocated = true; // free FIFOs are empty
            return id;
        }
        return -1;
    }

    /** Allocate with no cluster restriction. */
    int
    allocate()
    {
        return allocate([](int) { return true; });
    }

    /** Instructions buffered across all FIFOs (O(1), maintained). */
    size_t totalEntries() const { return total_entries_; }

    int freeCount(int cluster) const;

    /** Reset to the all-free state. */
    void clear();

  private:
    /** One FIFO's ring within entries_ (entries [head, head+count),
     *  wrapping at depth_), with the two facts steering asks of it
     *  most kept at hand: its cluster and its newest entry. */
    struct Fifo
    {
        uint32_t base = 0; //!< first slot in entries_
        int cluster = 0;
        int head = 0;
        int count = 0;
        uint64_t tail = kNoSeq; //!< newest entry (valid when count > 0)
        bool allocated = false;
    };

    const Fifo &
    at(int fifo) const
    {
        if (fifo < 0 || fifo >= num_fifos_)
            badFifo(fifo);
        return fifos_[static_cast<size_t>(fifo)];
    }
    Fifo &
    at(int fifo)
    {
        return const_cast<Fifo &>(
            static_cast<const FifoSet *>(this)->at(fifo));
    }
    [[noreturn]] static void badFifo(int fifo);
    /** Storage of the @p i-th oldest entry of @p f. */
    uint64_t &
    entry(const Fifo &f, int i)
    {
        int pos = f.head + i;
        if (pos >= depth_)
            pos -= depth_;
        return entries_[f.base + static_cast<size_t>(pos)];
    }
    uint64_t
    entry(const Fifo &f, int i) const
    {
        return const_cast<FifoSet *>(this)->entry(f, i);
    }
    void recycle(int fifo);

    int num_clusters_;
    int per_cluster_;
    int num_fifos_;
    int depth_;
    int current_cluster_ = 0; //!< two-free-list "current" pointer
    size_t total_entries_ = 0; //!< buffered instructions, all FIFOs
    std::vector<Fifo> fifos_;
    std::vector<uint64_t> entries_;  //!< numFifos x depth_ ring slots
    std::vector<Ring<int>> free_;    //!< per-cluster free pools
};

} // namespace cesp::uarch

#endif // CESP_UARCH_FIFOS_HPP
