/**
 * @file
 * Implementation of the FIFO set.
 */

#include "uarch/fifos.hpp"

#include "common/logging.hpp"

namespace cesp::uarch {

FifoSet::FifoSet(int num_clusters, int per_cluster, int depth)
    : num_clusters_(num_clusters), per_cluster_(per_cluster),
      num_fifos_(num_clusters * per_cluster), depth_(depth)
{
    if (num_clusters < 1 || per_cluster < 1 || depth < 1)
        panic("FifoSet: bad shape %dx%dx%d", num_clusters, per_cluster,
              depth);
    size_t n = static_cast<size_t>(num_fifos_);
    fifos_.assign(n, Fifo{});
    entries_.assign(n * static_cast<size_t>(depth), 0);
    free_.assign(static_cast<size_t>(num_clusters),
                 Ring<int>(static_cast<size_t>(per_cluster)));
    clear();
}

void
FifoSet::clear()
{
    for (size_t id = 0; id < fifos_.size(); ++id) {
        fifos_[id] = Fifo{};
        fifos_[id].base =
            static_cast<uint32_t>(id) * static_cast<uint32_t>(depth_);
        fifos_[id].cluster = static_cast<int>(id) / per_cluster_;
    }
    for (int c = 0; c < num_clusters_; ++c) {
        free_[static_cast<size_t>(c)].clear();
        for (int i = 0; i < per_cluster_; ++i)
            free_[static_cast<size_t>(c)].push_back(
                c * per_cluster_ + i);
    }
    current_cluster_ = 0;
    total_entries_ = 0;
}

void
FifoSet::badFifo(int fifo)
{
    panic("FifoSet: bad fifo id %d", fifo);
}

uint64_t
FifoSet::head(int fifo) const
{
    const Fifo &f = at(fifo);
    if (f.count == 0)
        panic("FifoSet: head of empty fifo %d", fifo);
    return entry(f, 0);
}

void
FifoSet::push(int fifo, uint64_t seq)
{
    Fifo &f = at(fifo);
    if (!f.allocated)
        panic("FifoSet: push to unallocated fifo %d", fifo);
    if (f.count >= depth_)
        panic("FifoSet: push to full fifo %d", fifo);
    if (f.count != 0 && f.tail >= seq)
        panic("FifoSet: out-of-order push (fifo %d)", fifo);
    entry(f, f.count) = seq;
    f.tail = seq;
    ++f.count;
    ++total_entries_;
}

void
FifoSet::recycle(int fifo)
{
    Fifo &f = at(fifo);
    f.allocated = false;
    free_[static_cast<size_t>(f.cluster)].push_back(fifo);
}

void
FifoSet::popHead(int fifo)
{
    Fifo &f = at(fifo);
    if (f.count == 0)
        panic("FifoSet: pop of empty fifo %d", fifo);
    if (++f.head == depth_)
        f.head = 0;
    --f.count;
    --total_entries_;
    if (f.count == 0)
        recycle(fifo);
}

void
FifoSet::popHead(int fifo, uint64_t seq)
{
    const Fifo &f = at(fifo);
    if (f.count == 0 || entry(f, 0) != seq)
        panic("FifoSet: pop of seq %llu, not the head of fifo %d",
              (unsigned long long)seq, fifo);
    popHead(fifo);
}

void
FifoSet::remove(int fifo, uint64_t seq)
{
    Fifo &f = at(fifo);
    int i = 0;
    while (i < f.count && entry(f, i) != seq)
        ++i;
    if (i == f.count)
        panic("FifoSet: remove of absent seq from fifo %d", fifo);
    if (i == f.count - 1 && i > 0)
        f.tail = entry(f, i - 1); // the newest leaves: next newest
    // Close the gap by shifting the younger entries toward the head.
    for (; i + 1 < f.count; ++i)
        entry(f, i) = entry(f, i + 1);
    --f.count;
    --total_entries_;
    if (f.count == 0)
        recycle(fifo);
}

int
FifoSet::freeCount(int cluster) const
{
    if (cluster < 0 || cluster >= num_clusters_)
        panic("FifoSet: bad cluster %d", cluster);
    return static_cast<int>(free_[static_cast<size_t>(cluster)].size());
}

} // namespace cesp::uarch
