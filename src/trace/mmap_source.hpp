/**
 * @file
 * Zero-copy trace source over a memory-mapped trace file — the
 * one reader of the format (the trace cache, `cesp-trace` and the
 * tests all open .trc files here).
 *
 * A file's payload is TraceOp's little-endian in-memory layout
 * verbatim, so once the header and CRC check out the mapping itself
 * is the record array: no decode pass, no private TraceBuffer, no
 * per-record copy. Every process that maps the same cached workload
 * trace shares one page-cache copy — N sweep workers in N processes
 * read the same physical pages. On a big-endian host (selected at
 * build time) open() instead decodes the verified mapping into an
 * owned vector, field by field, and serves that.
 *
 * Integrity: open() refuses to serve a file whose magic (a retired
 * version's magic is LegacyVersion), record size,
 * count-vs-file-size, CRC-32, or record contents are wrong,
 * with a distinct TraceIoStatus for each, so a torn or corrupted
 * cache file can never reach the simulator; callers fall back to
 * regeneration (see core::cachedWorkloadTraceView).
 *
 * Concurrency: the mapping is read-only and MAP_PRIVATE; any number
 * of simulations on any number of threads may read view()
 * concurrently. The source must outlive every view taken from it.
 */

#ifndef CESP_TRACE_MMAP_SOURCE_HPP
#define CESP_TRACE_MMAP_SOURCE_HPP

#include <string>
#include <utility>
#include <vector>

#include "trace/tracefile.hpp"

namespace cesp::trace {

/** A trace file served in place from a read-only mapping. */
class MmapTraceSource
{
  public:
    MmapTraceSource() = default;
    ~MmapTraceSource() { reset(); }

    MmapTraceSource(MmapTraceSource &&other) noexcept
    {
        swap(other);
    }

    MmapTraceSource &
    operator=(MmapTraceSource &&other) noexcept
    {
        if (this != &other) {
            reset();
            swap(other);
        }
        return *this;
    }

    MmapTraceSource(const MmapTraceSource &) = delete;
    MmapTraceSource &operator=(const MmapTraceSource &) = delete;

    /**
     * Map and validate @p path, replacing any current mapping. On
     * failure the source is left empty and the result says exactly
     * what was wrong (LegacyVersion for a file of a retired format
     * version, which must be regenerated).
     */
    TraceIoResult open(const std::string &path);

    /** Unmap; views into this source become invalid. */
    void reset();

    bool mapped() const { return map_base_ != nullptr; }
    size_t size() const { return count_; }
    const std::string &path() const { return path_; }

    /** The records, served directly from the page cache. */
    TraceView view() const { return {records_, count_}; }
    /*implicit*/ operator TraceView() const { return view(); }

  private:
    void
    swap(MmapTraceSource &other) noexcept
    {
        std::swap(records_, other.records_);
        std::swap(count_, other.count_);
        std::swap(map_base_, other.map_base_);
        std::swap(map_bytes_, other.map_bytes_);
        decoded_.swap(other.decoded_);
        std::swap(path_, other.path_);
    }

    const TraceOp *records_ = nullptr;
    size_t count_ = 0;
    void *map_base_ = nullptr;
    size_t map_bytes_ = 0;
    std::vector<TraceOp> decoded_; //!< the records, big-endian hosts only
    std::string path_;
};

} // namespace cesp::trace

#endif // CESP_TRACE_MMAP_SOURCE_HPP
