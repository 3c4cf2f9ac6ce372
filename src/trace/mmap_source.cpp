/**
 * @file
 * Implementation of the memory-mapped trace source.
 */

#include "trace/mmap_source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "common/logging.hpp"

namespace cesp::trace {

namespace {

TraceIoResult
fail(TraceIoStatus status, std::string detail)
{
    return {status, std::move(detail)};
}

/**
 * close() that never leaks and never double-closes. On Linux the
 * descriptor is released even when close() fails with EINTR (POSIX
 * leaves the state unspecified); retrying the close would race a
 * concurrent open() that reused the slot and could shut someone
 * else's file. So EINTR is accepted silently, and any other failure
 * is reported but not retried — either way the fd is gone.
 */
void
closeFd(int fd, const std::string &path)
{
    if (::close(fd) != 0 && errno != EINTR)
        warn("close(%s): %s", path.c_str(), std::strerror(errno));
}

/**
 * munmap() with failure reporting. A failing munmap means the
 * (base, length) pair does not describe a mapping we own — an
 * accounting bug — and the address space it should have released is
 * lost; surfacing it beats diagnosing a mysterious ENOMEM hours into
 * a sweep.
 */
void
unmapChecked(void *base, size_t bytes, const std::string &path)
{
    if (::munmap(base, bytes) != 0)
        warn("munmap(%s, %zu bytes): %s — address space leaked",
             path.c_str(), bytes, std::strerror(errno));
}

} // namespace

void
MmapTraceSource::reset()
{
    if (map_base_)
        unmapChecked(map_base_, map_bytes_, path_);
    map_base_ = nullptr;
    map_bytes_ = 0;
    records_ = nullptr;
    count_ = 0;
    path_.clear();
}

TraceIoResult
MmapTraceSource::open(const std::string &path)
{
    reset();

    if constexpr (std::endian::native != std::endian::little) {
        // The zero-copy contract is "the bytes on disk are the
        // records in memory", which only holds on little-endian
        // hosts; big-endian callers must use the buffered loader.
        return fail(TraceIoStatus::Unsupported,
                    path + ": zero-copy mmap requires little-endian");
    }

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail(TraceIoStatus::OpenFailed,
                    path + ": cannot open for mapping");

    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        closeFd(fd, path);
        return fail(TraceIoStatus::OpenFailed, path + ": fstat failed");
    }
    size_t file_bytes = static_cast<size_t>(st.st_size);
    if (file_bytes == 0) {
        closeFd(fd, path);
        // Zero length is a torn create, not a truncated trace — and
        // mmap of length 0 is EINVAL anyway, so it must be rejected
        // before the map attempt.
        return fail(TraceIoStatus::EmptyFile,
                    path + ": zero-length file");
    }
    if (file_bytes < kTraceV2HeaderBytes) {
        closeFd(fd, path);
        // A file too short even for a v1 header has no magic to
        // trust; report truncation either way.
        return fail(TraceIoStatus::ShortRead,
                    path + ": file shorter than a header");
    }

    // MAP_POPULATE prefaults the whole range in one kernel pass —
    // the CRC verification walks every page immediately anyway, and
    // batched faulting is much cheaper than 4 KB-at-a-time minor
    // faults. It is advisory; fall back silently where unsupported.
#ifdef MAP_POPULATE
    constexpr int kMapFlags = MAP_PRIVATE | MAP_POPULATE;
#else
    constexpr int kMapFlags = MAP_PRIVATE;
#endif
    void *base = ::mmap(nullptr, file_bytes, PROT_READ, kMapFlags,
                        fd, 0);
#ifdef MAP_POPULATE
    if (base == MAP_FAILED)
        base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE,
                      fd, 0);
#endif
    closeFd(fd, path); // the mapping keeps its own reference
    if (base == MAP_FAILED)
        return fail(TraceIoStatus::MmapFailed,
                    path + ": mmap failed");

    const uint8_t *bytes = static_cast<const uint8_t *>(base);
    auto reject = [&](TraceIoResult r) {
        unmapChecked(base, file_bytes, path);
        return r;
    };

    if (TraceIoResult v1 = detail::refuseV1Header(bytes, path); !v1)
        return reject(v1);

    uint64_t count = 0;
    uint32_t crc = 0;
    TraceIoResult hdr =
        detail::parseV2Header(bytes, path, count, crc);
    if (!hdr.ok())
        return reject(hdr);

    // Compare counts, not byte products: a fabricated huge header
    // count must not overflow its way into matching the file size.
    uint64_t payload_bytes = file_bytes - kTraceV2HeaderBytes;
    if (payload_bytes % kTraceRecordBytes != 0 ||
        count != payload_bytes / kTraceRecordBytes)
        return reject(fail(
            TraceIoStatus::CountMismatch,
            path + ": " + std::to_string(file_bytes) +
                " bytes does not match header count " +
                std::to_string(count)));

    TraceIoResult payload = detail::verifyV2Payload(
        bytes + kTraceV2HeaderBytes, count, crc, path);
    if (!payload.ok())
        return reject(payload);

    map_base_ = base;
    map_bytes_ = file_bytes;
    records_ = reinterpret_cast<const TraceOp *>(
        bytes + kTraceV2HeaderBytes);
    count_ = static_cast<size_t>(count);
    path_ = path;
    return traceIoOk();
}

} // namespace cesp::trace
