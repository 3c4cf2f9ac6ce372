/**
 * @file
 * Implementation of the memory-mapped trace source: the one reader
 * of the trace file format, with all of its header and payload
 * validation. Files of a retired version are recognised by their
 * magic and refused.
 */

#include "trace/mmap_source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "common/crc32.hpp"
#include "common/logging.hpp"

namespace cesp::trace {

namespace {

constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

TraceIoResult
fail(TraceIoStatus status, std::string detail)
{
    return {status, std::move(detail)};
}

uint32_t
get32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
        (static_cast<uint32_t>(p[1]) << 8) |
        (static_cast<uint32_t>(p[2]) << 16) |
        (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t
get64(const uint8_t *p)
{
    return get32(p) | (static_cast<uint64_t>(get32(p + 4)) << 32);
}

/**
 * True if the record's enum bytes are in range. The CRC proves a
 * payload holds the bytes the writer produced, but a writer bug (or
 * a file from a future opcode set) could still smuggle an impossible
 * instruction into the simulator; this is the last gate.
 */
bool
recordValid(const uint8_t *p)
{
    return p[8] < static_cast<uint8_t>(isa::Opcode::NUM_OPCODES) &&
        p[9] <= static_cast<uint8_t>(isa::OpClass::Nop);
}

/** Decode one verified little-endian record into native order. */
void
unpack(const uint8_t *p, TraceOp &op)
{
    op.pc = get32(p);
    op.mem_addr = get32(p + 4);
    op.op = static_cast<isa::Opcode>(p[8]);
    op.cls = static_cast<isa::OpClass>(p[9]);
    op.dst = static_cast<int8_t>(p[10]);
    op.src1 = static_cast<int8_t>(p[11]);
    op.src2 = static_cast<int8_t>(p[12]);
    op.mem_size = p[13];
    op.taken = p[14] != 0;
    op.pad = 0;
}

/**
 * Validate a header (magic, record size) and extract the record
 * count and payload CRC. The magic of every retired version —
 * "CESPTRC1" up to the version before ours — is LegacyVersion, not a
 * foreign file.
 */
TraceIoResult
parseHeader(const uint8_t *header, const std::string &path,
            uint64_t &count_out, uint32_t &crc_out)
{
    constexpr size_t kVersionByte = sizeof(kTraceMagic) - 1;
    const char version = static_cast<char>(header[kVersionByte]);
    if (std::memcmp(header, kTraceMagic, kVersionByte) == 0 &&
        version >= '1' && version < kTraceMagic[kVersionByte])
        return fail(TraceIoStatus::LegacyVersion,
                    path + ": v" + version +
                        " is no longer supported; regenerate");
    if (std::memcmp(header, kTraceMagic, sizeof(kTraceMagic)) != 0)
        return fail(TraceIoStatus::BadMagic,
                    path + ": not a v" +
                        std::to_string(kTraceFormatVersion) +
                        " header");
    uint32_t record_bytes = get32(header + 16);
    if (record_bytes != kTraceRecordBytes)
        return fail(TraceIoStatus::BadRecordSize,
                    path + ": record size " +
                        std::to_string(record_bytes) + " != " +
                        std::to_string(kTraceRecordBytes));
    count_out = get64(header + 8);
    crc_out = get32(header + 20);
    return traceIoOk();
}

/**
 * Verify @p count records of raw payload: CRC against the header
 * value, then enum-range validity of every record.
 */
TraceIoResult
verifyPayload(const uint8_t *payload, uint64_t count,
              uint32_t expect_crc, const std::string &path)
{
    // Checksum and record validation interleave in blocks small
    // enough to stay cache-resident, so a multi-hundred-MB payload
    // streams from memory once, not twice. The chained-seed CRC of
    // the blocks equals the one-shot CRC of the whole payload.
    constexpr uint64_t kBlockRecords = 8192; // 128 KB per block
    uint32_t actual = 0;
    uint64_t bad_record = UINT64_MAX;
    for (uint64_t base = 0; base < count; base += kBlockRecords) {
        uint64_t n = std::min(kBlockRecords, count - base);
        actual = crc32(payload + base * kTraceRecordBytes,
                       n * kTraceRecordBytes, actual);
        if (bad_record != UINT64_MAX)
            continue;
        for (uint64_t i = base; i < base + n; ++i) {
            if (!recordValid(payload + i * kTraceRecordBytes)) {
                bad_record = i;
                break;
            }
        }
    }
    // The CRC verdict comes first: if the bytes aren't the writer's
    // bytes, a "record out of range" would blame the wrong layer.
    if (actual != expect_crc)
        return fail(TraceIoStatus::CrcMismatch,
                    path + ": payload CRC " + strprintf("%08x", actual) +
                        " != header CRC " +
                        strprintf("%08x", expect_crc));
    if (bad_record != UINT64_MAX)
        return fail(TraceIoStatus::BadRecord,
                    path + ": record " + std::to_string(bad_record) +
                        " out of range");
    return traceIoOk();
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
    decoded_.clear();
    path_.clear();
}

TraceIoResult
MmapTraceSource::open(const std::string &path)
{
    reset();

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
    if (file_bytes < kTraceHeaderBytes) {
        closeFd(fd, path);
        // A file too short for a header has no magic to trust;
        // report truncation either way.
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

    uint64_t count = 0;
    uint32_t crc = 0;
    TraceIoResult hdr = parseHeader(bytes, path, count, crc);
    if (!hdr.ok())
        return reject(hdr);

    // Compare counts, not byte products: a fabricated huge header
    // count must not overflow its way into matching the file size.
    uint64_t payload_bytes = file_bytes - kTraceHeaderBytes;
    if (payload_bytes % kTraceRecordBytes != 0 ||
        count != payload_bytes / kTraceRecordBytes)
        return reject(fail(
            TraceIoStatus::CountMismatch,
            path + ": " + std::to_string(file_bytes) +
                " bytes does not match header count " +
                std::to_string(count)));

    TraceIoResult payload = verifyPayload(
        bytes + kTraceHeaderBytes, count, crc, path);
    if (!payload.ok())
        return reject(payload);

    map_base_ = base;
    map_bytes_ = file_bytes;
    if constexpr (kLittleEndian) {
        records_ = reinterpret_cast<const TraceOp *>(
            bytes + kTraceHeaderBytes);
    } else {
        // The payload is TraceOp's little-endian layout; decode each
        // verified record into native order.
        decoded_.resize(count);
        for (size_t i = 0; i < decoded_.size(); ++i)
            unpack(bytes + kTraceHeaderBytes + i * kTraceRecordBytes,
                   decoded_[i]);
        records_ = decoded_.data();
    }
    count_ = static_cast<size_t>(count);
    path_ = path;
    return traceIoOk();
}

} // namespace cesp::trace
