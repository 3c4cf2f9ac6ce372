/**
 * @file
 * Implementation of the binary trace file format v2 (the streaming
 * writer, the buffered reader, and the shared validation used by
 * MmapTraceSource). v1 files are recognised by their magic and
 * refused.
 */

#include "trace/tracefile.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/logging.hpp"

namespace cesp::trace {

namespace {

constexpr char kMagicV1[8] = {'C', 'E', 'S', 'P', 'T', 'R', 'C', '1'};
constexpr char kMagicV2[8] = {'C', 'E', 'S', 'P', 'T', 'R', 'C', '2'};
constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

void
put32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t
get32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
        (static_cast<uint32_t>(p[1]) << 8) |
        (static_cast<uint32_t>(p[2]) << 16) |
        (static_cast<uint32_t>(p[3]) << 24);
}

void
put64(uint8_t *p, uint64_t v)
{
    put32(p, static_cast<uint32_t>(v));
    put32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint64_t
get64(const uint8_t *p)
{
    return get32(p) | (static_cast<uint64_t>(get32(p + 4)) << 32);
}

/**
 * True if the record's enum bytes are in range. The CRC proves a v2
 * payload holds the bytes the writer produced, but a writer bug (or
 * a file from a future opcode set) could still smuggle an impossible
 * instruction into the simulator; this is the last gate.
 */
bool
recordValid(const uint8_t *p)
{
    return p[12] < static_cast<uint8_t>(isa::Opcode::NUM_OPCODES) &&
        p[13] <= static_cast<uint8_t>(isa::OpClass::Nop);
}

void
pack(const TraceOp &op, uint8_t *p)
{
    put32(p, op.pc);
    put32(p + 4, op.next_pc);
    put32(p + 8, op.mem_addr);
    p[12] = static_cast<uint8_t>(op.op);
    p[13] = static_cast<uint8_t>(op.cls);
    p[14] = static_cast<uint8_t>(op.dst);
    p[15] = static_cast<uint8_t>(op.src1);
    p[16] = static_cast<uint8_t>(op.src2);
    p[17] = op.mem_size;
    p[18] = op.taken ? 1 : 0;
    p[19] = 0;
}

bool
unpack(const uint8_t *p, TraceOp &op)
{
    if (!recordValid(p))
        return false;
    op.pc = get32(p);
    op.next_pc = get32(p + 4);
    op.mem_addr = get32(p + 8);
    op.op = static_cast<isa::Opcode>(p[12]);
    op.cls = static_cast<isa::OpClass>(p[13]);
    op.dst = static_cast<int8_t>(p[14]);
    op.src1 = static_cast<int8_t>(p[15]);
    op.src2 = static_cast<int8_t>(p[16]);
    op.mem_size = p[17];
    op.taken = p[18] != 0;
    op.pad = 0;
    return true;
}

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

TraceIoResult
fail(TraceIoStatus status, std::string detail)
{
    return {status, std::move(detail)};
}

/** A v2 header for @p count records whose payload CRC is @p crc. */
void
buildHeader(uint8_t *header, uint64_t count, uint32_t crc)
{
    std::memset(header, 0, kTraceV2HeaderBytes);
    std::memcpy(header, kMagicV2, sizeof(kMagicV2));
    put64(header + 8, count);
    put32(header + 16, kTraceRecordBytes);
    put32(header + 20, crc);
}

TraceIoResult
loadTraceV2(std::FILE *f, const uint8_t *header,
            const std::string &path, TraceBuffer &out)
{
    uint64_t count = 0;
    uint32_t crc = 0;
    TraceIoResult hdr = detail::parseV2Header(header, path, count,
                                              crc);
    if (!hdr.ok())
        return hdr;

    // Bound the allocation by the actual file size before trusting
    // the header's count: a fabricated huge count must surface as a
    // truncated-payload failure, not a bad_alloc.
    long here = std::ftell(f);
    if (here >= 0 && std::fseek(f, 0, SEEK_END) == 0) {
        long end = std::ftell(f);
        std::fseek(f, here, SEEK_SET);
        uint64_t avail = end > here
            ? static_cast<uint64_t>(end - here) : 0;
        if (count > avail / kTraceRecordBytes)
            return fail(TraceIoStatus::ShortRead,
                        path + ": v2 payload truncated");
    }

    std::vector<TraceOp> records(count);
    size_t payload_bytes = count * kTraceRecordBytes;
    if (count &&
        std::fread(records.data(), 1, payload_bytes, f) !=
            payload_bytes)
        return fail(TraceIoStatus::ShortRead,
                    path + ": v2 payload truncated");
    if (std::fgetc(f) != EOF)
        return fail(TraceIoStatus::CountMismatch,
                    path + ": bytes beyond the v2 record count");

    if constexpr (kLittleEndian) {
        TraceIoResult ok = detail::verifyV2Payload(
            reinterpret_cast<const uint8_t *>(records.data()), count,
            crc, path);
        if (!ok.ok())
            return ok;
    } else {
        // The file bytes are the little-endian layout; checksum them
        // as read, then decode each record into native order.
        const uint8_t *raw =
            reinterpret_cast<const uint8_t *>(records.data());
        TraceIoResult ok =
            detail::verifyV2Payload(raw, count, crc, path);
        if (!ok.ok())
            return ok;
        std::vector<uint8_t> bytes(raw, raw + payload_bytes);
        for (size_t i = 0; i < count; ++i)
            unpack(bytes.data() + i * kTraceRecordBytes, records[i]);
    }

    TraceBuffer result;
    result.assign(std::move(records));
    out = std::move(result);
    out.rewind();
    return traceIoOk();
}

} // namespace

namespace detail {

TraceIoResult
refuseV1Header(const uint8_t *header, const std::string &path)
{
    if (std::memcmp(header, kMagicV1, sizeof(kMagicV1)) == 0)
        return fail(TraceIoStatus::LegacyVersion,
                    path + ": v1 is no longer supported; regenerate");
    return traceIoOk();
}

TraceIoResult
parseV2Header(const uint8_t *header, const std::string &path,
              uint64_t &count_out, uint32_t &crc_out)
{
    if (std::memcmp(header, kMagicV2, sizeof(kMagicV2)) != 0)
        return fail(TraceIoStatus::BadMagic, path + ": not a v2 header");
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

TraceIoResult
verifyV2Payload(const uint8_t *payload, uint64_t count,
                uint32_t expect_crc, const std::string &path)
{
    // Checksum and record validation interleave in blocks small
    // enough to stay cache-resident, so a multi-hundred-MB payload
    // streams from memory once, not twice. The chained-seed CRC of
    // the blocks equals the one-shot CRC of the whole payload.
    constexpr uint64_t kBlockRecords = 8192; // 160 KB per block
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

} // namespace detail

const char *
traceIoStatusName(TraceIoStatus s)
{
    switch (s) {
      case TraceIoStatus::Ok: return "ok";
      case TraceIoStatus::OpenFailed: return "open-failed";
      case TraceIoStatus::ShortWrite: return "short-write";
      case TraceIoStatus::CloseFailed: return "close-failed";
      case TraceIoStatus::ShortRead: return "short-read";
      case TraceIoStatus::EmptyFile: return "empty-file";
      case TraceIoStatus::BadMagic: return "bad-magic";
      case TraceIoStatus::LegacyVersion: return "legacy-version";
      case TraceIoStatus::BadRecordSize: return "bad-record-size";
      case TraceIoStatus::CountMismatch: return "count-mismatch";
      case TraceIoStatus::CrcMismatch: return "crc-mismatch";
      case TraceIoStatus::BadRecord: return "bad-record";
      case TraceIoStatus::MmapFailed: return "mmap-failed";
      case TraceIoStatus::Unsupported: return "unsupported";
    }
    return "unknown";
}

TraceFileWriter::TraceFileWriter() : chunk_(kChunkBytes) {}

TraceFileWriter::~TraceFileWriter()
{
    if (file_)
        std::fclose(file_);
}

TraceIoResult
TraceFileWriter::open(const std::string &path)
{
    if (file_)
        std::fclose(file_);
    path_ = path;
    count_ = 0;
    crc_ = 0;
    error_ = traceIoOk();
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return error_ = fail(TraceIoStatus::OpenFailed,
                             path + ": cannot open for writing");
    // Unbuffered: each chunk reaches write() whole, at its aligned
    // offset, instead of being split at stdio's buffer edge.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    // Count and CRC are unknown until finish(); until then the
    // header says zero records, which the payload contradicts.
    buildHeader(chunk_.data(), 0, 0);
    fill_ = payload_from_ = kTraceV2HeaderBytes;
    return error_;
}

void
TraceFileWriter::append(const TraceOp &op)
{
    const uint8_t *bytes = reinterpret_cast<const uint8_t *>(&op);
    uint8_t packed[kTraceRecordBytes] = {};
    if constexpr (!kLittleEndian) {
        pack(op, packed);
        bytes = packed;
    }
    ++count_;
    if (kChunkBytes - fill_ > kTraceRecordBytes) {
        std::memcpy(chunk_.data() + fill_, bytes, kTraceRecordBytes);
        fill_ += kTraceRecordBytes;
        return;
    }
    // The record reaches the chunk's end: fill it, write it, and
    // start the next chunk with the rest of the record.
    size_t head = kChunkBytes - fill_;
    std::memcpy(chunk_.data() + fill_, bytes, head);
    fill_ = kChunkBytes;
    writeChunk();
    std::memcpy(chunk_.data(), bytes + head, kTraceRecordBytes - head);
    fill_ = kTraceRecordBytes - head;
}

void
TraceFileWriter::writeChunk()
{
    crc_ = crc32(chunk_.data() + payload_from_, fill_ - payload_from_,
                 crc_);
    if (file_ && error_.ok() &&
        std::fwrite(chunk_.data(), 1, fill_, file_) != fill_)
        error_ = fail(TraceIoStatus::ShortWrite, path_ + ": short write");
    fill_ = payload_from_ = 0;
}

TraceIoResult
TraceFileWriter::finish()
{
    if (!file_)
        return error_.ok() ? fail(TraceIoStatus::OpenFailed,
                                  path_ + ": writer not open")
                           : error_;
    writeChunk();
    std::FILE *f = std::exchange(file_, nullptr);
    if (error_.ok()) {
        uint8_t header[kTraceV2HeaderBytes];
        buildHeader(header, count_, crc_);
        if (std::fseek(f, 0, SEEK_SET) != 0 ||
            std::fwrite(header, 1, sizeof(header), f) != sizeof(header))
            error_ = fail(TraceIoStatus::ShortWrite,
                          path_ + ": short write");
    }
    if (!error_.ok()) {
        std::fclose(f);
        return error_;
    }
    if (std::fclose(f) != 0)
        error_ = fail(TraceIoStatus::CloseFailed,
                      path_ + ": fclose failed");
    return error_;
}

TraceIoResult
saveTrace(const TraceBuffer &buf, const std::string &path)
{
    TraceFileWriter writer;
    if (TraceIoResult opened = writer.open(path); !opened.ok())
        return opened;
    for (const TraceOp &op : buf.ops())
        writer.append(op);
    return writer.finish();
}

TraceIoResult
loadTrace(const std::string &path, TraceBuffer &out)
{
    std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "rb"));
    if (!f)
        return fail(TraceIoStatus::OpenFailed,
                    path + ": cannot open for reading");

    // Read the 8-byte magic and 8-byte record count first, so a
    // 16-byte v1 header is recognised; then the rest of the v2
    // header.
    uint8_t header[kTraceV2HeaderBytes];
    size_t got = std::fread(header, 1, 16, f.get());
    if (got == 0 && std::feof(f.get()))
        // The classic torn-create artifact (open(O_CREAT), then a
        // crash before any write): no magic, no payload, nothing to
        // diagnose as "truncated" — its own status so cache fallback
        // logs say what actually happened.
        return fail(TraceIoStatus::EmptyFile,
                    path + ": zero-length file");
    if (got != 16)
        return fail(TraceIoStatus::ShortRead,
                    path + ": header truncated");
    if (TraceIoResult v1 = detail::refuseV1Header(header, path); !v1)
        return v1;
    if (std::memcmp(header, kMagicV2, sizeof(kMagicV2)) != 0)
        return fail(TraceIoStatus::BadMagic,
                    path + ": unrecognized magic");
    if (std::fread(header + 16, 1, kTraceV2HeaderBytes - 16,
                   f.get()) != kTraceV2HeaderBytes - 16)
        return fail(TraceIoStatus::ShortRead,
                    path + ": v2 header truncated");
    return loadTraceV2(f.get(), header, path, out);
}

} // namespace cesp::trace
