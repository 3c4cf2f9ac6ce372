/**
 * @file
 * Implementation of the binary trace file writer. The
 * reader, with all header and payload validation, is
 * MmapTraceSource (mmap_source.cpp).
 */

#include "trace/tracefile.hpp"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/crc32.hpp"

namespace cesp::trace {

namespace {

void
put32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

void
put64(uint8_t *p, uint64_t v)
{
    put32(p, static_cast<uint32_t>(v));
    put32(p + 4, static_cast<uint32_t>(v >> 32));
}

TraceIoResult
fail(TraceIoStatus status, std::string detail)
{
    return {status, std::move(detail)};
}

/** A header for @p count records whose payload CRC is @p crc. */
void
buildHeader(uint8_t *header, uint64_t count, uint32_t crc)
{
    std::memset(header, 0, kTraceHeaderBytes);
    std::memcpy(header, kTraceMagic, sizeof(kTraceMagic));
    put64(header + 8, count);
    put32(header + 16, kTraceRecordBytes);
    put32(header + 20, crc);
}

} // namespace

const char *
traceIoStatusName(TraceIoStatus s)
{
    switch (s) {
      case TraceIoStatus::Ok: return "ok";
      case TraceIoStatus::OpenFailed: return "open-failed";
      case TraceIoStatus::ShortWrite: return "short-write";
      case TraceIoStatus::CloseFailed: return "close-failed";
      case TraceIoStatus::RenameFailed: return "rename-failed";
      case TraceIoStatus::ShortRead: return "short-read";
      case TraceIoStatus::EmptyFile: return "empty-file";
      case TraceIoStatus::BadMagic: return "bad-magic";
      case TraceIoStatus::LegacyVersion: return "legacy-version";
      case TraceIoStatus::BadRecordSize: return "bad-record-size";
      case TraceIoStatus::CountMismatch: return "count-mismatch";
      case TraceIoStatus::CrcMismatch: return "crc-mismatch";
      case TraceIoStatus::BadRecord: return "bad-record";
      case TraceIoStatus::MmapFailed: return "mmap-failed";
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
    fill_ = payload_from_ = kTraceHeaderBytes;
    return error_;
}

void
TraceFileWriter::append(const TraceOp &op)
{
    ++count_;
    std::memcpy(chunk_.data() + fill_, &op, kTraceRecordBytes);
    fill_ += kTraceRecordBytes;
    if (fill_ == kChunkBytes)
        writeChunk();
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
        uint8_t header[kTraceHeaderBytes];
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

} // namespace cesp::trace
