/**
 * @file
 * Binary trace file I/O. Traces regenerate deterministically from the
 * workload kernels, but emulating a million instructions per
 * (process, workload) pair adds up across the test and bench
 * binaries; a versioned on-disk format lets harnesses share captured
 * traces (see core::cachedWorkloadTraceView's disk cache).
 *
 * The format (v3, "CESPTRC3") is a 32-byte header (magic, record
 * count, record size, CRC-32 of the payload), then the payload —
 * TraceOp's in-memory layout verbatim, 16 bytes per record. Because
 * the file layout IS the memory layout, a file can be memory-mapped
 * and served with zero decode and zero copy (see MmapTraceSource);
 * the CRC lets the reader prove the payload intact before a
 * simulation consumes it.
 *
 * The one reader is MmapTraceSource (mmap_source.hpp); the trace
 * cache, `cesp-trace` and the tests all open files through it.
 *
 * Retired formats are no longer read: v1 ("CESPTRC1", packed
 * records, no checksum) and v2 ("CESPTRC2", 20-byte records that
 * also stored the successor pc). The reader still recognises their
 * magics and returns LegacyVersion, so a stale cache file is
 * regenerated with a clear log line rather than reported as foreign.
 *
 * All I/O reports failures as a TraceIoResult instead of a bare
 * bool: short writes, a failed close (the way a full disk
 * actually surfaces), bad magic, a bad checksum, and a count/size
 * mismatch are distinct outcomes, so callers can log what happened
 * and fall back to regeneration.
 */

#ifndef CESP_TRACE_TRACEFILE_HPP
#define CESP_TRACE_TRACEFILE_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cesp::trace {

/** Why a trace file operation failed (Ok when it didn't). */
enum class TraceIoStatus
{
    Ok,
    OpenFailed,     //!< cannot open the file at all
    ShortWrite,     //!< fwrite wrote fewer bytes than asked
    CloseFailed,    //!< fclose reported an error (buffered data lost)
    ShortRead,      //!< file ends before header/payload does
    EmptyFile,      //!< zero-length file (torn create, not a trace)
    BadMagic,       //!< not a cesp trace file
    LegacyVersion,  //!< retired format: no longer read, regenerate
    BadRecordSize,  //!< header's record size is not ours
    CountMismatch,  //!< header count disagrees with the file size
    CrcMismatch,    //!< payload bytes fail the header checksum
    BadRecord,      //!< a record decodes to an impossible instruction
    MmapFailed,     //!< the mmap syscall itself failed
};

/** Human-readable name of a status (stable, for logs and tests). */
const char *traceIoStatusName(TraceIoStatus s);

/** Outcome of a trace file operation: a status plus logged detail. */
struct TraceIoResult
{
    TraceIoStatus status = TraceIoStatus::Ok;
    std::string detail; //!< path and specifics, for the caller's log

    bool ok() const { return status == TraceIoStatus::Ok; }
    explicit operator bool() const { return ok(); }
};

/** Success-constructing helper. */
inline TraceIoResult
traceIoOk()
{
    return {};
}

/**
 * On-disk layout, shared by TraceFileWriter and MmapTraceSource. The
 * magic's last byte is the format version, so a format change bumps
 * kTraceFormatVersion (and the record size, if it changed); the
 * reader then refuses every older version's magic as LegacyVersion,
 * and the trace cache names its files after the version.
 */
constexpr unsigned kTraceFormatVersion = 3;
constexpr char kTraceMagic[8] = {
    'C', 'E', 'S', 'P', 'T', 'R', 'C',
    static_cast<char>('0' + kTraceFormatVersion)};
constexpr size_t kTraceHeaderBytes = 32;
constexpr size_t kTraceRecordBytes = 16;
static_assert(sizeof(TraceOp) == kTraceRecordBytes,
              "the payload is TraceOp's in-memory layout");

/**
 * Streaming writer: a TraceSink that writes records to a file as
 * they arrive, so a trace of any length is written in constant
 * memory. The header and records form one byte stream, handed to the
 * OS in chunks of kChunkBytes at file offsets that are multiples of
 * kChunkBytes; since the chunk and the header are whole multiples of
 * the record size, no record ever spans two chunks. finish() writes
 * the last chunk and patches the header's record count and running
 * CRC-32C in place. The bytes equal what one saveTrace of the same
 * records writes.
 *
 * Why whole aligned 2 MiB writes: the page cache can then hold the
 * file in 2 MiB folios, and a read-only mapping of it (MmapTraceSource)
 * maps each with a single page-table entry. Small or misaligned writes
 * leave 4 KB pages, which make every later open and every simulation
 * reading the mapping take more faults and TLB misses.
 *
 * append() cannot fail: the first failed write is remembered, later
 * records are dropped, and finish() reports it. Like saveTrace, a
 * finish() that is ok() means every byte reached the OS — short
 * writes and a failed close (the way a full disk surfaces) are
 * ShortWrite and CloseFailed. A writer destroyed without finish()
 * closes its file, leaving a header that no reader accepts as a
 * complete trace.
 */
class TraceFileWriter final : public TraceSink
{
  public:
    static constexpr size_t kChunkBytes = size_t{2} << 20;
    static_assert(kChunkBytes % kTraceRecordBytes == 0 &&
                      kTraceHeaderBytes % kTraceRecordBytes == 0,
                  "append() copies whole records into a chunk");

    TraceFileWriter();
    ~TraceFileWriter() override;

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Create (or truncate) @p path; the header is written with the
     *  first chunk. */
    TraceIoResult open(const std::string &path);

    void append(const TraceOp &op) override;

    /** Write what is buffered, patch the header, and close. */
    TraceIoResult finish();

  private:
    void writeChunk();

    std::FILE *file_ = nullptr;
    std::string path_;
    std::vector<uint8_t> chunk_;
    size_t fill_ = 0;          //!< bytes of chunk_ in use
    size_t payload_from_ = 0;  //!< first payload byte in chunk_
    uint64_t count_ = 0;       //!< records appended
    uint32_t crc_ = 0;         //!< CRC-32C of the payload written so far
    TraceIoResult error_;      //!< first failure; later writes are skipped
};

/**
 * Write a trace to @p path in the current format (one TraceFileWriter
 * pass).
 * The stream is closed before success is reported, so a TraceIoResult
 * with ok() set means every byte reached the OS — a full disk
 * surfaces as ShortWrite or CloseFailed, never as silent success.
 */
TraceIoResult saveTrace(const TraceBuffer &buf,
                        const std::string &path);

} // namespace cesp::trace

#endif // CESP_TRACE_TRACEFILE_HPP
