/**
 * @file
 * Fault-injection tests of the trace file format and the zero-copy
 * mmap reader: every way a file can be wrong — truncated header,
 * truncated payload, foreign magic, retired v1/v2 magic, flipped
 * payload byte, lying record count, alien record size, impossible
 * opcode — must map to its own TraceIoStatus, and the workload trace
 * cache must recover from each by regenerating. Also proves the mmap
 * view is statistic-exact against TraceBuffer for every machine
 * preset and record-exact for every workload.
 *
 * The whole binary runs against a private CESP_TRACE_CACHE directory
 * (set before main() via a global test environment) so cache tests
 * never touch the user's shared cache.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "trace/mmap_source.hpp"
#include "trace/synthetic.hpp"
#include "trace/tracefile.hpp"
#include "uarch/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using trace::TraceIoStatus;

namespace {

std::filesystem::path g_dir; // private cache + scratch directory

/** Point CESP_TRACE_CACHE at a private directory for this process. */
class PrivateCacheEnv : public ::testing::Environment
{
  public:
    void SetUp() override
    {
        g_dir = std::filesystem::temp_directory_path() /
            strprintf("cesp-tracefile-test-%d", getpid());
        std::filesystem::create_directories(g_dir);
        ASSERT_EQ(setenv("CESP_TRACE_CACHE", g_dir.c_str(), 1), 0);
    }

    void TearDown() override
    {
        core::clearTraceCache(); // unmap before deleting the files
        std::error_code ec;
        std::filesystem::remove_all(g_dir, ec);
    }
};

const ::testing::Environment *const g_env =
    ::testing::AddGlobalTestEnvironment(new PrivateCacheEnv);

std::string
scratchFile(const std::string &name)
{
    return (g_dir / name).string();
}

std::vector<uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

/** Patch a header's CRC field to match the (mutated) payload. */
void
recomputeCrc(std::vector<uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), trace::kTraceHeaderBytes);
    uint32_t c = crc32(bytes.data() + trace::kTraceHeaderBytes,
                       bytes.size() - trace::kTraceHeaderBytes);
    bytes[20] = static_cast<uint8_t>(c);
    bytes[21] = static_cast<uint8_t>(c >> 8);
    bytes[22] = static_cast<uint8_t>(c >> 16);
    bytes[23] = static_cast<uint8_t>(c >> 24);
}

trace::TraceBuffer
sampleTrace(size_t n = 5000, uint64_t seed = 11)
{
    trace::SyntheticParams sp;
    sp.seed = seed;
    return trace::generateSynthetic(sp, n);
}

bool
sameRecords(const trace::TraceView &a, const trace::TraceView &b)
{
    return a.count == b.count &&
        std::memcmp(a.records, b.records,
                    a.count * sizeof(trace::TraceOp)) == 0;
}

/** The reader on one injected corruption: exactly @p status. */
void
expectCorrupt(const std::string &path, TraceIoStatus status)
{
    trace::MmapTraceSource src;
    trace::TraceIoResult opened = src.open(path);
    EXPECT_EQ(opened.status, status) << opened.detail;
    EXPECT_FALSE(opened.detail.empty())
        << "failure must carry logged detail";
    EXPECT_FALSE(src.mapped());
    EXPECT_EQ(src.size(), 0u) << "failed open must serve no records";
}

std::string
fingerprint(const uarch::SimStats &s)
{
    return s.group().toJson();
}

} // namespace

TEST(TraceFileV2, RoundTripPreservesEveryField)
{
    trace::TraceBuffer buf = sampleTrace();
    const std::string path = scratchFile("roundtrip.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());

    trace::MmapTraceSource loaded;
    trace::TraceIoResult r = loaded.open(path);
    ASSERT_TRUE(r.ok()) << r.detail;
    ASSERT_TRUE(sameRecords(buf, loaded));

    // Spot-check the header against the documented layout.
    std::vector<uint8_t> bytes = readAll(path);
    ASSERT_EQ(bytes.size(), trace::kTraceHeaderBytes +
                  buf.size() * trace::kTraceRecordBytes);
    EXPECT_EQ(std::memcmp(bytes.data(), "CESPTRC3", 8), 0);
    EXPECT_EQ(bytes[16], trace::kTraceRecordBytes); // record size
}

TEST(TraceFileV2, EmptyTraceRoundTrips)
{
    trace::TraceBuffer empty;
    const std::string path = scratchFile("empty.trc");
    ASSERT_TRUE(trace::saveTrace(empty, path).ok());
    EXPECT_EQ(readAll(path).size(), trace::kTraceHeaderBytes);

    trace::MmapTraceSource src;
    ASSERT_TRUE(src.open(path).ok());
    EXPECT_EQ(src.size(), 0u);
}

TEST(TraceFileV2, SaveReportsUnwritablePath)
{
    trace::TraceBuffer buf = sampleTrace(100);
    trace::TraceIoResult r =
        trace::saveTrace(buf, (g_dir / "no-such-dir" / "x.trc")
                                  .string());
    EXPECT_EQ(r.status, TraceIoStatus::OpenFailed);
    EXPECT_FALSE(r.detail.empty());
}

namespace {

/**
 * The bytes of @p buf as the one-shot writer laid them out before
 * the streaming writer existed: the 32-byte header (magic, count,
 * record size, CRC-32C of the payload, zero padding), then the raw
 * records.
 */
std::vector<uint8_t>
oneShotV2Bytes(const trace::TraceBuffer &buf)
{
    const auto *payload =
        reinterpret_cast<const uint8_t *>(buf.ops().data());
    const size_t payload_bytes = buf.size() * trace::kTraceRecordBytes;
    std::vector<uint8_t> bytes(trace::kTraceHeaderBytes, 0);
    std::memcpy(bytes.data(), "CESPTRC3", 8);
    auto put = [&](size_t at, uint64_t v, int n) {
        for (int i = 0; i < n; ++i)
            bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
    };
    put(8, buf.size(), 8);
    put(16, trace::kTraceRecordBytes, 4);
    put(20, crc32(payload, payload_bytes), 4);
    bytes.insert(bytes.end(), payload, payload + payload_bytes);
    return bytes;
}

} // namespace

TEST(TraceFileWriter, ByteIdenticalToOneShotLayoutAtChunkEdges)
{
    // k records fill the first chunk exactly (it also holds the
    // header); 2k + 2 fill the second one exactly too.
    constexpr size_t k =
        (trace::TraceFileWriter::kChunkBytes - trace::kTraceHeaderBytes) /
        trace::kTraceRecordBytes;
    for (size_t n : {size_t{0}, size_t{1}, k - 1, k, k + 1, 2 * k + 2}) {
        SCOPED_TRACE(n);
        trace::TraceBuffer buf = sampleTrace(n);
        ASSERT_EQ(buf.size(), n);
        const std::vector<uint8_t> expect = oneShotV2Bytes(buf);

        const std::string streamed = scratchFile("streamed.trc");
        trace::TraceFileWriter writer;
        ASSERT_TRUE(writer.open(streamed).ok());
        for (const trace::TraceOp &op : buf.ops())
            writer.append(op);
        trace::TraceIoResult done = writer.finish();
        ASSERT_TRUE(done.ok()) << done.detail;
        EXPECT_EQ(readAll(streamed), expect);

        const std::string saved = scratchFile("saved.trc");
        ASSERT_TRUE(trace::saveTrace(buf, saved).ok());
        EXPECT_EQ(readAll(saved), expect);

        trace::MmapTraceSource src;
        trace::TraceIoResult opened = src.open(streamed);
        ASSERT_TRUE(opened.ok()) << opened.detail;
        EXPECT_TRUE(sameRecords(buf, src.view()));
    }
}

TEST(TraceFileWriter, ReportsOpenAndWriteFailures)
{
    trace::TraceFileWriter missing;
    EXPECT_EQ(missing.open((g_dir / "no-such-dir" / "x.trc").string())
                  .status,
              TraceIoStatus::OpenFailed);
    missing.append(trace::TraceOp{}); // dropped, never a crash
    EXPECT_EQ(missing.finish().status, TraceIoStatus::OpenFailed);

    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    // A full device accepts the open and fails a later write or the
    // close; whichever it is, the writer must say so.
    const size_t two_chunks =
        2 * trace::TraceFileWriter::kChunkBytes / trace::kTraceRecordBytes;
    for (size_t n : {size_t{0}, two_chunks}) {
        SCOPED_TRACE(n);
        trace::TraceBuffer buf = sampleTrace(n);
        trace::TraceFileWriter full;
        trace::TraceIoResult r = full.open("/dev/full");
        if (r.ok()) {
            for (const trace::TraceOp &op : buf.ops())
                full.append(op);
            r = full.finish();
        }
        EXPECT_TRUE(r.status == TraceIoStatus::ShortWrite ||
                    r.status == TraceIoStatus::CloseFailed)
            << trace::traceIoStatusName(r.status) << ": " << r.detail;
        EXPECT_FALSE(r.detail.empty());
    }
}

namespace {

/**
 * A hand-written file of a retired format holding @p count zero
 * records. v1: the 16-byte header (magic, record count) and 16-byte
 * packed records. v2: the 32-byte header (magic, count, record size
 * 20, CRC) and 20-byte records that still carried the successor pc.
 */
std::vector<uint8_t>
retiredFormatBytes(char version, uint64_t count)
{
    std::vector<uint8_t> bytes = {'C', 'E', 'S', 'P',
                                  'T', 'R', 'C', uint8_t(version)};
    for (int i = 0; i < 8; ++i)
        bytes.push_back(static_cast<uint8_t>(count >> (8 * i)));
    size_t record_bytes = 16;
    if (version == '2') {
        record_bytes = 20;
        const std::vector<uint8_t> payload(count * record_bytes, 0);
        const uint32_t crc = crc32(payload.data(), payload.size());
        for (uint32_t field : {uint32_t{20}, crc})
            for (int i = 0; i < 4; ++i)
                bytes.push_back(static_cast<uint8_t>(field >> (8 * i)));
        bytes.resize(32, 0);
    }
    bytes.resize(bytes.size() + count * record_bytes, 0);
    return bytes;
}

} // namespace

TEST(PublishTrace, MapsThePublishedFileAndCleansUpOnFailure)
{
    const trace::TraceBuffer buf = sampleTrace();
    auto emit = [&](trace::TraceSink &sink) {
        for (const trace::TraceOp &op : buf.ops())
            sink.append(op);
    };
    const std::string path = scratchFile("published.trc");
    const std::string saved = scratchFile("published-saved.trc");
    trace::MmapTraceSource src;
    ASSERT_TRUE(trace::publishTrace(path, emit, src).ok());
    EXPECT_TRUE(sameRecords(src.view(), buf));
    ASSERT_TRUE(trace::saveTrace(buf, saved).ok());
    EXPECT_EQ(readAll(path), readAll(saved));

    // A directory in the way: the rename fails, nothing is mapped and
    // the temporary is gone.
    const std::string blocked = scratchFile("blocked.trc");
    std::filesystem::create_directory(blocked);
    trace::MmapTraceSource none;
    EXPECT_EQ(trace::publishTrace(blocked, emit, none).status,
              TraceIoStatus::RenameFailed);
    EXPECT_FALSE(none.mapped());
    EXPECT_FALSE(std::filesystem::exists(
        blocked + strprintf(".%d.tmp", getpid())));
    std::filesystem::remove(blocked);
}

TEST(TraceFileV1, BothReadersRefuseLegacyVersion)
{
    // v1 and v2 are no longer read; the reader must name each
    // LegacyVersion rather than a foreign file.
    for (char version : {'1', '2'}) {
        SCOPED_TRACE(version);
        const std::string path = scratchFile("legacy.trc");
        writeAll(path, retiredFormatBytes(version, 1));

        trace::MmapTraceSource src;
        trace::TraceIoResult r = src.open(path);
        EXPECT_EQ(r.status, TraceIoStatus::LegacyVersion);
        EXPECT_NE(r.detail.find(std::string("v") + version +
                                " is no longer supported"),
                  std::string::npos)
            << r.detail;
    }
}

TEST(TraceFileFaults, TruncatedHeader)
{
    trace::TraceBuffer buf = sampleTrace(500);
    const std::string path = scratchFile("trunchdr.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());
    std::vector<uint8_t> bytes = readAll(path);

    for (size_t keep : {7u, 15u, 16u, 31u}) {
        writeAll(path, std::vector<uint8_t>(bytes.begin(),
                                            bytes.begin() + keep));
        expectCorrupt(path, TraceIoStatus::ShortRead);
    }
}

TEST(TraceFileFaults, ZeroLengthFileIsItsOwnStatus)
{
    // A zero-length file is the torn-create artifact (open(O_CREAT),
    // crash, nothing written) — not a truncated trace. The reader
    // reports EmptyFile, distinct from ShortRead, and must reject it
    // before the map attempt (mmap of length 0 is EINVAL).
    const std::string path = scratchFile("empty.trc");
    writeAll(path, {});
    expectCorrupt(path, TraceIoStatus::EmptyFile);
    EXPECT_STREQ(traceIoStatusName(TraceIoStatus::EmptyFile),
                 "empty-file");
}

TEST(TraceFileFaults, FailedOpensLeakNoFileDescriptors)
{
    // Every early-return path in MmapTraceSource::open closes its
    // fd; every reject path unmaps. Exercise each failure shape many
    // times and check the process's descriptor count is unchanged.
    auto fdCount = []() {
        size_t n = 0;
        for ([[maybe_unused]] const auto &e :
             std::filesystem::directory_iterator("/proc/self/fd"))
            ++n;
        return n;
    };

    trace::TraceBuffer buf = sampleTrace(300);
    const std::string good = scratchFile("fdleak-good.trc");
    ASSERT_TRUE(trace::saveTrace(buf, good).ok());
    std::vector<uint8_t> bytes = readAll(good);

    const std::string empty = scratchFile("fdleak-empty.trc");
    writeAll(empty, {});
    const std::string shorthdr = scratchFile("fdleak-short.trc");
    writeAll(shorthdr, std::vector<uint8_t>(bytes.begin(),
                                            bytes.begin() + 8));
    std::vector<uint8_t> badmagic = bytes;
    badmagic[0] = 'X';
    const std::string foreign = scratchFile("fdleak-magic.trc");
    writeAll(foreign, badmagic);

    const size_t before = fdCount();
    for (int i = 0; i < 32; ++i) {
        trace::MmapTraceSource src;
        EXPECT_EQ(src.open("/nonexistent/cesp-no-such-file").status,
                  TraceIoStatus::OpenFailed);
        EXPECT_EQ(src.open(empty).status, TraceIoStatus::EmptyFile);
        EXPECT_EQ(src.open(shorthdr).status,
                  TraceIoStatus::ShortRead);
        EXPECT_EQ(src.open(foreign).status, TraceIoStatus::BadMagic);
        // Success then replacement then destruction: the mapping
        // (the fd is already closed by then) must not accumulate.
        EXPECT_TRUE(src.open(good).ok());
        EXPECT_TRUE(src.open(good).ok());
    }
    EXPECT_EQ(fdCount(), before);
}

TEST(TraceFileFaults, TruncatedPayload)
{
    trace::TraceBuffer buf = sampleTrace(500);
    const std::string path = scratchFile("truncpay.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());
    std::vector<uint8_t> bytes = readAll(path);

    // Chop mid-record: the file size cannot hold the header's count.
    writeAll(path, std::vector<uint8_t>(bytes.begin(),
                                        bytes.end() - 13));
    expectCorrupt(path, TraceIoStatus::CountMismatch);

    // Chop whole records: still a header/size disagreement.
    writeAll(path, std::vector<uint8_t>(
                       bytes.begin(),
                       bytes.end() - 5 * trace::kTraceRecordBytes));
    expectCorrupt(path, TraceIoStatus::CountMismatch);
}

TEST(TraceFileFaults, BadMagic)
{
    trace::TraceBuffer buf = sampleTrace(200);
    const std::string path = scratchFile("badmagic.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());
    std::vector<uint8_t> bytes = readAll(path);
    bytes[0] = 'X';
    writeAll(path, bytes);
    expectCorrupt(path, TraceIoStatus::BadMagic);

    // A file of a plausible future version is also not ours.
    std::memcpy(bytes.data(), "CESPTRC9", 8);
    writeAll(path, bytes);
    expectCorrupt(path, TraceIoStatus::BadMagic);
}

TEST(TraceFileFaults, FlippedPayloadByteFailsCrc)
{
    trace::TraceBuffer buf = sampleTrace(800);
    const std::string path = scratchFile("badcrc.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());
    std::vector<uint8_t> bytes = readAll(path);

    // Flip one bit in the middle and at both ends of the payload.
    for (size_t pos : {trace::kTraceHeaderBytes, bytes.size() / 2,
                       bytes.size() - 1}) {
        std::vector<uint8_t> mut = bytes;
        mut[pos] ^= 0x01;
        writeAll(path, mut);
        expectCorrupt(path, TraceIoStatus::CrcMismatch);
    }
}

TEST(TraceFileFaults, HeaderCountDisagreesWithFileSize)
{
    trace::TraceBuffer buf = sampleTrace(300);
    const std::string path = scratchFile("badcount.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());
    std::vector<uint8_t> bytes = readAll(path);

    // Extra trailing records the header does not admit to.
    std::vector<uint8_t> longer = bytes;
    longer.insert(longer.end(), trace::kTraceRecordBytes, 0);
    writeAll(path, longer);
    expectCorrupt(path, TraceIoStatus::CountMismatch);

    // A header count larger than the payload (fabricated, with a
    // huge value that would overflow a naive size computation).
    std::vector<uint8_t> lying = bytes;
    for (int i = 0; i < 8; ++i)
        lying[8 + i] = 0xff;
    writeAll(path, lying);
    expectCorrupt(path, TraceIoStatus::CountMismatch);
}

TEST(TraceFileFaults, ForeignRecordSize)
{
    trace::TraceBuffer buf = sampleTrace(100);
    const std::string path = scratchFile("badrecsize.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());
    std::vector<uint8_t> bytes = readAll(path);
    bytes[16] = 24; // some other build's TraceOp
    writeAll(path, bytes);
    expectCorrupt(path, TraceIoStatus::BadRecordSize);
}

TEST(TraceFileFaults, ImpossibleOpcodeWithValidCrc)
{
    // A record can be bit-intact (CRC passes) yet decode to garbage —
    // e.g. written by a build with more opcodes. Must be BadRecord,
    // not silently accepted.
    trace::TraceBuffer buf = sampleTrace(100);
    const std::string path = scratchFile("badrecord.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());
    std::vector<uint8_t> bytes = readAll(path);
    // Record 3's opcode byte (offset 8 within the record).
    bytes[trace::kTraceHeaderBytes + 3 * trace::kTraceRecordBytes +
          8] = 0xff;
    recomputeCrc(bytes);
    writeAll(path, bytes);
    expectCorrupt(path, TraceIoStatus::BadRecord);
}

TEST(MmapParity, RecordExactForEveryWorkload)
{
    // The cache-served view (mmap-backed when the disk cache is
    // healthy) must be byte-identical to a freshly emulated trace.
    for (const auto &w : workloads::allWorkloads()) {
        trace::TraceView view = core::cachedWorkloadTraceView(w.name);
        trace::TraceBuffer fresh = workloads::traceOf(w);
        EXPECT_TRUE(sameRecords(view, fresh)) << w.name;
    }
}

TEST(MmapParity, StatisticExactForEveryPreset)
{
    trace::TraceBuffer buf = sampleTrace(20000, 23);
    const std::string path = scratchFile("parity.trc");
    ASSERT_TRUE(trace::saveTrace(buf, path).ok());
    trace::MmapTraceSource src;
    ASSERT_TRUE(src.open(path).ok());
    ASSERT_TRUE(sameRecords(buf, src.view()));

    const std::vector<uarch::SimConfig> presets = {
        core::baseline8Way(),          core::dependence8x8(),
        core::clusteredDependence2x4(), core::clusteredWindows2x4(),
        core::clusteredExecDriven2x4(), core::clusteredRandom2x4(),
        core::baseline16Way(),         core::clusteredDependence4x4(),
    };
    for (const uarch::SimConfig &cfg : presets) {
        uarch::SimStats a = uarch::simulate(cfg, buf);
        uarch::SimStats b = uarch::simulate(cfg, src.view());
        EXPECT_EQ(fingerprint(a), fingerprint(b)) << cfg.name;
    }
}

namespace {

/** The cache file the trace cache published for @p workload. */
std::filesystem::path
cachedFileFor(const std::string &workload)
{
    for (const auto &e : std::filesystem::directory_iterator(g_dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind(workload + "-", 0) == 0 &&
            e.path().extension() == ".trc")
            return e.path();
    }
    return {};
}

} // namespace

TEST(TraceCacheRecovery, RegeneratesAfterEveryCorruption)
{
    const std::string w = "compress";
    core::clearTraceCache();
    trace::TraceView first = core::cachedWorkloadTraceView(w);
    ASSERT_GT(first.count, 0u);
    // The view dies with the cache entry; keep a private copy.
    std::vector<trace::TraceOp> golden(
        first.records, first.records + first.count);

    std::filesystem::path file = cachedFileFor(w);
    ASSERT_FALSE(file.empty()) << "cache did not publish a file";
    const std::vector<uint8_t> pristine = readAll(file.string());

    using Mutator = void (*)(std::vector<uint8_t> &);
    const Mutator mutators[] = {
        [](std::vector<uint8_t> &b) { b.clear(); }, // torn create
        [](std::vector<uint8_t> &b) { b.resize(9); },
        [](std::vector<uint8_t> &b) { b.erase(b.end() - 7, b.end()); },
        [](std::vector<uint8_t> &b) { b[4] = '?'; },
        [](std::vector<uint8_t> &b) {
            b[trace::kTraceHeaderBytes + 100] ^= 0x40;
        },
        [](std::vector<uint8_t> &b) {
            b.insert(b.end(), trace::kTraceRecordBytes, 0);
        },
    };
    for (const Mutator &mutate : mutators) {
        std::vector<uint8_t> bytes = pristine;
        mutate(bytes);
        core::clearTraceCache(); // drop the mapping, then corrupt
        writeAll(file.string(), bytes);

        trace::TraceView recovered = core::cachedWorkloadTraceView(w);
        ASSERT_EQ(recovered.count, golden.size());
        EXPECT_EQ(std::memcmp(recovered.records, golden.data(),
                              golden.size() * sizeof(trace::TraceOp)),
                  0);

        // The regeneration also republished an intact file.
        trace::MmapTraceSource check;
        trace::TraceIoResult r = check.open(file.string());
        EXPECT_TRUE(r.ok()) << r.detail;
        EXPECT_EQ(check.size(), golden.size());
    }
}

TEST(TraceCacheRecovery, UpgradesV1FileInPlace)
{
    const std::string w = "compress";
    core::clearTraceCache();
    trace::TraceView first = core::cachedWorkloadTraceView(w);
    std::vector<trace::TraceOp> golden(
        first.records, first.records + first.count);

    std::filesystem::path file = cachedFileFor(w);
    ASSERT_FALSE(file.empty());

    for (char version : {'1', '2'}) {
        SCOPED_TRACE(version);
        // Rewrite the cache file in a retired format, as a harness
        // from before that format's retirement would have left it.
        core::clearTraceCache();
        writeAll(file.string(), retiredFormatBytes(version, golden.size()));

        // Retired formats are no longer decoded: the next request
        // refuses the file, regenerates the trace and republishes it
        // in the current format at the same path, so the file is
        // mappable again afterwards.
        trace::TraceView upgraded = core::cachedWorkloadTraceView(w);
        ASSERT_EQ(upgraded.count, golden.size());
        EXPECT_EQ(std::memcmp(upgraded.records, golden.data(),
                              golden.size() * sizeof(trace::TraceOp)),
                  0);
        trace::MmapTraceSource check;
        trace::TraceIoResult r = check.open(file.string());
        EXPECT_TRUE(r.ok()) << r.detail;
        EXPECT_EQ(check.size(), golden.size());
    }
}

TEST(TraceCachePublish, StreamedFileEqualsSaveTrace)
{
    // The cold path emulates straight into the published file; its
    // bytes must be exactly what saving the buffered trace writes.
    core::clearTraceCache();
    std::error_code ec;
    std::filesystem::remove(cachedFileFor("li"), ec);
    ASSERT_GT(core::cachedWorkloadTraceView("li").count, 0u);
    std::filesystem::path file = cachedFileFor("li");
    ASSERT_FALSE(file.empty()) << "cache did not publish a file";

    const std::string ref = scratchFile("li-saved.trc");
    ASSERT_TRUE(trace::saveTrace(
                    workloads::traceOf(workloads::workload("li")), ref)
                    .ok());
    EXPECT_EQ(readAll(file.string()), readAll(ref));
}

TEST(TraceCacheRecovery, FailedPublishFallsBackToMemory)
{
    core::clearTraceCache();
    ASSERT_GT(core::cachedWorkloadTraceView("li").count, 0u);
    std::filesystem::path file = cachedFileFor("li");
    ASSERT_FALSE(file.empty());

    // A directory where the published file belongs: it cannot be
    // mapped, and renaming the streamed file over it fails.
    core::clearTraceCache();
    std::filesystem::remove(file);
    std::filesystem::create_directory(file);

    trace::TraceView view = core::cachedWorkloadTraceView("li");
    trace::TraceBuffer fresh =
        workloads::traceOf(workloads::workload("li"));
    EXPECT_TRUE(sameRecords(view, fresh));
    EXPECT_TRUE(std::filesystem::is_directory(file));
    for (const auto &e : std::filesystem::directory_iterator(g_dir))
        EXPECT_NE(e.path().extension(), ".tmp")
            << "failed publish left " << e.path();

    core::clearTraceCache();
    std::filesystem::remove_all(file);
}
