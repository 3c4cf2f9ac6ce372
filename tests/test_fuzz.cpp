/**
 * @file
 * Seeded mutation fuzzing of the three parsers that read untrusted
 * input: the assembler, the .trc reader (MmapTraceSource::open) and
 * the stats-export loader (loadStatGroups). Each starts from a valid
 * input, applies a few random edits — byte flip, truncate, splice,
 * repeat a span, delete a line — and must give a valid result or a
 * typed error: never a throw or a crash. The mutator is seeded, so a
 * failure reproduces exactly; the asan entry runs the same inputs
 * under AddressSanitizer.
 *
 * Scratch files live in a per-process temp directory.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/presets.hpp"
#include "trace/mmap_source.hpp"
#include "trace/synthetic.hpp"
#include "trace/tracefile.hpp"
#include "uarch/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;

namespace {

std::filesystem::path g_dir;

class TempDirEnv : public ::testing::Environment
{
  public:
    void SetUp() override
    {
        g_dir = std::filesystem::temp_directory_path() /
            strprintf("cesp-fuzz-test-%d", getpid());
        std::filesystem::create_directories(g_dir);
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(g_dir, ec);
    }
};

const ::testing::Environment *const g_env =
    ::testing::AddGlobalTestEnvironment(new TempDirEnv);

std::string
scratchFile(const std::string &name)
{
    return (g_dir / name).string();
}

/** Write @p bytes to a new file (rewriting one file in place makes
 *  some filesystems, ext4 among them, flush it on every close). */
void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Seeded mutator: one to three random edits per call. */
class Mutator
{
  public:
    explicit Mutator(uint64_t seed) : rng_(seed) {}

    std::string
    mutate(std::string s)
    {
        int edits = 1 + static_cast<int>(rng_.below(3));
        for (int i = 0; i < edits; ++i)
            edit(s);
        return s;
    }

  private:
    /** A span [at, at + len) of @p s, at most 64 bytes long. */
    std::pair<size_t, size_t>
    span(const std::string &s)
    {
        size_t at = rng_.below(s.size());
        size_t len = 1 + rng_.below(std::min<size_t>(64, s.size() - at));
        return {at, len};
    }

    void
    edit(std::string &s)
    {
        if (s.empty()) {
            s.push_back(static_cast<char>(rng_.below(256)));
            return;
        }
        switch (rng_.below(5)) {
          case 0: { // byte flip
            size_t at = rng_.below(s.size());
            s[at] = static_cast<char>(s[at] ^ (1 + rng_.below(255)));
            break;
          }
          case 1: // truncate
            s.resize(rng_.below(s.size()));
            break;
          case 2: { // splice: copy a span over another position
            auto [from, len] = span(s);
            std::string piece = s.substr(from, len);
            size_t to = rng_.below(s.size());
            s.replace(to, std::min(len, s.size() - to), piece);
            break;
          }
          case 3: { // repeat a span in place, up to 8 times
            auto [at, len] = span(s);
            std::string piece = s.substr(at, len);
            for (uint64_t k = 1 + rng_.below(8); k > 0; --k)
                s.insert(at, piece);
            break;
          }
          default: { // delete a line (or a span, without newlines)
            size_t at = rng_.below(s.size());
            size_t start = s.rfind('\n', at);
            size_t end = s.find('\n', at);
            if (start == std::string::npos && end == std::string::npos) {
                auto [from, len] = span(s);
                s.erase(from, len);
            } else {
                start = start == std::string::npos ? 0 : start;
                end = end == std::string::npos ? s.size() : end;
                s.erase(start, end - start);
            }
            break;
          }
        }
    }

    Rng rng_;
};

/** Patch a header's count and CRC to match its (mutated) payload,
 *  so the reader gets past the checksum to the records. */
void
reseal(std::string &bytes)
{
    if (bytes.size() < trace::kTraceHeaderBytes)
        return;
    size_t payload = bytes.size() - trace::kTraceHeaderBytes;
    uint64_t count = payload / trace::kTraceRecordBytes;
    uint32_t crc =
        crc32(bytes.data() + trace::kTraceHeaderBytes, payload);
    for (int i = 0; i < 8; ++i)
        bytes[8 + i] = static_cast<char>(count >> (8 * i));
    for (int i = 0; i < 4; ++i)
        bytes[20 + i] = static_cast<char>(crc >> (8 * i));
}

/** A short simulation's statistics, the shape every export carries. */
StatGroup
sampleStats(uint64_t seed)
{
    trace::SyntheticParams sp;
    sp.seed = seed;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 2000);
    return uarch::simulate(core::baseline8Way(), buf).group();
}

/** Mutate @p doc 1,000 times; loadStatGroups must parse or refuse. */
void
fuzzStatLoader(const std::string &doc, uint64_t seed)
{
    Mutator m(seed);
    int loaded = 0;
    for (int i = 0; i < 1000; ++i) {
        const std::string path = scratchFile(strprintf("stats-%d", i));
        writeFile(path, m.mutate(doc));
        std::vector<StatGroup> groups;
        std::string err;
        bool ok = false;
        EXPECT_NO_THROW(ok = loadStatGroups(path, groups, &err))
            << "mutation " << i;
        if (ok) {
            ++loaded;
            for (const StatGroup &g : groups)
                EXPECT_NO_THROW((void)g.toJson()) << "mutation " << i;
        } else {
            EXPECT_FALSE(err.empty()) << "mutation " << i;
        }
        std::filesystem::remove(path);
    }
    // The edits reach both outcomes.
    EXPECT_GT(loaded, 0);
    EXPECT_LT(loaded, 1000);
}

} // namespace

TEST(Fuzz, AssemblerOnMutatedKernels)
{
    std::vector<const workloads::Workload *> kernels;
    for (const auto &w : workloads::allWorkloads())
        kernels.push_back(&w);
    for (const auto &w : workloads::extraWorkloads())
        kernels.push_back(&w);
    ASSERT_FALSE(kernels.empty());
    for (size_t k = 0; k < kernels.size(); ++k) {
        ASSERT_TRUE(assembler::assemble(kernels[k]->source).ok)
            << kernels[k]->name;
        Mutator m(k + 1);
        for (int i = 0; i < 200; ++i) {
            std::string src = m.mutate(kernels[k]->source);
            assembler::AssembleResult r;
            EXPECT_NO_THROW(r = assembler::assemble(src))
                << kernels[k]->name << " mutation " << i;
            if (!r.ok) {
                EXPECT_FALSE(r.error.empty())
                    << kernels[k]->name << " mutation " << i;
            }
        }
    }
}

TEST(Fuzz, TraceReaderOnMutatedFiles)
{
    trace::SyntheticParams sp;
    sp.seed = 5;
    const std::string clean = scratchFile("clean.trc");
    ASSERT_TRUE(
        trace::saveTrace(trace::generateSynthetic(sp, 2000), clean).ok());
    const std::string original = readFile(clean);
    ASSERT_EQ(original.size(), trace::kTraceHeaderBytes +
                                   2000 * trace::kTraceRecordBytes);

    Mutator m(2);
    std::set<trace::TraceIoStatus> seen;
    for (int i = 0; i < 1000; ++i) {
        std::string bytes = m.mutate(original);
        // Every other file gets a matching count and checksum, so the
        // record checks see the edits instead of the CRC.
        if (i % 2 == 1)
            reseal(bytes);
        const std::string path = scratchFile(strprintf("%d.trc", i));
        writeFile(path, bytes);
        {
            trace::MmapTraceSource src;
            trace::TraceIoResult r;
            EXPECT_NO_THROW(r = src.open(path)) << "mutation " << i;
            seen.insert(r.status);
            if (r.ok()) {
                // Touch every record of the mapping.
                trace::TraceView v = src.view();
                EXPECT_EQ(v.count, src.size());
                uint64_t sum = 0;
                for (size_t k = 0; k < v.count; ++k)
                    sum += v[k].pc + static_cast<uint64_t>(v[k].cls);
                (void)sum;
            } else {
                EXPECT_FALSE(src.mapped()) << "mutation " << i;
            }
        }
        std::filesystem::remove(path);
    }
    // The edits reach the header, checksum and record checks.
    for (trace::TraceIoStatus want :
         {trace::TraceIoStatus::Ok, trace::TraceIoStatus::BadMagic,
          trace::TraceIoStatus::CountMismatch,
          trace::TraceIoStatus::CrcMismatch,
          trace::TraceIoStatus::BadRecord})
        EXPECT_TRUE(seen.count(want)) << trace::traceIoStatusName(want);
}

TEST(Fuzz, StatLoaderOnMutatedGroupDocument)
{
    fuzzStatLoader(sampleStats(1).toJson(), 3);
}

TEST(Fuzz, StatLoaderOnMutatedListDocument)
{
    StatGroup a = sampleStats(1);
    StatGroup b = sampleStats(2);
    StatGroup all = a;
    all.merge(b);
    fuzzStatLoader(statGroupListJson({a, b}, {all}), 4);
}

TEST(Fuzz, StatLoaderOnMutatedJsonLinesStream)
{
    const std::string path = scratchFile("clean.jsonl");
    {
        StatStreamWriter w(path);
        ASSERT_TRUE(w.ok()) << w.error();
        for (int64_t task = 0; task < 3; ++task) {
            StatStreamMeta meta;
            meta.task = task;
            ASSERT_TRUE(w.append(meta, sampleStats(
                                           static_cast<uint64_t>(task))));
        }
    }
    fuzzStatLoader(readFile(path), 5);
}
