/**
 * @file
 * Implementation of the workload trace cache.
 */

#include "core/machine.hpp"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "common/logging.hpp"
#include "trace/mmap_source.hpp"
#include "trace/tracefile.hpp"
#include "workloads/workloads.hpp"

namespace cesp::core {

namespace {

/**
 * One cached workload trace, immutable once built: either a live
 * MmapTraceSource or a buffer that owns its records; view points
 * into whichever it is.
 */
struct CachedTrace
{
    trace::TraceBuffer buf;
    std::unique_ptr<trace::MmapTraceSource> mmap;
    trace::TraceView view;
};

/** The cache and the lock that guards its map. std::map never moves
 *  an entry, so views stay valid while other entries are added. */
struct TraceCache
{
    std::mutex mu;
    std::map<std::string, CachedTrace> entries;
};

TraceCache &
traceCache()
{
    static TraceCache cache;
    return cache;
}

/** FNV-1a hash of the kernel source (cache invalidation key). */
uint64_t
sourceHash(const char *s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (; *s; ++s) {
        h ^= static_cast<uint8_t>(*s);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Directory for the cross-process trace cache, or empty if disabled
 * (CESP_TRACE_CACHE=off). Default: <tmp>/cesp-traces.
 */
std::filesystem::path
diskCacheDir()
{
    const char *env = std::getenv("CESP_TRACE_CACHE");
    if (env && std::string(env) == "off")
        return {};
    std::error_code ec;
    std::filesystem::path dir = env && *env
        ? std::filesystem::path(env)
        : std::filesystem::temp_directory_path(ec) / "cesp-traces";
    if (ec)
        return {};
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return {};
    return dir;
}

/**
 * Emulate @p w straight into a temporary next to @p file, rename it
 * into place (so parallel harnesses never observe a half-written
 * file), and map it, verifying the CRC and every record as any other
 * cache hit is. Null, with the temporary removed and a warning
 * logged, when any step fails.
 */
std::unique_ptr<trace::MmapTraceSource>
streamAndPublish(const workloads::Workload &w,
                 const std::filesystem::path &file)
{
    std::filesystem::path tmp =
        file.string() + strprintf(".%d.tmp", getpid());
    trace::TraceFileWriter writer;
    trace::TraceIoResult result = writer.open(tmp.string());
    if (result.ok()) {
        workloads::streamTraceOf(w, writer);
        result = writer.finish();
    }
    std::error_code ec;
    if (result.ok()) {
        std::filesystem::rename(tmp, file, ec);
        if (!ec) {
            auto mmap = std::make_unique<trace::MmapTraceSource>();
            result = mmap->open(file.string());
            if (result.ok())
                return mmap;
        }
    }
    std::string why = ec ? "rename failed: " + ec.message()
                         : strprintf("%s (%s)",
                                     trace::traceIoStatusName(
                                         result.status),
                                     result.detail.c_str());
    warn("trace cache: cannot serve %s from disk: %s; keeping the "
         "trace in memory",
         file.string().c_str(), why.c_str());
    std::filesystem::remove(tmp, ec);
    return nullptr;
}

/**
 * Resolve a workload's trace: mmap the disk cache's file when it
 * verifies, and otherwise (logging why the cached file was rejected)
 * emulate the kernel straight into a freshly published file and map
 * that. The trace is held in a private buffer only when the disk
 * cache is off or publishing fails, which re-emulates the kernel.
 */
CachedTrace
obtainTrace(const workloads::Workload &w)
{
    CachedTrace entry;
    std::filesystem::path dir = diskCacheDir();
    if (!dir.empty()) {
        // The format version is part of the name: builds of two
        // formats sharing the directory would otherwise overwrite
        // each other's file, and regenerate it, on every run.
        std::filesystem::path file =
            dir / strprintf("%s-%016llx-v%u.trc", w.name.c_str(),
                            static_cast<unsigned long long>(
                                sourceHash(w.source)),
                            trace::kTraceFormatVersion);
        auto mmap = std::make_unique<trace::MmapTraceSource>();
        trace::TraceIoResult opened = mmap->open(file.string());
        if (!opened.ok()) {
            if (opened.status != trace::TraceIoStatus::OpenFailed) {
                // Missing file is the normal cold-cache case and
                // stays quiet; anything else (a corrupt, foreign, or
                // retired-format file) says exactly what was wrong
                // before we fall back.
                warn("trace cache: %s: %s (%s); regenerating",
                     file.string().c_str(),
                     trace::traceIoStatusName(opened.status),
                     opened.detail.c_str());
            }
            // Serving the published file shares its pages with every
            // other process simulating this workload.
            mmap = streamAndPublish(w, file);
        }
        if (mmap) {
            entry.view = mmap->view();
            entry.mmap = std::move(mmap);
            return entry;
        }
    }
    entry.buf = workloads::traceOf(w);
    entry.view = entry.buf;
    return entry;
}

} // namespace

trace::TraceView
cachedWorkloadTraceView(const std::string &name)
{
    // Building an entry under the lock serialises first requests, but
    // guarantees each trace is generated (and published) exactly once.
    TraceCache &cache = traceCache();
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(name);
    if (it == cache.entries.end())
        it = cache.entries
                 .emplace(name, obtainTrace(workloads::workload(name)))
                 .first;
    return it->second.view;
}

void
clearTraceCache()
{
    TraceCache &cache = traceCache();
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.entries.clear();
}

} // namespace cesp::core
