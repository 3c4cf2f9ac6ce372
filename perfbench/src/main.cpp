/**
 * @file
 * perfbench: the repository's end-to-end benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--state-dir DIR] [--golden-dir DIR] [--git-sha SHA]
 *             [--export FILE]
 *
 * Prints the run context, a readable table of every end-to-end
 * metric (including failed_frac and, for sharded_stream,
 * shard_ipc_err_pct), and as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"} with the end-to-end
 * metrics (--trace 0) or the per-layer ones (--trace 1). A traced
 * run also writes its spans to <state-dir>/spans-<workload>.json.
 * --export writes the first pass's statistics as a
 * cesp.statgroup.list document (how the golden files are made).
 * `perfbench --list-layers` prints the per-layer metric schema.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/metrics.hpp"
#include "common/parse.hpp"
#include "context.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--state-dir DIR] [--golden-dir DIR] "
                 "[--git-sha SHA] [--export FILE]\n"
                 "       perfbench --list-layers\n",
                 why);
    return 2;
}

void
writeMetrics(cesp::JsonWriter &w, const std::vector<Metric> &metrics)
{
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.key("value");
        w.value(m.value);
        w.key("unit");
        w.value(m.unit);
        w.endObject();
    }
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, git_sha;
    std::string state_dir = ".bench_build/perfbench-state";
    std::string golden_dir = "perfbench/golden";
    std::string export_path;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool have_seed = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--list-layers") {
            cesp::JsonWriter w(-1);
            writeMetrics(w, layerSchema());
            std::puts(w.str().c_str());
            return 0;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            auto n = cesp::parseInt(v, 0, INT64_MAX);
            if (!n)
                return usage("--seed takes a non-negative integer");
            seed = static_cast<uint64_t>(*n);
            have_seed = true;
        } else if (a == "--seconds") {
            auto n = cesp::parseInt(v, 1, 600);
            if (!n)
                return usage("--seconds takes 1..600");
            seconds = static_cast<double>(*n);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            trace = v == "1";
        } else if (a == "--state-dir") {
            state_dir = v;
        } else if (a == "--golden-dir") {
            golden_dir = v;
        } else if (a == "--git-sha") {
            git_sha = v;
        } else if (a == "--export") {
            export_path = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (workload.empty() || !have_seed || seconds <= 0.0 || trace < 0)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    RunContext ctx = gatherContext(git_sha);
    std::printf("perfbench context %s\n", contextJson(ctx).c_str());
    std::string problem = releaseBuildProblem(ctx);
    if (!problem.empty()) {
        std::fprintf(stderr,
                     "perfbench: refusing to report from a non-release "
                     "build: %s\n",
                     problem.c_str());
        return 3;
    }

    Plan plan;
    if (!planWorkload(workload, seed, ctx.nproc, plan))
        return usage(("unknown workload " + workload).c_str());
    Options opt;
    opt.seconds = seconds;
    opt.trace = trace == 1;
    opt.state_dir = state_dir;
    opt.golden_dir = golden_dir;
    opt.export_path = export_path;

    SpanRecorder spans(opt.trace);
    Outcome out;
    try {
        out = runWorkload(plan, opt, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("perfbench %s seed=%llu seconds=%g jobs=%u trace=%d\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, plan.jobs, trace);
    for (const Metric &m : out.measured)
        std::printf("  %-18s %14.6f %s (measured)\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    for (const Metric &m : out.end_to_end)
        std::printf("  %-18s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-18s %14.6f ratio (%llu of %llu simulations)\n",
                "failed_frac",
                static_cast<double>(out.tally.failed) /
                    static_cast<double>(std::max<uint64_t>(
                        out.tally.attempted, 1)),
                static_cast<unsigned long long>(out.tally.failed),
                static_cast<unsigned long long>(out.tally.attempted));
    if (out.shard_ipc_err_pct >= 0.0)
        std::printf("  %-18s %14.6f %%\n", "shard_ipc_err_pct",
                    out.shard_ipc_err_pct);
    for (const std::string &r : out.tally.reasons)
        std::printf("  FAILED %s\n", r.c_str());

    if (opt.trace) {
        for (Metric &m : out.layers) {
            if (m.name == "host.nproc")
                m.value = ctx.nproc;
            else if (m.name == "host.loadavg1")
                m.value = ctx.loadavg1;
        }
        std::string path =
            (std::filesystem::path(state_dir) /
             ("spans-" + workload + ".json"))
                .string();
        if (!spans.write(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("perfbench spans written to %s\n", path.c_str());
    }

    cesp::JsonWriter w(-1);
    w.beginObject();
    w.key("correct");
    w.value(out.tally.failed == 0 && out.tally.attempted > 0);
    w.key("attempted");
    w.value(out.tally.attempted);
    w.key("failed");
    w.value(out.tally.failed);
    w.key("metrics");
    writeMetrics(w, opt.trace ? out.layers : out.end_to_end);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
