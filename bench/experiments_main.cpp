/**
 * @file
 * The experiments' command line: runs the named specs and prints
 * each one's report once the run ends.
 *
 *   experiments [NAME...] [--json PATH]
 *
 * With no NAME every experiment runs, in bench/README.md order.
 * --json takes exactly one NAME and writes its export as a
 * cesp.statgroup.list document: by default every run, config-major
 * and labelled "<variant label> / <workload>", unless the report
 * chooses other groups. `--json -` prints only that document.
 */

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "experiments.hpp"

using namespace cesp;
using namespace cesp::bench;

namespace {

int
usage(const std::vector<Experiment> &all)
{
    std::fprintf(stderr, "usage: experiments [NAME...] [--json PATH]\n"
                         "  --json PATH  write NAME's groups as JSON "
                         "('-' = stdout only); exactly one NAME\n"
                         "experiments:\n");
    for (const Experiment &e : all)
        std::fprintf(stderr, "  %s\n", e.name.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Experiment> all = allExperiments();
    std::vector<std::string> chosen;
    std::string json_path;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json") {
            if (json || i + 1 >= argc)
                return usage(all);
            json = true;
            json_path = argv[++i];
            continue;
        }
        auto named = [&](const Experiment &e) { return e.name == a; };
        if (std::none_of(all.begin(), all.end(), named)) {
            std::fprintf(stderr, "experiments: unknown experiment "
                                 "'%s'\n", a.c_str());
            return usage(all);
        }
        chosen.push_back(a);
    }
    if (json && chosen.size() != 1)
        return usage(all);
    if (chosen.empty())
        for (const Experiment &e : all)
            chosen.push_back(e.name);
    const bool quiet = json_path == "-";

    for (ExperimentRun &r : runExperiments(chosen)) {
        const core::Grid &g = r.grid;
        Report &out = r.report;
        // A report that chose no groups exports every run.
        if (json && out.groups.empty())
            for (size_t c = 0; c < g.configs.size(); ++c)
                for (size_t w = 0; w < g.workloads.size(); ++w)
                    out.addRun(g, c, w);
        if (!quiet) {
            if (chosen.size() > 1)
                std::printf("== %s ==\n", r.name.c_str());
            std::fwrite(out.text.data(), 1, out.text.size(), stdout);
            std::fflush(stdout);
        }
        std::string err;
        if (json && !writeTextOutput(
                        json_path,
                        statGroupListJson(out.groups, out.summary), &err))
            fatal("%s", err.c_str());
    }
    checkStdout();
    return 0;
}
