/**
 * @file
 * Every table and figure of the paper's evaluation, the ablations
 * and the design studies as specs, and the one runner behind both
 * the `experiments` binary and the integration tests.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/table.hpp"
#include "core/sweep.hpp"

namespace cesp::bench {

/** One machine of an experiment: the label its exported runs carry,
 *  and its configuration. */
struct Variant
{
    std::string label;
    uarch::SimConfig cfg;
};

/** What an experiment's report produces. */
struct Report
{
    /** Tables and summary lines (suppressed by `--json -`). */
    std::string text;
    /** Exported groups; left empty, the export is every run,
     *  config-major. */
    std::vector<StatGroup> groups;
    /** Exported summary ("merged") groups. */
    std::vector<StatGroup> summary;
    /** Variant labels, indexed like the grid's configurations. */
    std::vector<std::string> labels;

    void table(const Table &t) { text += t.render(); }
    void line(const std::string &s) { text += s + '\n'; }

    /** Export run (c, w) labelled "<variant label> / <workload>". */
    void
    addRun(const core::Grid &g, size_t c, size_t w)
    {
        groups.push_back(g.at(c, w).group());
        groups.back().label() = labels[c] + " / " + g.workloads[w];
    }
};

struct Experiment
{
    std::string name;
    std::vector<Variant> variants;
    /** Reads the grid (configuration v is variants[v]) into a report. */
    std::function<void(const core::Grid &, Report &)> report;
};

/** Every experiment, in bench/README.md order. */
std::vector<Experiment> allExperiments();

/** One spec's results: its grid (configuration v is variant v) and
 *  its report. */
struct ExperimentRun
{
    std::string name;
    core::Grid grid;
    Report report;
};

/**
 * Run the experiments named @p names (each one of allExperiments()),
 * in that order, as one core::runGrid over all seven workloads, where
 * a machine that several specs share simulates once. Each spec's runs
 * move out of that grid into its own config-major block, which its
 * report reads.
 */
std::vector<ExperimentRun> runExperiments(
    const std::vector<std::string> &names);

} // namespace cesp::bench
