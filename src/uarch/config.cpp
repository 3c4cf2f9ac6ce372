/**
 * @file
 * Configuration validation and field setting.
 */

#include "uarch/config.hpp"

#include <bit>
#include <utility>

#include "common/logging.hpp"
#include "common/parse.hpp"

namespace cesp::uarch {

const SimConfig &
SimConfig::validate() const
{
    const char *m = name.c_str();
    forEachField(*this, [&](const ConfigField &f, const auto &v) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(v)>, bool>)
            if (std::cmp_less(v, f.min) || std::cmp_greater(v, f.max))
                fatal("%s: %s %s outside [%lld, %lld]", m, f.path.c_str(),
                      std::to_string(v).c_str(), f.min, f.max);
    });

    auto checkFifos = [&](const char *what, int fifos, int depth) {
        if (int64_t{fifos} * depth > kMaxEntries)
            fatal("%s: %sFIFO shape %dx%d over %lld entries per cluster",
                  m, what, fifos, depth, kMaxEntries);
    };
    if (style == IssueBufferStyle::Fifos)
        checkFifos("", fifos_per_cluster, fifo_depth);
    if (steering == SteeringPolicy::WindowFifo)
        checkFifos("conceptual ", concept_fifos_per_cluster,
                   concept_fifo_depth);
    if (!fu_mix.symmetric() &&
        (fu_mix.alu < 1 || fu_mix.mem < 1 || fu_mix.branch < 1))
        fatal("%s: a typed FU mix needs at least one unit of each class", m);
    auto isPow2 = [](long long v) {
        return v > 0 && std::has_single_bit(static_cast<uint64_t>(v));
    };
    // mem::Cache needs a power-of-two line size, and its whole lines
    // split into a power-of-two number of sets.
    auto checkCache = [&](const char *c, long long size, long long assoc,
                          long long line) {
        if (!isPow2(line) || size / line % assoc != 0 ||
            !isPow2(size / line / assoc))
            fatal("%s: %s.size_bytes %lld, associativity %lld and "
                  "line_bytes %lld give no power-of-two set count", m, c,
                  size, assoc, line);
    };
    checkCache("dcache", dcache.size_bytes, dcache.associativity,
               dcache.line_bytes);
    if (l2.enabled)
        checkCache("l2", l2.size_bytes, l2.associativity, l2.line_bytes);
    if ((bpred.kind == BpredKind::Gshare ||
         bpred.kind == BpredKind::Bimodal) &&
        !isPow2(bpred.table_entries))
        fatal("%s: bpred.table_entries %d is not a power of two", m,
              bpred.table_entries);
    if (l2.enabled && l2.memory_latency < dcache.miss_latency)
        fatal("%s: memory latency below the L2 hit latency", m);
    if (fetch_queue < fetch_width)
        fatal("%s: bad front-end shape: fetch_queue %d below fetch_width "
              "%d", m, fetch_queue, fetch_width);
    // One instruction's slowest path (front end, wakeup loop, farthest
    // bypass, a load missing to memory) must fit in half the no-commit
    // watchdog; the other half covers the one-cycle stages around it.
    // In range, these 12 latencies add up to far below INT_MAX.
    const int path = frontend_latency + wakeup_select_stages +
        fu_latency + local_bypass_extra + regfile_extra +
        kMaxClusters * inter_cluster_extra + dcache.hit_latency +
        dcache.miss_latency + l2.memory_latency;
    if (path > static_cast<int>(kNoCommitWatchdog / 2))
        fatal("%s: latencies add up to %d cycles, over half the %d-cycle "
              "no-commit watchdog", m, path,
              static_cast<int>(kNoCommitWatchdog));

    bool steering_ok = false;
    switch (steering) {
      case SteeringPolicy::None:
        steering_ok = style == IssueBufferStyle::CentralWindow;
        break;
      case SteeringPolicy::DependenceFifo:
        steering_ok = style == IssueBufferStyle::Fifos;
        break;
      case SteeringPolicy::WindowFifo:
      case SteeringPolicy::Random:
        steering_ok = style == IssueBufferStyle::PerClusterWindow;
        break;
      case SteeringPolicy::ExecutionDriven:
        steering_ok = style == IssueBufferStyle::CentralWindow &&
            num_clusters > 1;
        break;
    }
    if (!steering_ok)
        fatal("%s: steering policy %d incompatible with issue-buffer "
              "style %d", m, static_cast<int>(steering),
              static_cast<int>(style));
    if (in_order_issue &&
        (style != IssueBufferStyle::CentralWindow || num_clusters != 1))
        fatal("%s: in-order issue is modeled for single-cluster "
              "central-window machines only", m);
    if (in_order_issue && select_policy != SelectPolicy::OldestFirst)
        fatal("%s: in-order issue requires oldest-first selection", m);
    if (!window_compaction && style != IssueBufferStyle::CentralWindow)
        fatal("%s: slot-priority windows are only modeled for the "
              "central-window organization", m);
    if (num_clusters > 1 && steering == SteeringPolicy::None)
        fatal("%s: clustered machines need a steering policy", m);
    return *this;
}

void
setField(SimConfig &c, const std::string &path, const std::string &value)
{
    bool found = false;
    std::string rows; // the listing for an unknown path
    forEachField(c, [&](const ConfigField &f, auto &member) {
        rows += strprintf("\n  %-28s [%lld, %lld] %s", f.path.c_str(),
                          f.min, f.max, f.doc);
        if (f.path == path) {
            member = static_cast<std::decay_t<decltype(member)>>(
                intArg(path, value, f.min, f.max));
            found = true;
        }
    });
    if (!found)
        fatal("unknown config field '%s'; the fields are:%s",
              path.c_str(), rows.c_str());
}

} // namespace cesp::uarch
