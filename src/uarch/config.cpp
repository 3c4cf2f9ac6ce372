/**
 * @file
 * Configuration validation.
 */

#include "uarch/config.hpp"

#include "common/logging.hpp"

namespace cesp::uarch {

void
SimConfig::validate() const
{
    if (num_clusters < 1 || num_clusters > kMaxClusters)
        fatal("%s: num_clusters %d outside [1, %d]", name.c_str(),
              num_clusters, kMaxClusters);
    if (fetch_width < 1 || rename_width < 1 || issue_width < 1 ||
        retire_width < 1)
        fatal("%s: pipeline widths must be positive", name.c_str());
    if (max_inflight < 1)
        fatal("%s: max_inflight must be positive", name.c_str());
    if (style == IssueBufferStyle::Fifos &&
        (fifos_per_cluster < 1 || fifo_depth < 1))
        fatal("%s: FIFO shape %dx%d invalid", name.c_str(),
              fifos_per_cluster, fifo_depth);
    if (style != IssueBufferStyle::Fifos && window_size < 1)
        fatal("%s: window_size must be positive", name.c_str());
    if ((style == IssueBufferStyle::Fifos
             ? int64_t{fifos_per_cluster} * fifo_depth
             : int64_t{window_size}) > kMaxBufferEntries)
        fatal("%s: issue buffer over %lld entries per cluster",
              name.c_str(), static_cast<long long>(kMaxBufferEntries));
    if (fus_per_cluster < 1 || ls_ports < 1)
        fatal("%s: execution resources must be positive",
              name.c_str());
    if (!fu_mix.symmetric() &&
        (fu_mix.alu < 1 || fu_mix.mem < 1 || fu_mix.branch < 1))
        fatal("%s: a typed FU mix needs at least one unit of each "
              "class", name.c_str());
    if (inter_cluster_extra < 0 || regfile_extra < 0 ||
        local_bypass_extra < 0)
        fatal("%s: bypass timing must be non-negative", name.c_str());
    if (wakeup_select_stages < 1)
        fatal("%s: wakeup_select_stages must be >= 1", name.c_str());
    if (phys_int_regs < 33 || phys_fp_regs < 33)
        fatal("%s: need more physical than architectural registers",
              name.c_str());
    if (l2.enabled && l2.memory_latency < dcache.miss_latency)
        fatal("%s: memory latency below the L2 hit latency",
              name.c_str());
    if (frontend_latency < 0 || fetch_queue < fetch_width)
        fatal("%s: bad front-end shape", name.c_str());
    // One instruction's slowest path (front end, wakeup loop, farthest
    // bypass, a load missing to memory) must fit in half the no-commit
    // watchdog; the other half covers the one-cycle stages around it.
    int64_t path = int64_t{frontend_latency} + wakeup_select_stages +
        fu_latency + local_bypass_extra + regfile_extra +
        int64_t{kMaxClusters} * inter_cluster_extra +
        dcache.hit_latency + dcache.miss_latency + l2.memory_latency;
    if (path > static_cast<int64_t>(kNoCommitWatchdog / 2))
        fatal("%s: latencies add up to %lld cycles, over half the "
              "%llu-cycle no-commit watchdog", name.c_str(),
              static_cast<long long>(path),
              static_cast<unsigned long long>(kNoCommitWatchdog));

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
              "style %d", name.c_str(), static_cast<int>(steering),
              static_cast<int>(style));
    if (in_order_issue &&
        (style != IssueBufferStyle::CentralWindow ||
         num_clusters != 1))
        fatal("%s: in-order issue is modeled for single-cluster "
              "central-window machines only", name.c_str());
    if (in_order_issue && select_policy != SelectPolicy::OldestFirst)
        fatal("%s: in-order issue requires oldest-first selection",
              name.c_str());
    if (!window_compaction && style != IssueBufferStyle::CentralWindow)
        fatal("%s: slot-priority windows are only modeled for the "
              "central-window organization", name.c_str());
    if (num_clusters > 1 && steering == SteeringPolicy::None)
        fatal("%s: clustered machines need a steering policy",
              name.c_str());
}

} // namespace cesp::uarch
