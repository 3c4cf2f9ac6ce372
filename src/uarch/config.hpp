/**
 * @file
 * Timing-simulator configuration. Defaults follow Table 3 of the
 * paper (the baseline simulation model) exactly; the issue-buffer
 * style and steering policy select among the organizations evaluated
 * in Section 5 (Figures 13, 15, 17).
 */

#ifndef CESP_UARCH_CONFIG_HPP
#define CESP_UARCH_CONFIG_HPP

#include <cstdint>
#include <string>

namespace cesp::uarch {

/** Maximum clusters supported by the engine. */
constexpr int kMaxClusters = 4;

/**
 * Cycles without a commit after which the pipeline reports a
 * deadlock. SimConfig::validate() keeps every configured latency
 * path well inside this window, so only a simulator bug trips it.
 */
constexpr uint64_t kNoCommitWatchdog = 100000;

/**
 * Largest issue buffer (window entries, or FIFO slots) per cluster.
 * Far above any modeled machine; larger requests are config errors,
 * not allocation failures.
 */
constexpr int64_t kMaxBufferEntries = 65536;

/** Organization of the issue buffering. */
enum class IssueBufferStyle
{
    CentralWindow,    //!< one flexible window shared by all clusters
    PerClusterWindow, //!< one flexible window per cluster
    Fifos,            //!< in-order FIFOs per cluster (dependence-based)
};

/** Instruction-to-cluster/FIFO steering policy. */
enum class SteeringPolicy
{
    None,            //!< single cluster, central window
    DependenceFifo,  //!< Section 5.1 heuristic onto real FIFOs
    WindowFifo,      //!< Section 5.6.2: conceptual FIFOs over windows
    ExecutionDriven, //!< Section 5.6.1: cluster chosen at issue
    Random,          //!< Section 5.6.3: random cluster at dispatch
};

/** Data-cache parameters (Table 3 defaults). */
struct CacheConfig
{
    uint32_t size_bytes = 32 * 1024;
    int associativity = 2;
    uint32_t line_bytes = 32;
    int hit_latency = 1;
    int miss_latency = 6;
    friend bool operator==(const CacheConfig &, const CacheConfig &) = default;
};

/**
 * Optional second-level cache (an extension beyond Table 3's flat
 * 6-cycle miss). When enabled, an L1 miss that hits in the L2 costs
 * the Table 3 miss latency; an L2 miss goes to memory.
 */
struct L2Config
{
    bool enabled = false;
    uint32_t size_bytes = 256 * 1024;
    int associativity = 4;
    uint32_t line_bytes = 32;
    int memory_latency = 24; //!< L1-to-data cycles on an L2 miss
    friend bool operator==(const L2Config &, const L2Config &) = default;
};

/** Direction predictor family. */
enum class BpredKind
{
    Gshare,      //!< McFarling gshare (Table 3)
    Bimodal,     //!< per-pc 2-bit counters
    AlwaysTaken,
    NeverTaken,
};

/** Branch predictor parameters (Table 3 defaults). */
struct BpredConfig
{
    BpredKind kind = BpredKind::Gshare;
    int history_bits = 12;    //!< gshare global history length
    int counter_bits = 2;     //!< saturating counter width
    int table_entries = 4096; //!< 4K counters
    bool perfect = false;     //!< oracle conditional prediction
    friend bool operator==(const BpredConfig &, const BpredConfig &) = default;
};

/**
 * How the simulator finds ready instructions each cycle. Both models
 * are observationally identical (cycle- and statistic-exact); the
 * knob exists so tests can compare them.
 *
 *  - EventDriven (default): wakeup events. When an instruction
 *    issues, its completion time is known, so a wakeup is scheduled
 *    for each dependent at the exact cycle its value becomes usable
 *    in the dependent's cluster; selection walks a maintained ready
 *    set oldest first. That is the only order the event path serves:
 *    youngest-first or random selection, a slot-priority window
 *    (window_compaction false) and in-order issue fall back to the
 *    scan model internally, which reorders or cuts its full
 *    per-cycle candidate list for each (random selection shuffles
 *    the entire buffer, not just the ready set, and in-order issue
 *    stalls on the oldest *unready* instruction).
 *  - LegacyScan: re-scan every buffered instruction every cycle,
 *    mirroring the broadcast-wakeup hardware of Section 4.2. The
 *    candidates come from the ROB in age order (slot order for a
 *    slot-priority window). Kept as the reference for equivalence
 *    tests.
 */
enum class IssueModel
{
    EventDriven,
    LegacyScan,
};

/**
 * Order in which ready instructions are considered by the selection
 * logic. The paper adopts position-based (oldest-first) selection
 * from the HP PA-8000 and cites Butler and Patt's finding that
 * overall performance is largely independent of the policy
 * (Section 4.3) — the alternatives exist to reproduce that claim.
 */
enum class SelectPolicy
{
    OldestFirst,
    YoungestFirst,
    Random,
};

/**
 * Inter-cluster result interconnect. The paper assumes a broadcast
 * (every other cluster sees a result after one extra cycle); Kemp and
 * Franklin's PEWs, discussed in Section 5.6.2, moves values over a
 * ring, where latency grows with hop distance — the Ring option
 * models that comparison for machines with more than two clusters.
 */
enum class ClusterInterconnect
{
    Broadcast, //!< uniform inter_cluster_extra to every cluster
    Ring,      //!< inter_cluster_extra per ring hop
};

/**
 * Functional-unit mix per cluster. Table 3 uses symmetric units (any
 * instruction on any unit); a non-symmetric mix adds per-class
 * structural hazards (integer/branch ops on ALUs, memory ops on
 * load/store units).
 */
struct FuMix
{
    int alu = 0;    //!< units for integer/FP computation
    int mem = 0;    //!< address-generation units for loads/stores
    int branch = 0; //!< branch-resolution units

    /** All zero = symmetric pool of fus_per_cluster units. */
    bool
    symmetric() const
    {
        return alu == 0 && mem == 0 && branch == 0;
    }

    int total() const { return alu + mem + branch; }
    friend bool operator==(const FuMix &, const FuMix &) = default;
};

/** Full machine configuration. */
struct SimConfig
{
    std::string name = "baseline-8way";

    // Widths (Table 3).
    int fetch_width = 8;
    int rename_width = 8;
    int issue_width = 8;   //!< machine-wide per-cycle issue limit
    int retire_width = 16;
    int max_inflight = 128;

    // Issue buffering.
    IssueBufferStyle style = IssueBufferStyle::CentralWindow;
    SteeringPolicy steering = SteeringPolicy::None;
    /**
     * Flexible window entries: the total size for CentralWindow, the
     * per-cluster size for PerClusterWindow.
     */
    int window_size = 64;
    int fifos_per_cluster = 8; //!< Fifos style
    int fifo_depth = 8;
    /** Conceptual FIFO shape used by WindowFifo steering. */
    int concept_fifos_per_cluster = 8;
    int concept_fifo_depth = 4;

    // Execution resources.
    int num_clusters = 1;
    int fus_per_cluster = 8;  //!< symmetric functional units
    /** Typed unit mix per cluster (all zero = symmetric, Table 3). */
    FuMix fu_mix;
    int ls_ports = 4;         //!< cache load/store ports (machine-wide)
    int fu_latency = 1;       //!< Table 3: all units 1 cycle
    /** Result interconnect between clusters. */
    ClusterInterconnect interconnect = ClusterInterconnect::Broadcast;

    // Cluster bypass timing (Section 5.4): results are usable in the
    // producing cluster after fu_latency and in other clusters after
    // fu_latency + inter_cluster_extra.
    int inter_cluster_extra = 1;
    /**
     * Extra cycles before a result is usable even in its own cluster
     * (0 = fully bypassed). Models removing same-cycle bypass paths
     * (Section 4.5's discussion of incomplete bypassing, after Ahuja
     * et al.).
     */
    int local_bypass_extra = 0;
    /**
     * Depth of the wakeup+select loop in pipeline stages. 1 (the
     * paper's atomic operation) lets dependent instructions issue in
     * consecutive cycles; S > 1 inserts S-1 bubbles between
     * dependent issues (Figure 10).
     */
    int wakeup_select_stages = 1;
    /** Selection order among ready instructions. */
    SelectPolicy select_policy = SelectPolicy::OldestFirst;
    /** Ready-instruction discovery model (identical results). */
    IssueModel issue_model = IssueModel::EventDriven;
    /**
     * Compact the central window on issue so position priority stays
     * age-ordered (Section 4.3.1). When false, dispatch reuses freed
     * slots and priority is by slot position only.
     */
    bool window_compaction = true;
    /**
     * Issue strictly in program order (a "speed demon" pipeline,
     * Section 1): an instruction issues only after every older
     * instruction has issued, eliminating the wakeup/select CAM
     * entirely. Central-window, single-cluster machines only.
     */
    bool in_order_issue = false;
    /**
     * Cycles after a value's first bypass availability until it can
     * be read from a cluster's register file (used to classify
     * operands as bypassed vs read-from-RF for the Figure 17 stat).
     */
    int regfile_extra = 1;

    // Register file (Table 3: 120 int / 120 fp physical registers).
    int phys_int_regs = 120;
    int phys_fp_regs = 120;

    // Front end: cycles from fetch to rename-ready (decode depth).
    int frontend_latency = 2;
    /** Fetch buffer capacity (instructions). */
    int fetch_queue = 24;

    CacheConfig dcache;
    L2Config l2;
    BpredConfig bpred;

    uint64_t random_seed = 12345; //!< for Random steering

    /** Every field, name too (runGrid matches machines without it). */
    friend bool operator==(const SimConfig &, const SimConfig &) = default;

    /** Sanity-check parameter consistency; fatal on bad configs. */
    void validate() const;
};

} // namespace cesp::uarch

#endif // CESP_UARCH_CONFIG_HPP
