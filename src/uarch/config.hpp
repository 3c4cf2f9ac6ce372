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
#include <type_traits>

namespace cesp::uarch {

/** Maximum clusters supported by the engine. */
constexpr int kMaxClusters = 4;

/**
 * Cycles without a commit after which the pipeline reports a
 * deadlock. SimConfig::validate() keeps every configured latency
 * path well inside this window, so only a simulator bug trips it.
 */
constexpr uint64_t kNoCommitWatchdog = 100000;

/** Largest issue buffer per cluster, in-flight window, fetch queue
 *  or register file: far above any modeled machine. */
constexpr long long kMaxEntries = 65536;

/** Largest pipeline width, unit count or port count. */
constexpr long long kMaxWidth = 1024;

/** Largest latency in cycles; validate() also bounds their sum. */
constexpr long long kMaxLatency = 10000;

/*
 * Every numeric and boolean field of the configuration structs is one
 * row, X(type, name, default, min, max, doc): the member, validate()'s
 * check that it lies in [min, max], and its visit in forEachField()
 * (`cesp-sim --set`, the tests). Rules between fields stay code in
 * validate(). The enum fields and the name are hand-declared; the
 * SimConfig segments keep the member order around them.
 */

/** Data cache (Table 3: 32 KB, 2-way, 32-byte lines, 1/6 cycles). */
#define CESP_CACHE_FIELDS(X)                                                  \
    X(uint32_t, size_bytes, 32 * 1024, 1, 1 << 22, "capacity in bytes")       \
    X(int, associativity, 2, 1, 1024, "ways per set")                         \
    X(uint32_t, line_bytes, 32, 1, 4096, "line size in bytes")                \
    X(int, hit_latency, 1, 1, kMaxLatency, "load-to-use cycles on a hit")     \
    X(int, miss_latency, 6, 1, kMaxLatency, "load-to-use cycles on a miss")

/** The optional L2; memory_latency is what an L2 miss costs. */
#define CESP_L2_FIELDS(X)                                                     \
    X(bool, enabled, false, 0, 1, "model a second-level cache")               \
    X(uint32_t, size_bytes, 256 * 1024, 1, 1 << 22, "capacity in bytes")      \
    X(int, associativity, 4, 1, 1024, "ways per set")                         \
    X(uint32_t, line_bytes, 32, 1, 4096, "line size in bytes")                \
    X(int, memory_latency, 24, 1, kMaxLatency, "L1-to-data cycles, L2 miss")

/** Branch predictor; the bit widths are gshare's own limits. */
#define CESP_BPRED_FIELDS(X)                                                  \
    X(int, history_bits, 12, 0, 30, "gshare global history length")           \
    X(int, counter_bits, 2, 1, 7, "saturating counter width")                 \
    X(int, table_entries, 4096, 1, 1 << 20, "counters, a power of two")       \
    X(bool, perfect, false, 0, 1, "oracle conditional prediction")

/** Typed units per cluster: all zero, or at least one of each. */
#define CESP_FU_MIX_FIELDS(X)                                                 \
    X(int, alu, 0, 0, kMaxWidth, "units for integer/FP computation")          \
    X(int, mem, 0, 0, kMaxWidth, "address units for loads/stores")            \
    X(int, branch, 0, 0, kMaxWidth, "branch-resolution units")

/** SimConfig rows before `style`: Table 3's widths. */
#define CESP_SIM_WIDTH_FIELDS(X)                                              \
    X(int, fetch_width, 8, 1, kMaxWidth, "instructions fetched per cycle")    \
    X(int, rename_width, 8, 1, kMaxWidth, "instructions renamed per cycle")   \
    X(int, issue_width, 8, 1, kMaxWidth, "machine-wide issues per cycle")     \
    X(int, retire_width, 16, 1, kMaxWidth, "instructions retired per cycle")  \
    X(int, max_inflight, 128, 1, kMaxEntries, "in-flight instructions")

/** SimConfig rows before `fu_mix`: issue buffers and clusters. */
#define CESP_SIM_BUFFER_FIELDS(X)                                             \
    /* The total for CentralWindow, per cluster for PerClusterWindow. */      \
    X(int, window_size, 64, 1, kMaxEntries, "window entries")                 \
    X(int, fifos_per_cluster, 8, 1, kMaxEntries, "FIFOs per cluster")         \
    X(int, fifo_depth, 8, 1, kMaxEntries, "entries per FIFO")                 \
    /* The conceptual FIFOs of WindowFifo steering. */                        \
    X(int, concept_fifos_per_cluster, 8, 1, kMaxEntries, "conceptual FIFOs")  \
    X(int, concept_fifo_depth, 4, 1, kMaxEntries, "conceptual FIFO depth")    \
    X(int, num_clusters, 1, 1, kMaxClusters, "execution clusters")            \
    X(int, fus_per_cluster, 8, 1, kMaxWidth, "symmetric units per cluster")

#define CESP_SIM_UNIT_FIELDS(X)                                               \
    X(int, ls_ports, 4, 1, kMaxWidth, "cache load/store ports")               \
    X(int, fu_latency, 1, 1, kMaxLatency, "execution cycles (Table 3: 1)")

/*
 * SimConfig rows before `select_policy`: cluster bypass timing
 * (Section 5.4). A result is usable in its own cluster after
 * fu_latency and in others after fu_latency + inter_cluster_extra.
 */
#define CESP_SIM_BYPASS_FIELDS(X)                                             \
    X(int, inter_cluster_extra, 1, 0, kMaxLatency, "to another cluster")      \
    /* Incomplete bypassing (Section 4.5, after Ahuja et al.). */             \
    X(int, local_bypass_extra, 0, 0, kMaxLatency, "within its cluster")       \
    /* 1 is atomic; S > 1 puts S - 1 bubbles between dependent */             \
    /* issues (Figure 10). */                                                 \
    X(int, wakeup_select_stages, 1, 1, kMaxLatency, "wakeup+select stages")

#define CESP_SIM_CORE_FIELDS(X)                                               \
    /* Keeps position priority age-ordered (Section 4.3.1). */                \
    X(bool, window_compaction, true, 0, 1, "compact the window on issue")     \
    /* A "speed demon" (Section 1): no wakeup/select CAM at all. */           \
    X(bool, in_order_issue, false, 0, 1, "issue in program order")            \
    /* Operands read before it count as bypassed (Figure 17). */              \
    X(int, regfile_extra, 1, 0, kMaxLatency, "cycles to the register file")   \
    /* Table 3: 120 int / 120 fp, more than the 32 architectural. */          \
    X(int, phys_int_regs, 120, 33, kMaxEntries, "integer physical registers") \
    X(int, phys_fp_regs, 120, 33, kMaxEntries, "FP physical registers")       \
    X(int, frontend_latency, 2, 1, kMaxLatency, "fetch to rename-ready")      \
    X(int, fetch_queue, 24, 1, kMaxEntries, "fetch buffer, instructions")

#define CESP_SIM_SEED_FIELDS(X)                                               \
    X(uint64_t, random_seed, 12345, 0, INT64_MAX, "random steering/select")

/** Every SimConfig row of its own (the nested structs have theirs). */
#define CESP_SIM_FIELDS(X)                                                    \
    CESP_SIM_WIDTH_FIELDS(X) CESP_SIM_BUFFER_FIELDS(X)                        \
    CESP_SIM_UNIT_FIELDS(X) CESP_SIM_BYPASS_FIELDS(X)                         \
    CESP_SIM_CORE_FIELDS(X) CESP_SIM_SEED_FIELDS(X)

#define CESP_CONFIG_MEMBER(type, name, def, ...) type name = def;

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
    CESP_CACHE_FIELDS(CESP_CONFIG_MEMBER)
    friend bool operator==(const CacheConfig &, const CacheConfig &) = default;
};

/**
 * Optional second-level cache (an extension beyond Table 3's flat
 * 6-cycle miss). When enabled, an L1 miss that hits in the L2 costs
 * the Table 3 miss latency; an L2 miss goes to memory.
 */
struct L2Config
{
    CESP_L2_FIELDS(CESP_CONFIG_MEMBER)
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
    CESP_BPRED_FIELDS(CESP_CONFIG_MEMBER)
    friend bool operator==(const BpredConfig &, const BpredConfig &) = default;
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
    CESP_FU_MIX_FIELDS(CESP_CONFIG_MEMBER)

    /** All zero = symmetric pool of fus_per_cluster units. */
    bool
    symmetric() const
    {
        return alu == 0 && mem == 0 && branch == 0;
    }

    friend bool operator==(const FuMix &, const FuMix &) = default;
};

/** Full machine configuration. */
struct SimConfig
{
    std::string name = "baseline-8way";

    CESP_SIM_WIDTH_FIELDS(CESP_CONFIG_MEMBER)

    // Issue buffering and execution resources.
    IssueBufferStyle style = IssueBufferStyle::CentralWindow;
    SteeringPolicy steering = SteeringPolicy::None;
    CESP_SIM_BUFFER_FIELDS(CESP_CONFIG_MEMBER)
    /** Typed unit mix per cluster (all zero = symmetric, Table 3). */
    FuMix fu_mix;
    CESP_SIM_UNIT_FIELDS(CESP_CONFIG_MEMBER)
    /** Result interconnect between clusters. */
    ClusterInterconnect interconnect = ClusterInterconnect::Broadcast;
    CESP_SIM_BYPASS_FIELDS(CESP_CONFIG_MEMBER)

    /** Selection order among ready instructions. */
    SelectPolicy select_policy = SelectPolicy::OldestFirst;
    CESP_SIM_CORE_FIELDS(CESP_CONFIG_MEMBER)

    CacheConfig dcache;
    L2Config l2;
    BpredConfig bpred;

    CESP_SIM_SEED_FIELDS(CESP_CONFIG_MEMBER)

    /** Every field, name too (runGrid matches machines without it). */
    friend bool operator==(const SimConfig &, const SimConfig &) = default;

    /** Fatal unless all fields are in range and agree; returns *this. */
    const SimConfig &validate() const;
};

#undef CESP_CONFIG_MEMBER

/** One row as forEachField() visits it. */
struct ConfigField
{
    std::string path; //!< e.g. "window_size" or "dcache.miss_latency"
    long long min, max;
    const char *doc;
};

/**
 * Call @p f(field, member) for every row of @p c (a SimConfig or one
 * of its nested structs, const or not): SimConfig's own rows, then
 * those of fu_mix, dcache, l2 and bpred.
 */
template <class Config, class F>
void
forEachField(Config &c, F &&f, const std::string &scope = "")
{
#define CESP_CONFIG_VISIT(type, name, def, min, max, doc)                     \
    f(ConfigField{scope + #name, min, max, doc}, c.name);
    using T = std::remove_const_t<Config>;
    if constexpr (std::is_same_v<T, FuMix>) {
        CESP_FU_MIX_FIELDS(CESP_CONFIG_VISIT)
    } else if constexpr (std::is_same_v<T, CacheConfig>) {
        CESP_CACHE_FIELDS(CESP_CONFIG_VISIT)
    } else if constexpr (std::is_same_v<T, L2Config>) {
        CESP_L2_FIELDS(CESP_CONFIG_VISIT)
    } else if constexpr (std::is_same_v<T, BpredConfig>) {
        CESP_BPRED_FIELDS(CESP_CONFIG_VISIT)
    } else {
        static_assert(std::is_same_v<T, SimConfig>);
        CESP_SIM_FIELDS(CESP_CONFIG_VISIT)
        forEachField(c.fu_mix, f, "fu_mix.");
        forEachField(c.dcache, f, "dcache.");
        forEachField(c.l2, f, "l2.");
        forEachField(c.bpred, f, "bpred.");
    }
#undef CESP_CONFIG_VISIT
}

/**
 * Set the field at @p path to the integer @p value (a bool takes 0 or
 * 1); fatal, naming the field and its range, unless a row has that
 * path and range. Rules between fields are left to validate().
 */
void setField(SimConfig &c, const std::string &path,
              const std::string &value);

} // namespace cesp::uarch

#endif // CESP_UARCH_CONFIG_HPP
