/**
 * @file
 * Implementation of the timing pipeline.
 */

#include "uarch/pipeline.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace cesp::uarch {

namespace {

/**
 * Visit the set bits of @p words in [@p lo, @p hi) in ascending order
 * until @p visit returns false. Each word is read once into a copy,
 * so @p visit may clear the bit it is given without disturbing the
 * walk. Returns false if @p visit stopped it.
 */
template <class Visit>
bool
walkUp(const std::vector<uint64_t> &words, size_t lo, size_t hi,
       Visit &&visit)
{
    if (lo >= hi)
        return true;
    size_t w = lo >> 6;
    const size_t last = (hi - 1) >> 6;
    uint64_t bits = words[w] & (~uint64_t{0} << (lo & 63));
    for (;;) {
        if (w == last && (hi & 63) != 0)
            bits &= (uint64_t{1} << (hi & 63)) - 1;
        while (bits != 0) {
            size_t b = static_cast<size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            if (!visit((w << 6) | b))
                return false;
        }
        if (w == last)
            return true;
        bits = words[++w];
    }
}

} // namespace

SimStats::SimStats(int num_clusters)
    : num_clusters_(std::clamp(num_clusters, 1, kMaxClusters)),
      group_("sim")
{
    // The tables in pipeline.hpp fix the order: scalar counters, the
    // per-cluster issue counters, histograms, then derived ratios.
#define CESP_ADD_COUNTER(name, unit, desc)                                    \
    group_.addCounter(#name, unit, desc);
    CESP_SIM_COUNTERS(CESP_ADD_COUNTER)
#undef CESP_ADD_COUNTER
    for (int c = 0; c < num_clusters_; ++c)
        group_.addCounter(
            strprintf("issued_cluster%d", c), "instructions",
            strprintf("Instructions issued on cluster %d", c));
#define CESP_ADD_HISTOGRAM(name, unit, desc, buckets, width, growable)        \
    group_.addHistogram(#name, unit, desc, buckets, width, growable);
    CESP_SIM_HISTOGRAMS(CESP_ADD_HISTOGRAM)
#undef CESP_ADD_HISTOGRAM
#define CESP_ADD_DERIVED(accessor, name, unit, desc, num, den, scale)         \
    group_.addDerived(name, unit, desc, #num, #den, scale);
    CESP_SIM_DERIVED(CESP_ADD_DERIVED)
#undef CESP_ADD_DERIVED
}

Pipeline::Pipeline(const SimConfig &cfg, trace::TraceView trace)
    : cfg_(cfg.validate()), trace_(trace),
      bpred_(bpred::makePredictor(cfg.bpred)),
      dcache_(cfg.dcache), rename_(cfg),
      select_rng_(cfg.random_seed ^ 0x5e1ec7ULL),
      stats_(cfg.num_clusters)
{
    stats_.config_name() = cfg_.name;

    // The event path serves one order, the paper's oldest-first
    // select over age (Section 4.3). Every other order (youngest-first,
    // random, a slot-priority window, in-order issue) keeps the
    // reference scan, whose candidate list each of them reorders or
    // cuts.
    event_driven_ =
        cfg_.issue_model == IssueModel::EventDriven &&
        !cfg_.in_order_issue &&
        cfg_.select_policy == SelectPolicy::OldestFirst &&
        cfg_.window_compaction;
    fu_symmetric_ = cfg_.fu_mix.symmetric();

    switch (cfg_.style) {
      case IssueBufferStyle::CentralWindow:
        windows_.emplace_back(cfg_.window_size,
                              cfg_.window_compaction
                                  ? WindowOrder::AgeCompacted
                                  : WindowOrder::SlotPriority);
        break;
      case IssueBufferStyle::PerClusterWindow:
        for (int c = 0; c < cfg_.num_clusters; ++c)
            windows_.emplace_back(cfg_.window_size);
        break;
      case IssueBufferStyle::Fifos:
        fifos_ = std::make_unique<FifoSet>(cfg_.num_clusters,
                                           cfg_.fifos_per_cluster,
                                           cfg_.fifo_depth);
        break;
    }
    if (cfg_.steering == SteeringPolicy::WindowFifo)
        fifos_ = std::make_unique<FifoSet>(
            cfg_.num_clusters, cfg_.concept_fifos_per_cluster,
            cfg_.concept_fifo_depth);

    steering_ = std::make_unique<Steering>(
        cfg_, fifos_.get(), windows_.empty() ? nullptr : &windows_);

    if (cfg_.l2.enabled)
        l2_ = std::make_unique<mem::Cache>(CacheConfig{
            cfg_.l2.size_bytes, cfg_.l2.associativity, cfg_.l2.line_bytes,
            cfg_.dcache.miss_latency, cfg_.l2.memory_latency});

    // The ring holds the in-flight and the fetched instructions.
    // Waiter links pack (slot << 1) | operand into 32 bits.
    const size_t age_slots =
        ceilPow2(static_cast<size_t>(cfg_.max_inflight));
    const size_t rob_slots =
        ceilPow2(static_cast<size_t>(cfg_.max_inflight) +
                 static_cast<size_t>(cfg_.fetch_queue));
    size_t bytes = rob_slots * sizeof(RobSlot) + 64;
    rob_storage_ = std::make_unique<std::byte[]>(bytes);
    void *base = rob_storage_.get();
    rob_ = static_cast<RobSlot *>(
        std::align(64, rob_slots * sizeof(RobSlot), base, bytes));
    std::uninitialized_value_construct_n(rob_, rob_slots);
    rob_mask_ = rob_slots - 1;
    age_mask_ = age_slots - 1;

    ready_bits_.assign((age_slots + 63) / 64, 0);

    // A pipelined wakeup+select loop (Figure 10) delays every
    // dependent issue by its extra stages; incomplete local bypassing
    // delays even same-cluster consumers, and a ring interconnect
    // forwards values hop by hop (PEWs-style, Section 5.6.2).
    const int n = cfg_.num_clusters;
    for (int from = 0; from < n; ++from) {
        for (int to = 0; to < n; ++to) {
            int d = from > to ? from - to : to - from;
            int hops = d == 0 ? 0
                : cfg_.interconnect == ClusterInterconnect::Broadcast
                ? 1
                : std::min(d, n - d);
            ready_offset_[from][to] =
                static_cast<uint64_t>(cfg_.wakeup_select_stages - 1) +
                (hops == 0
                     ? static_cast<uint64_t>(cfg_.local_bypass_extra)
                     : static_cast<uint64_t>(hops) *
                           static_cast<uint64_t>(
                               cfg_.inter_cluster_extra));
        }
    }

    // A wakeup is due at most the slowest result latency plus the
    // largest ready offset after the cycle that schedules it: its
    // last source's producer issued then or earlier. The wheel spans
    // more cycles than that, so it holds every wakeup.
    if (event_driven_) {
        int latency = std::max({cfg_.fu_latency, cfg_.dcache.hit_latency,
                                cfg_.dcache.miss_latency});
        if (cfg_.l2.enabled)
            latency = std::max(latency, cfg_.l2.memory_latency);
        uint64_t offset = 0;
        for (int from = 0; from < n; ++from)
            offset = std::max(offset,
                              *std::max_element(ready_offset_[from],
                                                ready_offset_[from] + n));
        const uint64_t slots =
            std::bit_ceil(static_cast<uint64_t>(latency) + offset + 1);
        wheel_mask_ = slots - 1;
        wheel_.assign(slots * ready_bits_.size(), 0);
    }
}

DynInst &
Pipeline::rob(uint64_t seq)
{
    if (seq < rob_head_ || seq >= rob_tail_)
        panic("rob: seq %llu outside [%llu, %llu)",
              (unsigned long long)seq, (unsigned long long)rob_head_,
              (unsigned long long)rob_tail_);
    return robSlot(seq);
}

bool
Pipeline::robFull() const
{
    return robSize() >= static_cast<size_t>(cfg_.max_inflight);
}

uint64_t
Pipeline::srcReadyCycle(const DynInst &inst, int cluster) const
{
    uint64_t r = 0;
    if (inst.src1_preg >= 0)
        r = std::max(r, rename_.preg(inst.src1_preg)
                            .ready_cycle[cluster]);
    if (inst.src2_preg >= 0)
        r = std::max(r, rename_.preg(inst.src2_preg)
                            .ready_cycle[cluster]);
    return r;
}

bool
Pipeline::srcsReady(const DynInst &inst, int cluster) const
{
    return srcReadyCycle(inst, cluster) <= now_;
}

int
Pipeline::fuClassOf(isa::OpClass cls)
{
    if (isa::isMem(cls))
        return 1;
    if (isa::isControl(cls))
        return 2;
    return 0;
}

bool
Pipeline::fuAvailable(int cluster, isa::OpClass cls,
                      const FuUsage &usage) const
{
    if (fu_symmetric_)
        return usage.total[cluster] < cfg_.fus_per_cluster;
    int t = fuClassOf(cls);
    int limit = t == 0 ? cfg_.fu_mix.alu
        : t == 1      ? cfg_.fu_mix.mem
                      : cfg_.fu_mix.branch;
    return usage.typed[cluster][t] < limit;
}

void
Pipeline::consumeFu(int cluster, isa::OpClass cls, FuUsage &usage)
{
    ++usage.total[cluster];
    if (!fu_symmetric_)
        ++usage.typed[cluster][fuClassOf(cls)];
}

int
Pipeline::chooseExecCluster(const DynInst &inst, isa::OpClass cls,
                            const FuUsage &usage) const
{
    // Section 5.6.1: assign to the cluster that provides the source
    // values first (given a free functional unit); both-ready ties go
    // to cluster 0.
    int best = -1;
    uint64_t best_ready = kNeverCycle;
    for (int c = 0; c < cfg_.num_clusters; ++c) {
        if (!fuAvailable(c, cls, usage))
            continue;
        uint64_t r = srcReadyCycle(inst, c);
        if (r > now_)
            continue;
        if (r < best_ready) {
            best_ready = r;
            best = c;
        }
    }
    return best;
}

int
Pipeline::cacheAccess(uint32_t addr, bool is_store)
{
    mem::Cache::Access l1 = dcache_.access(addr, is_store);
    ++stats_.dcache_accesses();
    if (l1.hit)
        return l1.latency;
    ++stats_.dcache_misses();
    if (!l2_)
        return l1.latency;
    // L1 miss with an L2 behind it: the L2 hit costs the Table 3
    // miss latency; an L2 miss goes all the way to memory.
    mem::Cache::Access l2 = l2_->access(addr, is_store);
    ++stats_.l2_accesses();
    if (!l2.hit)
        ++stats_.l2_misses();
    return l2.latency;
}

int
Pipeline::loadLatency(DynInst &inst)
{
    if (stq_.forwardFrom(inst.seq, inst.op.mem_addr,
                         inst.op.mem_size)) {
        ++stats_.store_forwards();
        return cfg_.dcache.hit_latency;
    }
    return cacheAccess(inst.op.mem_addr, false);
}

template <IssueBufferStyle S>
void
Pipeline::removeFromBuffer(DynInst &inst)
{
    if (!inst.in_buffer)
        panic("issue of seq %llu, which is not buffered",
              (unsigned long long)inst.seq);
    if constexpr (S == IssueBufferStyle::CentralWindow) {
        windows_[0].remove(inst.seq);
    } else if constexpr (S == IssueBufferStyle::PerClusterWindow) {
        windows_[static_cast<size_t>(inst.cluster)].remove(inst.seq);
        if (cfg_.steering == SteeringPolicy::WindowFifo)
            fifos_->remove(inst.fifo, inst.seq);
    } else {
        fifos_->popHead(inst.fifo, inst.seq);
    }
    inst.in_buffer = false;
}

template <IssueBufferStyle S>
void
Pipeline::completeIssue(DynInst &inst, int cluster, int latency)
{
    inst.cluster = cluster;
    inst.issued = true;
    inst.issue_cycle = now_;
    inst.complete_cycle = now_ + static_cast<uint64_t>(latency);

    // Inter-cluster bypass accounting (Section 5.6.4): an operand
    // that was produced in the other cluster and is not yet readable
    // from this cluster's register file arrived over the slow bypass.
    if (cfg_.num_clusters > 1) {
        for (int p : {inst.src1_preg, inst.src2_preg}) {
            if (p < 0)
                continue;
            const PhysReg &pr = rename_.preg(p);
            if (pr.producing_cluster != cluster &&
                now_ < pr.rfVisible(cluster, cfg_.regfile_extra)) {
                ++stats_.intercluster_bypasses();
                break;
            }
        }
    }

    if (event_driven_)
        readyClear(readyBit(inst));
    // Leave the buffer before waking dependents: a FIFO successor is
    // the head, as its wakeup requires, from here on.
    removeFromBuffer<S>(inst);

    if (inst.dst_preg >= 0) {
        PhysReg &pr = rename_.preg(inst.dst_preg);
        pr.computed_cycle = inst.complete_cycle;
        pr.producing_cluster = cluster;
        const uint64_t *offset = ready_offset_[cluster];
        for (int c = 0; c < cfg_.num_clusters; ++c)
            pr.ready_cycle[c] = inst.complete_cycle + offset[c];
        pr.scheduled = true;
        if (event_driven_) {
            uint32_t link = pr.first_waiter;
            pr.first_waiter = kNoWaiter;
            while (link != kNoWaiter) {
                DynInst &d = rob_[link >> 1].inst;
                link = d.next_waiter[link & 1];
                if (d.cluster >= 0)
                    d.ready_at =
                        std::max(d.ready_at, pr.ready_cycle[d.cluster]);
                if (--d.pending_srcs == 0)
                    scheduleReady<S>(d);
            }
        }
    }

    if (inst.op.isStore())
        stq_.markIssued(inst.seq);

    if (inst.mispredicted && inst.seq == blocking_branch_) {
        blocking_branch_ = kNoSeq;
        fetch_resume_ = inst.complete_cycle;
    }

    ++stats_.issued();
    ++stats_.issued_per_cluster(cluster);
    if (on_issue_)
        on_issue_(inst);
}

template <IssueBufferStyle S>
bool
Pipeline::tryIssueOne(DynInst &inst, int &global_issued,
                      FuUsage &usage)
{
    if (inst.issued || inst.dispatch_cycle >= now_)
        return false;
    if (inst.cluster >= 0 && !srcsReady(inst, inst.cluster))
        return false;
    return issueReady<S>(inst, global_issued, usage);
}

// issueReady and doDispatch are the per-instruction stages. Each is
// instantiated three times, so helpers they call once per style (the
// steering decision, renaming, the store queue, cache access) have
// three callers and the inliner no longer folds them in as it does
// for a single caller; flatten restores that, once per style.
template <IssueBufferStyle S>
[[gnu::flatten]] bool
Pipeline::issueReady(DynInst &inst, int &global_issued, FuUsage &usage)
{
    int cluster = inst.cluster;
    if (cluster < 0) {
        cluster = chooseExecCluster(inst, inst.op.cls, usage);
        if (cluster < 0)
            return false;
    } else if (!fuAvailable(cluster, inst.op.cls, usage)) {
        return false;
    }

    int latency = cfg_.fu_latency;
    if (inst.op.isLoad()) {
        if (ls_ports_used_ >= cfg_.ls_ports)
            return false;
        if (stq_.olderStoreUnissued(inst.seq))
            return false;
        ++ls_ports_used_;
        latency = loadLatency(inst);
    }

    completeIssue<S>(inst, cluster, latency);
    consumeFu(cluster, inst.op.cls, usage);
    ++global_issued;
    return true;
}

template <IssueBufferStyle S>
void
Pipeline::doIssue()
{
    if (event_driven_)
        doIssueEvent<S>();
    else
        doIssueScan<S>();
}

size_t
Pipeline::readyBit(const DynInst &inst) const
{
    return static_cast<size_t>(inst.seq & age_mask_);
}

DynInst &
Pipeline::readyInst(size_t bit)
{
    // The in-flight seqs [rob_head_, rob_head_ + age_mask_ + 1) map
    // one-to-one onto the age slots.
    return rob(rob_head_ + ((bit - rob_head_) & age_mask_));
}

void
Pipeline::readyClear(size_t bit)
{
    ready_bits_[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
}

uint64_t
Pipeline::instReadyCycle(const DynInst &inst) const
{
    // Execution-driven steering leaves the cluster unassigned until
    // issue: the instruction becomes selectable when any cluster can
    // provide its sources.
    uint64_t best = kNeverCycle;
    for (int c = 0; c < cfg_.num_clusters; ++c)
        best = std::min(best, srcReadyCycle(inst, c));
    return best;
}

template <IssueBufferStyle S>
void
Pipeline::scheduleReady(DynInst &inst)
{
    // Every buffered instruction gets exactly one wakeup, scheduled
    // once its last source is. For FIFOs that is always the head:
    // dependence steering chains an instruction only directly behind
    // an unissued producer, which is one of its sources, so its
    // wakeup waits for that producer's issue, which makes it the head
    // (completeIssue pops the producer before waking dependents); an
    // instruction with every source scheduled at dispatch opened a new
    // FIFO. A head leaves only by issuing, which needs its wakeup, so
    // every wakeup fires for a head and select never meets a buried
    // instruction.
    if constexpr (S == IssueBufferStyle::Fifos)
        if (fifos_->head(inst.fifo) != inst.seq)
            panic("wakeup for seq %llu, buried in fifo %d",
                  (unsigned long long)inst.seq, inst.fifo);
    // An assigned cluster's operands arrive at ready_at, which the
    // last source scheduled has completed; an unassigned one takes
    // the best cluster.
    const uint64_t ready =
        inst.cluster >= 0 ? inst.ready_at : instReadyCycle(inst);
    const uint64_t wake = std::max(ready, now_ + 1);
    if (wake - now_ > wheel_mask_)
        panic("wakeup for seq %llu at cycle %llu, beyond the %llu-cycle "
              "wheel", (unsigned long long)inst.seq,
              (unsigned long long)wake,
              (unsigned long long)(wheel_mask_ + 1));
    const uint64_t slot = wake & wheel_mask_;
    const size_t bit = readyBit(inst);
    wheel_[slot * ready_bits_.size() + (bit >> 6)] |= uint64_t{1}
        << (bit & 63);
}

template <IssueBufferStyle S>
void
Pipeline::wireDispatchEvents(DynInst &inst)
{
    // Each unscheduled source links this instruction into its
    // register's waiter list, one link per operand; a scheduled one
    // is folded into ready_at now.
    int pending = 0;
    uint64_t ready_at = 0;
    const uint32_t slot = static_cast<uint32_t>(inst.seq & rob_mask_);
    const int srcs[2] = {inst.src1_preg, inst.src2_preg};
    for (uint32_t k = 0; k < 2; ++k) {
        if (srcs[k] < 0)
            continue;
        PhysReg &pr = rename_.preg(srcs[k]);
        if (pr.scheduled) {
            if (inst.cluster >= 0)
                ready_at =
                    std::max(ready_at, pr.ready_cycle[inst.cluster]);
            continue;
        }
        inst.next_waiter[k] = pr.first_waiter;
        pr.first_waiter = (slot << 1) | k;
        ++pending;
    }
    inst.ready_at = ready_at;
    inst.pending_srcs = static_cast<int8_t>(pending);
    // All sources scheduled: the wakeup cycle is already final.
    if (pending == 0)
        scheduleReady<S>(inst);
}

void
Pipeline::drainWakeups()
{
    // A wheel slot holds only wakeups of buffered, unissued
    // instructions (each has one, and issue needs it), none of which
    // is in the ready set yet. The slot is a few words (two for a
    // 128-entry ROB), so it is ORed and cleared every cycle.
    uint64_t *w = &wheel_[(now_ & wheel_mask_) * ready_bits_.size()];
    for (size_t i = 0; i < ready_bits_.size(); ++i) {
        ready_bits_[i] |= w[i];
        w[i] = 0;
    }
}

template <IssueBufferStyle S>
void
Pipeline::doIssueEvent()
{
    drainWakeups();

    stats_.buffer_occupancy().addUnit(bufferedCount<S>());

    // Walk the ready bitmap oldest first. The only mutation
    // issuing can make is clearing the bit just visited, and wakeups
    // it schedules land at now_ + 1 or later, so the candidates seen
    // are exactly the cycle-start snapshot (matching the scan path's
    // fixed list). A set bit is proof enough of what the scan path
    // checks one by one: its instruction is buffered, unissued,
    // dispatched before this cycle (its wakeup is at least a cycle
    // after dispatch) and, on an assigned cluster, has its operands
    // there (the wakeup cycle is when they arrive, and a source's
    // ready cycles never change once scheduled).
    int global_issued = 0;
    FuUsage usage;
    auto visit = [&](size_t bit) {
        issueReady<S>(readyInst(bit), global_issued, usage);
        return global_issued < cfg_.issue_width;
    };
    // Age order is age-slot order from the head's: [h, n) holds
    // older seqs than [0, h).
    const size_t h = static_cast<size_t>(rob_head_ & age_mask_);
    const size_t n = static_cast<size_t>(age_mask_) + 1;
    if (walkUp(ready_bits_, h, n, visit))
        walkUp(ready_bits_, 0, h, visit);
    stats_.issue_sizes().addUnit(static_cast<size_t>(global_issued));
}

template <IssueBufferStyle S>
void
Pipeline::doIssueScan()
{
    // Gather this cycle's selection candidates in priority order:
    // slot order for a slot-priority window, otherwise age order,
    // which is the ROB's (only FIFO heads may issue).
    std::vector<uint64_t> candidates;
    bool slot_order = false;
    if constexpr (S == IssueBufferStyle::CentralWindow)
        slot_order = !cfg_.window_compaction;
    if (slot_order) {
        for (int slot = 0; slot < cfg_.window_size; ++slot)
            if (uint64_t s = windows_[0].seqAt(slot); s != kNoSeq)
                candidates.push_back(s);
    } else {
        for (uint64_t s = rob_head_; s < rob_tail_; ++s) {
            const DynInst &d = robSlot(s);
            if (!d.in_buffer)
                continue;
            if constexpr (S == IssueBufferStyle::Fifos)
                if (fifos_->head(d.fifo) != s)
                    continue;
            candidates.push_back(s);
        }
    }

    // Selection-policy ordering (Section 4.3; default oldest-first).
    switch (cfg_.select_policy) {
      case SelectPolicy::OldestFirst:
        break; // already ascending
      case SelectPolicy::YoungestFirst:
        std::reverse(candidates.begin(), candidates.end());
        break;
      case SelectPolicy::Random:
        for (size_t i = candidates.size(); i > 1; --i)
            std::swap(candidates[i - 1],
                      candidates[select_rng_.below(i)]);
        break;
    }

    stats_.buffer_occupancy().addUnit(bufferedCount<S>());

    int global_issued = 0;
    FuUsage usage;
    for (uint64_t seq : candidates) {
        if (global_issued >= cfg_.issue_width)
            break;
        bool issued_this =
            tryIssueOne<S>(rob(seq), global_issued, usage);
        // A strictly in-order pipeline stops at the first stalled
        // instruction (no selection among younger ready ones).
        if (!issued_this && cfg_.in_order_issue)
            break;
    }
    stats_.issue_sizes().addUnit(static_cast<size_t>(global_issued));
}

template <IssueBufferStyle S>
size_t
Pipeline::bufferedCount() const
{
    if constexpr (S == IssueBufferStyle::Fifos) {
        return fifos_->totalEntries();
    } else {
        size_t n = 0;
        for (const auto &w : windows_)
            n += static_cast<size_t>(w.size());
        return n;
    }
}

void
Pipeline::doCommit()
{
    for (int n = 0; n < cfg_.retire_width && robSize() > 0; ++n) {
        DynInst &head = robSlot(rob_head_);
        if (!head.readyToCommit(now_))
            break;
        if (head.op.isStore()) {
            if (ls_ports_used_ >= cfg_.ls_ports)
                break; // no cache port this cycle; retry next cycle
            ++ls_ports_used_;
            cacheAccess(head.op.mem_addr, true);
            stq_.commit(head.seq);
            ++stats_.stores();
        } else if (head.op.isLoad()) {
            ++stats_.loads();
        }
        if (head.old_preg >= 0)
            rename_.release(head.old_preg);
        ++stats_.committed();
        ++rob_head_;
        // The warmup boundary is commit-precise: the moment the
        // warmup-th instruction retires, measurement begins —
        // younger instructions committing in this same cycle are
        // measured.
        if (warmup_pending_ &&
            stats_.committed() == warmup_target_)
            beginMeasurement();
        // Sampling covers the measured region only; warmup-phase
        // commits tick toward the boundary, not toward a snapshot.
        if (sample_every_ && !warmup_pending_ &&
            stats_.committed() == next_sample_)
            emitSnapshot();
    }
}

void
Pipeline::beginMeasurement()
{
    warmup_pending_ = false;
    stats_.group().reset();
    next_sample_ = sample_every_;
    sample_index_ = 0;
    have_sample_prev_ = false;
}

void
Pipeline::emitSnapshot()
{
    // The live registry is only read: final stats are bit-identical
    // with sampling on or off.
    StatSnapshot snap;
    snap.index = sample_index_++;
    snap.committed = stats_.committed();
    snap.cycles = stats_.cycles();
    snap.cumulative = stats_.group();
    snap.delta = have_sample_prev_
        ? snap.cumulative.deltaSince(sample_prev_)
        : snap.cumulative;
    sample_prev_ = snap.cumulative;
    have_sample_prev_ = true;
    next_sample_ += sample_every_;
    sampler_(snap);
}

template <IssueBufferStyle S>
[[gnu::flatten]] void
Pipeline::doDispatch()
{
    for (int n = 0; n < cfg_.rename_width; ++n) {
        if (rob_tail_ == next_seq_)
            return; // fetch queue empty
        // The oldest fetched instruction, in the slot fetch wrote; it
        // joins the ROB by moving rob_tail_ past it.
        DynInst &inst = robSlot(rob_tail_);
        if (inst.frontend_exit > now_)
            return;
        if (robFull()) {
            ++stats_.dispatch_stall_rob();
            return;
        }
        const trace::TraceOp &op = inst.op;
        if (op.hasDst() && !rename_.hasFreeFor(op.dst)) {
            ++stats_.dispatch_stall_regs();
            return;
        }
        // Central-window capacity check (steering handles the rest).
        if constexpr (S == IssueBufferStyle::CentralWindow) {
            if (windows_[0].full()) {
                ++stats_.dispatch_stall_buffer();
                return;
            }
        }

        // Resolve sources against the current map (before the
        // destination is renamed: src may equal dst).
        inst.src1_preg =
            op.src1 > 0 ? rename_.mapOf(op.src1) : -1;
        inst.src2_preg =
            op.src2 > 0 ? rename_.mapOf(op.src2) : -1;

        SteerDecision d = steering_->decide(
            inst, rename_, now_,
            [this](uint64_t s) -> const DynInst & { return rob(s); });
        if (!d.ok) {
            // Only the source registers are written, and the retry
            // rewrites them.
            ++stats_.dispatch_stall_buffer();
            return;
        }
        inst.cluster = d.cluster;
        inst.fifo = d.fifo;
        switch (d.kind) {
          case SteerKind::NewFifo:
            ++stats_.steer_new_fifo();
            break;
          case SteerKind::ChainLeft:
            ++stats_.steer_chain_left();
            break;
          case SteerKind::ChainRight:
            ++stats_.steer_chain_right();
            break;
          default:
            break;
        }

        if (op.hasDst()) {
            auto r = rename_.rename(op.dst, inst.seq);
            inst.dst_preg = r.preg;
            inst.old_preg = r.old_preg;
        }

        // Insert into the issue buffering.
        if constexpr (S == IssueBufferStyle::CentralWindow) {
            windows_[0].insert(inst.seq);
        } else if constexpr (S == IssueBufferStyle::PerClusterWindow) {
            windows_[static_cast<size_t>(inst.cluster)].insert(
                inst.seq);
            if (cfg_.steering == SteeringPolicy::WindowFifo)
                fifos_->push(inst.fifo, inst.seq);
        } else {
            fifos_->push(inst.fifo, inst.seq);
        }

        if (op.isStore())
            stq_.dispatch(inst.seq, op.mem_addr, op.mem_size);

        inst.dispatch_cycle = now_;
        inst.in_buffer = true;
        ++rob_tail_;
        if (event_driven_)
            wireDispatchEvents<S>(inst);
        ++stats_.dispatched();
        if (on_dispatch_)
            on_dispatch_(inst);
    }
}

void
Pipeline::doFetch()
{
    if (trace_done_)
        return;
    if (blocking_branch_ != kNoSeq || now_ < fetch_resume_)
        return;

    for (int n = 0; n < cfg_.fetch_width; ++n) {
        if (fetchQueueSize() >= static_cast<size_t>(cfg_.fetch_queue))
            return;

        if (next_seq_ == trace_.count) {
            trace_done_ = true;
            return;
        }
        // The ring holds max_inflight + fetch_queue seqs, so the slot
        // is free unless a bound above is broken.
        if (next_seq_ - rob_head_ > rob_mask_)
            panic("fetch: slot of seq %llu still holds live seq %llu",
                  (unsigned long long)next_seq_,
                  (unsigned long long)(next_seq_ - rob_mask_ - 1));
        // Write the record straight into the instruction's ROB slot.
        // Everything a dispatch observer may read that dispatch does
        // not write is reset here, once per instruction.
        DynInst &inst = robSlot(next_seq_);
        inst.op = trace_[next_seq_];
        const trace::TraceOp &op = inst.op;
        inst.seq = next_seq_++;
        inst.frontend_exit =
            now_ + static_cast<uint64_t>(cfg_.frontend_latency);
        inst.mispredicted = false;
        inst.issued = false;
        inst.issue_cycle = kNeverCycle;
        inst.complete_cycle = kNeverCycle;
        inst.dst_preg = -1;
        inst.old_preg = -1;
        inst.pending_srcs = 0;
        inst.ready_at = 0;
        inst.next_waiter[0] = inst.next_waiter[1] = kNoWaiter;
        ++stats_.fetched();

        if (op.isCondBranch()) {
            ++stats_.cond_branches();
            bool pred = cfg_.bpred.perfect ? op.taken
                                           : bpred_->predict(op.pc);
            bpred_->record(pred, op.taken);
            bpred_->update(op.pc, op.taken);
            if (pred != op.taken) {
                ++stats_.mispredicts();
                inst.mispredicted = true;
                blocking_branch_ = inst.seq;
                return; // delivery stalls until the branch executes
            }
        }

        if (op.cls == isa::OpClass::Halt) {
            trace_done_ = true;
            return;
        }
    }
}

SimStats
Pipeline::run(const RunLimits &limits)
{
    if (now_ != 0)
        panic("Pipeline::run is single-use; construct a new Pipeline");
    if (limits.max_instructions < trace_.count)
        trace_ = trace_.slice(0, limits.max_instructions);
    warmup_target_ = limits.warmup;
    warmup_pending_ = limits.warmup > 0;
    sampler_ = limits.sampler;
    sample_every_ = sampler_ ? limits.sample_every : 0;
    next_sample_ = sample_every_;

    switch (cfg_.style) {
      case IssueBufferStyle::CentralWindow:
        runLoop<IssueBufferStyle::CentralWindow>();
        break;
      case IssueBufferStyle::PerClusterWindow:
        runLoop<IssueBufferStyle::PerClusterWindow>();
        break;
      case IssueBufferStyle::Fifos:
        runLoop<IssueBufferStyle::Fifos>();
        break;
    }

    // A run shorter than its warmup has an empty measured region:
    // reset at drain so the caller sees zeros, not warmup noise.
    if (warmup_pending_)
        beginMeasurement();
    return stats_;
}

template <IssueBufferStyle S>
void
Pipeline::runLoop()
{
    uint64_t last_progress_cycle = 0;
    uint64_t last_committed = 0;

    // Drained: nothing fetched is left in the ring.
    while (!(trace_done_ && next_seq_ == rob_head_)) {
        ls_ports_used_ = 0;
        doCommit();
        doIssue<S>();
        doDispatch<S>();
        doFetch();
        ++now_;
        ++stats_.cycles();

        if (stats_.committed() != last_committed) {
            last_committed = stats_.committed();
            last_progress_cycle = now_;
        } else if (now_ - last_progress_cycle > kNoCommitWatchdog) {
            panic("pipeline deadlock: no commit in %llu cycles "
                  "(config %s, cycle %llu, rob %zu)",
                  (unsigned long long)kNoCommitWatchdog,
                  cfg_.name.c_str(), (unsigned long long)now_,
                  robSize());
        }
    }
}

SimStats
simulate(const SimConfig &cfg, trace::TraceView trace,
         const RunLimits &limits)
{
    Pipeline p(cfg, trace);
    return p.run(limits);
}

} // namespace cesp::uarch
