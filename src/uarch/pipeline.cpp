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

/** walkUp's mirror: set bits of [@p lo, @p hi) in descending order. */
template <class Visit>
bool
walkDown(const std::vector<uint64_t> &words, size_t lo, size_t hi,
         Visit &&visit)
{
    if (lo >= hi)
        return true;
    size_t w = (hi - 1) >> 6;
    const size_t first = lo >> 6;
    uint64_t bits = words[w];
    if ((hi & 63) != 0)
        bits &= (uint64_t{1} << (hi & 63)) - 1;
    for (;;) {
        if (w == first)
            bits &= ~uint64_t{0} << (lo & 63);
        while (bits != 0) {
            size_t b = 63 - static_cast<size_t>(std::countl_zero(bits));
            bits &= ~(uint64_t{1} << b);
            if (!visit((w << 6) | b))
                return false;
        }
        if (w == first)
            return true;
        bits = words[--w];
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
    : cfg_(cfg), trace_(trace), bpred_(bpred::makePredictor(cfg.bpred)),
      dcache_(cfg.dcache), rename_(cfg),
      select_rng_(cfg.random_seed ^ 0x5e1ec7ULL),
      stats_(cfg.num_clusters)
{
    cfg_.validate();
    stats_.config_name() = cfg_.name;

    // Random selection shuffles the entire buffer and in-order issue
    // stalls on unready instructions — both are defined over the full
    // candidate list, so they keep the reference scan.
    event_driven_ =
        cfg_.issue_model == IssueModel::EventDriven &&
        !cfg_.in_order_issue &&
        cfg_.select_policy != SelectPolicy::Random;
    slot_keyed_ = cfg_.style == IssueBufferStyle::CentralWindow &&
        !cfg_.window_compaction;

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

    if (cfg_.l2.enabled) {
        CacheConfig l2c;
        l2c.size_bytes = cfg_.l2.size_bytes;
        l2c.associativity = cfg_.l2.associativity;
        l2c.line_bytes = cfg_.l2.line_bytes;
        l2c.hit_latency = cfg_.dcache.miss_latency;
        l2c.miss_latency = cfg_.l2.memory_latency;
        l2_ = std::make_unique<mem::Cache>(l2c);
    }

    // Waiter links pack (slot << 1) | operand into 32 bits.
    size_t rob_slots = ceilPow2(static_cast<size_t>(cfg_.max_inflight));
    if (rob_slots > (size_t{1} << 30))
        fatal("%s: max_inflight %d too large", cfg_.name.c_str(),
              cfg_.max_inflight);
    rob_.assign(rob_slots, DynInst{});
    rob_mask_ = rob_slots - 1;
    rob_lookup_ = [this](uint64_t s) -> const DynInst & {
        return rob(s);
    };
    fetch_q_.reserve(static_cast<size_t>(cfg_.fetch_queue));

    size_t ready_bits =
        slot_keyed_ ? static_cast<size_t>(cfg_.window_size) : rob_slots;
    ready_bits_.assign((ready_bits + 63) / 64, 0);
}

DynInst &
Pipeline::rob(uint64_t seq)
{
    if (seq < rob_head_ || seq >= rob_tail_)
        panic("rob: seq %llu outside [%llu, %llu)",
              (unsigned long long)seq, (unsigned long long)rob_head_,
              (unsigned long long)rob_tail_);
    return rob_[seq & rob_mask_];
}

const DynInst &
Pipeline::rob(uint64_t seq) const
{
    return const_cast<Pipeline *>(this)->rob(seq);
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
    if (cfg_.fu_mix.symmetric())
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
    ++usage.typed[cluster][fuClassOf(cls)];
}

int
Pipeline::bypassHops(int from, int to) const
{
    if (from == to)
        return 0;
    if (cfg_.interconnect == ClusterInterconnect::Broadcast)
        return 1;
    // Ring: values forwarded hop by hop (PEWs-style, Section 5.6.2).
    int n = cfg_.num_clusters;
    int d = from > to ? from - to : to - from;
    return std::min(d, n - d);
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

void
Pipeline::removeFromBuffer(DynInst &inst)
{
    if (!inst.in_buffer)
        panic("issue of seq %llu, which is not buffered",
              (unsigned long long)inst.seq);
    switch (cfg_.style) {
      case IssueBufferStyle::CentralWindow:
        windows_[0].remove(inst.seq);
        break;
      case IssueBufferStyle::PerClusterWindow:
        windows_[static_cast<size_t>(inst.cluster)].remove(inst.seq);
        if (cfg_.steering == SteeringPolicy::WindowFifo)
            fifos_->remove(inst.fifo, inst.seq);
        break;
      case IssueBufferStyle::Fifos:
        if (fifos_->head(inst.fifo) != inst.seq)
            panic("issue from non-head of fifo %d", inst.fifo);
        fifos_->popHead(inst.fifo);
        break;
    }
    inst.in_buffer = false;
}

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

    if (inst.dst_preg >= 0) {
        PhysReg &pr = rename_.preg(inst.dst_preg);
        pr.computed_cycle = inst.complete_cycle;
        pr.producing_cluster = cluster;
        // A pipelined wakeup+select loop (Figure 10) delays every
        // dependent issue by its extra stages; incomplete local
        // bypassing delays even same-cluster consumers.
        uint64_t select_extra =
            static_cast<uint64_t>(cfg_.wakeup_select_stages - 1);
        for (int c = 0; c < cfg_.num_clusters; ++c) {
            int hops = bypassHops(cluster, c);
            pr.ready_cycle[c] = inst.complete_cycle + select_extra +
                (hops == 0
                     ? static_cast<uint64_t>(cfg_.local_bypass_extra)
                     : static_cast<uint64_t>(hops) *
                           static_cast<uint64_t>(
                               cfg_.inter_cluster_extra));
        }
        pr.scheduled = true;
        if (event_driven_) {
            uint32_t link = pr.first_waiter;
            pr.first_waiter = kNoWaiter;
            while (link != kNoWaiter) {
                DynInst &d = rob_[link >> 1];
                link = d.next_waiter[link & 1];
                if (--d.pending_srcs == 0)
                    scheduleReady(d, now_ + 1);
            }
        }
    }

    if (inst.op.isStore())
        stq_.markIssued(inst.seq);

    if (inst.mispredicted && inst.seq == blocking_branch_) {
        blocking_branch_ = kNoSeq;
        fetch_resume_ = inst.complete_cycle;
    }

    removeFromBuffer(inst);
    // An issued FIFO head exposes its successor to selection; if the
    // successor's sources are already scheduled, its earlier wakeup
    // event fired while it was buried and was dropped, so re-arm it.
    if (event_driven_ && cfg_.style == IssueBufferStyle::Fifos &&
        !fifos_->empty(inst.fifo)) {
        DynInst &h = rob(fifos_->head(inst.fifo));
        if (h.pending_srcs == 0)
            scheduleReady(h, now_ + 1);
    }
    ++stats_.issued();
    ++stats_.issued_per_cluster(cluster);
    if (on_issue_)
        on_issue_(inst);
}

bool
Pipeline::tryIssueOne(DynInst &inst, int &global_issued,
                      FuUsage &usage)
{
    if (inst.issued || inst.dispatch_cycle >= now_)
        return false;

    int cluster = inst.cluster;
    if (cluster < 0) {
        cluster = chooseExecCluster(inst, inst.op.cls, usage);
        if (cluster < 0)
            return false;
    } else {
        if (!fuAvailable(cluster, inst.op.cls, usage))
            return false;
        if (!srcsReady(inst, cluster))
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

    completeIssue(inst, cluster, latency);
    consumeFu(cluster, inst.op.cls, usage);
    ++global_issued;
    return true;
}

void
Pipeline::doIssue()
{
    if (event_driven_)
        doIssueEvent();
    else
        doIssueScan();
}

size_t
Pipeline::readyBit(const DynInst &inst) const
{
    // Slot-priority central windows select by slot position, not age.
    return slot_keyed_ ? static_cast<size_t>(inst.wslot)
                       : static_cast<size_t>(inst.seq & rob_mask_);
}

DynInst &
Pipeline::readyInst(size_t bit)
{
    if (slot_keyed_)
        return rob(windows_[0].seqAt(static_cast<int>(bit)));
    // The live seqs [rob_head_, rob_head_ + ring size) map one-to-one
    // onto the ring's slots.
    return rob(rob_head_ + ((bit - rob_head_) & rob_mask_));
}

void
Pipeline::readySet(size_t bit)
{
    uint64_t &w = ready_bits_[bit >> 6];
    uint64_t m = uint64_t{1} << (bit & 63);
    if ((w & m) == 0) { // duplicate events fire once
        w |= m;
        ++ready_count_;
    }
}

void
Pipeline::readyClear(size_t bit)
{
    uint64_t &w = ready_bits_[bit >> 6];
    uint64_t m = uint64_t{1} << (bit & 63);
    if ((w & m) != 0) {
        w &= ~m;
        --ready_count_;
    }
}

uint64_t
Pipeline::instReadyCycle(const DynInst &inst) const
{
    if (inst.cluster >= 0)
        return srcReadyCycle(inst, inst.cluster);
    // Unassigned cluster (execution-driven steering): the instruction
    // becomes selectable when any cluster can provide its sources.
    uint64_t best = kNeverCycle;
    for (int c = 0; c < cfg_.num_clusters; ++c)
        best = std::min(best, srcReadyCycle(inst, c));
    return best;
}

void
Pipeline::scheduleReady(DynInst &inst, uint64_t earliest)
{
    uint64_t wake = std::max(instReadyCycle(inst), earliest);
    inst.wake_cycle = wake;
    calendar_.schedule(wake, inst.seq);
}

void
Pipeline::wireDispatchEvents(DynInst &inst)
{
    // Each unscheduled source links this instruction into its
    // register's waiter list, one link per operand.
    int pending = 0;
    const uint32_t slot = static_cast<uint32_t>(inst.seq & rob_mask_);
    const int srcs[2] = {inst.src1_preg, inst.src2_preg};
    for (uint32_t k = 0; k < 2; ++k) {
        if (srcs[k] < 0)
            continue;
        PhysReg &pr = rename_.preg(srcs[k]);
        if (pr.scheduled)
            continue;
        inst.next_waiter[k] = pr.first_waiter;
        pr.first_waiter = (slot << 1) | k;
        ++pending;
    }
    inst.pending_srcs = static_cast<int8_t>(pending);
    // All sources scheduled: the wakeup cycle is already final. (For
    // the FIFO style this instruction necessarily opened a new FIFO —
    // chaining requires an unissued producer — so it is a head.)
    if (pending == 0)
        scheduleReady(inst, now_ + 1);
}

void
Pipeline::drainWakeups()
{
    auto fire = [this](uint64_t s) {
        if (s < rob_head_ || s >= rob_tail_)
            return; // committed; stale duplicate event
        DynInst &d = rob_[s & rob_mask_];
        if (!d.in_buffer || d.issued)
            return; // already issued
        if (cfg_.style == IssueBufferStyle::Fifos &&
            fifos_->head(d.fifo) != s)
            return; // buried in a FIFO; re-armed on head change
        readySet(readyBit(d));
    };
    calendar_.drainDue(now_, fire);
}

void
Pipeline::doIssueEvent()
{
    drainWakeups();

    stats_.buffer_occupancy().add(static_cast<double>(bufferedCount()));

    // Walk the ready bitmap in priority order. The only mutation
    // issuing can make is clearing the bit just visited, and wakeups
    // it schedules land at now_ + 1, so the candidates seen are
    // exactly the cycle-start snapshot (matching the scan path's
    // fixed list).
    int global_issued = 0;
    FuUsage usage;
    auto visit = [&](size_t bit) {
        tryIssueOne(readyInst(bit), global_issued, usage);
        return global_issued < cfg_.issue_width;
    };
    const bool youngest =
        cfg_.select_policy == SelectPolicy::YoungestFirst;
    if (ready_count_ != 0 && slot_keyed_) {
        size_t n = static_cast<size_t>(cfg_.window_size);
        if (youngest)
            walkDown(ready_bits_, 0, n, visit);
        else
            walkUp(ready_bits_, 0, n, visit);
    } else if (ready_count_ != 0) {
        // Age order is ring order from the head slot: [h, size) holds
        // older seqs than [0, h).
        size_t h = static_cast<size_t>(rob_head_ & rob_mask_);
        size_t n = rob_.size();
        if (youngest) {
            if (walkDown(ready_bits_, 0, h, visit))
                walkDown(ready_bits_, h, n, visit);
        } else if (walkUp(ready_bits_, h, n, visit)) {
            walkUp(ready_bits_, 0, h, visit);
        }
    }
    stats_.issue_sizes().add(static_cast<double>(global_issued));
}

void
Pipeline::maybeSkipIdle()
{
    if (!event_driven_ || ready_count_ != 0)
        return;
    if (trace_done_ && fetch_q_.empty() && robSize() == 0)
        return; // fully drained; the run loop is about to exit

    // Fetch must be unable to deliver this cycle.
    bool fetch_blocked = trace_done_ ||
        blocking_branch_ != kNoSeq || now_ < fetch_resume_ ||
        static_cast<int>(fetch_q_.size()) >= cfg_.fetch_queue;
    if (!fetch_blocked)
        return;
    // Dispatch must be a no-op without touching stall counters.
    if (!fetch_q_.empty() && fetch_q_.front().frontend_exit <= now_)
        return;
    // Commit must not be due (an issued ROB head bounds the jump
    // below; an unissued head is woken by a calendar event).
    uint64_t target = calendar_.nextEventCycle();
    if (robSize() > 0) {
        const DynInst &head = rob(rob_head_);
        if (head.issued)
            target = std::min(target, head.complete_cycle);
    }
    if (!fetch_q_.empty())
        target = std::min(target, fetch_q_.front().frontend_exit);
    if (!trace_done_ && blocking_branch_ == kNoSeq &&
        now_ < fetch_resume_)
        target = std::min(target, fetch_resume_);
    if (target == kNeverCycle || target <= now_)
        return;

    // Cycles [now_, target) do nothing but sample per-cycle stats.
    uint64_t skipped = target - now_;
    stats_.buffer_occupancy().add(static_cast<double>(bufferedCount()),
                                skipped);
    stats_.issue_sizes().add(0.0, skipped);
    stats_.cycles() += skipped;
    now_ = target;
}

void
Pipeline::doIssueScan()
{
    // Gather this cycle's selection candidates in priority order:
    // slot order for a slot-priority window, otherwise age order,
    // which is the ROB's (only FIFO heads may issue).
    std::vector<uint64_t> candidates;
    if (slot_keyed_) {
        for (int slot = 0; slot < cfg_.window_size; ++slot)
            if (uint64_t s = windows_[0].seqAt(slot); s != kNoSeq)
                candidates.push_back(s);
    } else {
        const bool heads_only = cfg_.style == IssueBufferStyle::Fifos;
        for (uint64_t s = rob_head_; s < rob_tail_; ++s) {
            const DynInst &d = rob_[s & rob_mask_];
            if (d.in_buffer && (!heads_only || fifos_->head(d.fifo) == s))
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

    stats_.buffer_occupancy().add(static_cast<double>(bufferedCount()));

    int global_issued = 0;
    FuUsage usage;
    for (uint64_t seq : candidates) {
        if (global_issued >= cfg_.issue_width)
            break;
        bool issued_this = tryIssueOne(rob(seq), global_issued, usage);
        // A strictly in-order pipeline stops at the first stalled
        // instruction (no selection among younger ready ones).
        if (!issued_this && cfg_.in_order_issue)
            break;
    }
    stats_.issue_sizes().add(static_cast<double>(global_issued));
}

size_t
Pipeline::bufferedCount() const
{
    size_t n = 0;
    for (const auto &w : windows_)
        n += static_cast<size_t>(w.size());
    if (cfg_.style == IssueBufferStyle::Fifos && fifos_)
        n += fifos_->totalEntries();
    return n;
}

void
Pipeline::doCommit()
{
    for (int n = 0; n < cfg_.retire_width && robSize() > 0; ++n) {
        DynInst &head = rob(rob_head_);
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

void
Pipeline::doDispatch()
{
    for (int n = 0; n < cfg_.rename_width; ++n) {
        if (fetch_q_.empty())
            return;
        const FetchEntry &front = fetch_q_.front();
        if (front.frontend_exit > now_)
            return;
        if (robFull()) {
            ++stats_.dispatch_stall_rob();
            return;
        }
        if (front.seq != rob_tail_)
            panic("dispatch: fetch seq %llu is not the ROB tail %llu",
                  (unsigned long long)front.seq,
                  (unsigned long long)rob_tail_);

        // Build the instruction in place in the free tail slot. A
        // stall below leaves it outside [rob_head_, rob_tail_), where
        // nothing reads it, and the next attempt rebuilds it.
        DynInst &inst = rob_[front.seq & rob_mask_];
        inst = DynInst{};
        inst.op = front.op;
        inst.seq = front.seq;
        inst.frontend_exit = front.frontend_exit;
        inst.mispredicted = front.mispredicted;
        const trace::TraceOp &op = inst.op;

        // Resolve sources against the current map (before the
        // destination is renamed: src may equal dst).
        inst.src1_preg =
            op.src1 > 0 ? rename_.mapOf(op.src1) : -1;
        inst.src2_preg =
            op.src2 > 0 ? rename_.mapOf(op.src2) : -1;

        if (op.hasDst() && !rename_.hasFreeFor(op.dst)) {
            ++stats_.dispatch_stall_regs();
            return;
        }

        // Central-window capacity check (steering handles the rest).
        if (cfg_.style == IssueBufferStyle::CentralWindow &&
            windows_[0].full()) {
            ++stats_.dispatch_stall_buffer();
            return;
        }

        SteerDecision d =
            steering_->decide(inst, rename_, now_, rob_lookup_);
        if (!d.ok) {
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
        switch (cfg_.style) {
          case IssueBufferStyle::CentralWindow:
            inst.wslot =
                static_cast<int16_t>(windows_[0].insert(inst.seq));
            break;
          case IssueBufferStyle::PerClusterWindow:
            windows_[static_cast<size_t>(inst.cluster)].insert(
                inst.seq);
            if (cfg_.steering == SteeringPolicy::WindowFifo)
                fifos_->push(inst.fifo, inst.seq);
            break;
          case IssueBufferStyle::Fifos:
            fifos_->push(inst.fifo, inst.seq);
            break;
        }

        if (op.isStore())
            stq_.dispatch(inst.seq, op.mem_addr, op.mem_size);

        inst.dispatch_cycle = now_;
        inst.in_buffer = true;
        rob_tail_ = inst.seq + 1;
        if (event_driven_)
            wireDispatchEvents(inst);
        fetch_q_.pop_front();
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
        if (static_cast<int>(fetch_q_.size()) >= cfg_.fetch_queue)
            return;

        if (next_record_ == trace_.count) {
            trace_done_ = true;
            return;
        }
        // Copy the record straight into its fetch-queue slot.
        FetchEntry &fe = fetch_q_.append();
        fe.op = trace_[next_record_++];
        const trace::TraceOp &op = fe.op;
        fe.seq = next_seq_++;
        fe.frontend_exit =
            now_ + static_cast<uint64_t>(cfg_.frontend_latency);
        fe.mispredicted = false;
        ++stats_.fetched();

        if (op.isCondBranch()) {
            ++stats_.cond_branches();
            bool pred = cfg_.bpred.perfect ? op.taken
                                           : bpred_->predict(op.pc);
            bpred_->record(pred, op.taken);
            bpred_->update(op.pc, op.taken);
            if (pred != op.taken) {
                ++stats_.mispredicts();
                fe.mispredicted = true;
                blocking_branch_ = fe.seq;
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

    uint64_t last_progress_cycle = 0;
    uint64_t last_committed = 0;

    while (!(trace_done_ && fetch_q_.empty() && robSize() == 0)) {
        ls_ports_used_ = 0;
        doCommit();
        doIssue();
        doDispatch();
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
        maybeSkipIdle();
    }

    // A run shorter than its warmup has an empty measured region:
    // reset at drain so the caller sees zeros, not warmup noise.
    if (warmup_pending_)
        beginMeasurement();
    return stats_;
}

SimStats
simulate(const SimConfig &cfg, trace::TraceView trace,
         const RunLimits &limits)
{
    Pipeline p(cfg, trace);
    return p.run(limits);
}

} // namespace cesp::uarch
