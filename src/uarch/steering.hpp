/**
 * @file
 * Dispatch-time instruction steering policies (paper Sections 5.1,
 * 5.5, 5.6).
 *
 *  - DependenceFifo: the Section 5.1 heuristic. An instruction whose
 *    operands are all available gets a new FIFO from the free pool; an
 *    instruction waiting on one outstanding operand is placed directly
 *    behind its producer if the producer is the tail of its FIFO (and
 *    the FIFO has room), else in a new FIFO; with two outstanding
 *    operands the left operand is tried first, then the right. If no
 *    empty FIFO is available the front end stalls. Clustered machines
 *    allocate from per-cluster free pools with the two-free-list
 *    "current pool" policy of Section 5.5.
 *  - WindowFifo (Section 5.6.2): the same heuristic applied to
 *    *conceptual* FIFOs overlaid on per-cluster flexible windows;
 *    clusters whose window is full are skipped.
 *  - Random (Section 5.6.3): uniformly random cluster, falling back
 *    to the other cluster when the chosen window is full.
 */

#ifndef CESP_UARCH_STEERING_HPP
#define CESP_UARCH_STEERING_HPP

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "uarch/config.hpp"
#include "uarch/dyninst.hpp"
#include "uarch/fifos.hpp"
#include "uarch/rename.hpp"
#include "uarch/window.hpp"

namespace cesp::uarch {

/** Callback giving steering read access to in-flight instructions. */
using RobLookup = std::function<const DynInst &(uint64_t seq)>;

/** Which Section 5.1 case fired (for statistics). */
enum class SteerKind
{
    NewFifo,    //!< operands available, or no suitable producer FIFO
    ChainLeft,  //!< appended behind the left operand's producer
    ChainRight, //!< appended behind the right operand's producer
    Window,     //!< window organization (no FIFO involved)
    Stall,      //!< no structural room anywhere
};

/** Where dispatch decided to put an instruction. */
struct SteerDecision
{
    bool ok = false;  //!< false = structural stall, retry next cycle
    int cluster = -1;
    int fifo = -1;    //!< real or conceptual FIFO id (-1 if none)
    SteerKind kind = SteerKind::Stall;
};

/** Dispatch-time steering engine. */
class Steering
{
  public:
    /**
     * @param cfg machine configuration (policy, shapes)
     * @param fifos FIFO set (real for Fifos style, conceptual for
     *        WindowFifo; unused for Random), may be null
     * @param windows per-cluster windows (null for Fifos style)
     */
    Steering(const SimConfig &cfg, FifoSet *fifos,
             std::vector<IssueWindow> *windows);

    /**
     * Decide placement for @p inst (whose source physical registers
     * are already resolved). @p now is the current cycle; @p rob
     * resolves producer sequence numbers: any callable taking a seq
     * and returning a const DynInst & (a RobLookup, or a lambda the
     * caller's compiler can inline).
     */
    template <class Rob>
    SteerDecision
    decide(const DynInst &inst, const RenameState &rename, uint64_t now,
           const Rob &rob)
    {
        switch (cfg_.steering) {
          case SteeringPolicy::DependenceFifo:
          case SteeringPolicy::WindowFifo:
            return dependenceSteer(inst, rename, now, rob);
          case SteeringPolicy::Random:
            return randomSteer();
          case SteeringPolicy::None:
          case SteeringPolicy::ExecutionDriven:
            break;
        }
        // Central window; cluster chosen at issue (or fixed at 0).
        SteerDecision d;
        d.ok = true;
        d.cluster = cfg_.steering == SteeringPolicy::None ? 0 : -1;
        d.kind = SteerKind::Window;
        return d;
    }

  private:
    template <class Rob>
    SteerDecision
    dependenceSteer(const DynInst &inst, const RenameState &rename,
                    uint64_t now, const Rob &rob)
    {
        auto outstanding = [&](int preg) {
            return preg >= 0 && rename.preg(preg).outstanding(now);
        };
        bool left_out = outstanding(inst.src1_preg);
        bool right_out = outstanding(inst.src2_preg);

        SteerKind kind = SteerKind::NewFifo;
        int f = -1;
        if (left_out) {
            f = suitableFifo(inst.src1_preg, rename, now, rob);
            if (f >= 0)
                kind = SteerKind::ChainLeft;
        }
        if (f < 0 && right_out) {
            f = suitableFifo(inst.src2_preg, rename, now, rob);
            if (f >= 0)
                kind = SteerKind::ChainRight;
        }
        if (f < 0) {
            kind = SteerKind::NewFifo;
            f = fifos_->allocate(
                [this](int c) { return clusterHasSpace(c); });
        }
        if (f < 0)
            return {}; // no free FIFO anywhere: stall dispatch

        SteerDecision d;
        d.ok = true;
        d.fifo = f;
        d.cluster = fifos_->clusterOf(f);
        d.kind = kind;
        return d;
    }

    SteerDecision randomSteer();

    /** FIFO behind @p preg's producer if usable, else -1. */
    template <class Rob>
    int
    suitableFifo(int preg, const RenameState &rename, uint64_t now,
                 const Rob &rob) const
    {
        if (preg < 0)
            return -1;
        const PhysReg &pr = rename.preg(preg);
        if (!pr.outstanding(now))
            return -1; // value computed: not an outstanding operand
        if (pr.producer_seq == kNoSeq)
            return -1;
        const DynInst &producer = rob(pr.producer_seq);
        int f = producer.fifo;
        if (f < 0)
            return -1;
        // "No instruction behind the source" = producer is the tail;
        // an already-issued producer is no longer in the FIFO and
        // fails this test, falling through to a new FIFO.
        if (!fifos_->isTail(f, pr.producer_seq))
            return -1;
        if (fifos_->full(f))
            return -1;
        if (!clusterHasSpace(fifos_->clusterOf(f)))
            return -1;
        return f;
    }

    bool
    clusterHasSpace(int cluster) const
    {
        // Only window-backed organizations can run out of per-cluster
        // buffer space independently of the FIFO occupancy.
        if (cfg_.style != IssueBufferStyle::PerClusterWindow || !windows_)
            return true;
        return !(*windows_)[static_cast<size_t>(cluster)].full();
    }

    const SimConfig &cfg_;
    FifoSet *fifos_;
    std::vector<IssueWindow> *windows_;
    Rng rng_;
};

} // namespace cesp::uarch

#endif // CESP_UARCH_STEERING_HPP
