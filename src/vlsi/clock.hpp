/**
 * @file
 * Pipeline critical-path / clock estimator (paper Sections 4.5, 5.3,
 * 5.5). Combines the per-structure delay models into per-stage delays
 * for a given machine organization and reports the critical stage and
 * the resulting clock.
 *
 * The paper's comparisons reproduced here:
 *  - Table 2 rows: rename vs wakeup+select vs bypass for {4-way, 32}
 *    and {8-way, 64} in each technology;
 *  - Section 5.3: with window logic simplified to a reservation-table
 *    access, rename becomes the critical stage of a 4-way machine, a
 *    potential clock improvement of up to ~39% at 0.18 um;
 *  - Section 5.5: the clustered dependence-based 8-way machine clocks
 *    at least as fast as a 4-way 32-entry window machine, i.e.
 *    724.0 / 578.0 = ~1.25x faster than the 8-way window machine.
 */

#ifndef CESP_VLSI_CLOCK_HPP
#define CESP_VLSI_CLOCK_HPP

#include <string>
#include <vector>

#include "vlsi/bypass_delay.hpp"
#include "vlsi/cache_delay.hpp"
#include "vlsi/regfile_delay.hpp"
#include "vlsi/rename_delay.hpp"
#include "vlsi/reservation_delay.hpp"
#include "vlsi/select_delay.hpp"
#include "vlsi/technology.hpp"
#include "vlsi/wakeup_delay.hpp"

namespace cesp::vlsi {

/** Issue-logic organization of the machine being estimated. */
enum class IssueOrganization
{
    CentralWindow,   //!< flexible issue window (wakeup CAM + select)
    DependenceFifos, //!< FIFO heads + reservation table + select
};

/** Machine shape for clock estimation. */
struct ClockConfig
{
    IssueOrganization org = IssueOrganization::CentralWindow;
    int issue_width = 8;   //!< machine-wide issue/rename width
    int window_size = 64;  //!< window entries (central window org)
    int num_clusters = 1;  //!< execution clusters
    int fifos_per_cluster = 8; //!< FIFO count (FIFO org)
    int phys_regs = 120;   //!< physical registers per class
};

/** Per-stage delay summary, in ps. */
struct StageDelays
{
    double rename;        //!< rename (steering runs in parallel)
    double window_wakeup; //!< CAM wakeup or reservation-table access
    double window_select; //!< selection tree
    double bypass;        //!< local (intra-cluster) result wires

    double window() const { return window_wakeup + window_select; }

    /** Longest stage delay = clock period. */
    double criticalPs() const;

    /** Name of the critical stage ("rename"/"window"/"bypass"). */
    std::string criticalStage() const;

    /** Clock frequency in MHz implied by the critical path. */
    double
    clockMhz() const
    {
        return 1e6 / criticalPs();
    }
};

/** Clock estimator for one technology. */
class ClockEstimator
{
  public:
    explicit ClockEstimator(Process p);

    /** Per-stage delays for the given machine shape. */
    StageDelays delays(const ClockConfig &cfg) const;

    /**
     * The paper's conservative Section 5.5 clock ratio: the clustered
     * dependence-based machine of total width `issue_width` is clocked
     * like a window machine of one cluster's width with a
     * (window_size/2)-entry window; the ratio over the full-width
     * window machine is returned (1.2526 for 8-way at 0.18 um).
     */
    double dependenceClockRatio(int issue_width, int window_size) const;

    /** One structure's entry in the full complexity report. */
    struct StructureDelay
    {
        std::string name;
        double ps;
        /**
         * Whether the paper considers the structure pipelinable
         * (Section 4.5: everything except the wakeup+select loop and
         * the bypass can be pipelined without breaking back-to-back
         * dependent execution).
         */
        bool pipelinable;
    };

    /**
     * Delay of every modeled structure for the given machine shape —
     * the Section 4.5 discussion as a table: rename, window logic,
     * bypass, register file read, and data-cache access.
     */
    std::vector<StructureDelay>
    fullReport(const ClockConfig &cfg,
               uint32_t dcache_bytes = 32 * 1024,
               int dcache_assoc = 2,
               uint32_t dcache_line = 32) const;

  private:
    RenameDelayModel rename_;
    WakeupDelayModel wakeup_;
    SelectDelayModel select_;
    BypassDelayModel bypass_;
    ReservationDelayModel resv_;
    RegfileDelayModel regfile_;
    CacheDelayModel dcache_;
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_CLOCK_HPP
