/**
 * @file
 * Calibration and property tests for the delay models: every number
 * the paper prints must be reproduced, and the stated trends must
 * hold across the whole parameter space.
 */

#include <gtest/gtest.h>

#include "vlsi/bypass_delay.hpp"
#include "vlsi/clock.hpp"
#include "vlsi/rename_delay.hpp"
#include "vlsi/reservation_delay.hpp"
#include "vlsi/select_delay.hpp"
#include "vlsi/wakeup_delay.hpp"

using namespace cesp::vlsi;

// ---- Table 2 calibration -------------------------------------------------

struct Table2Row
{
    Process tech;
    int iw;
    int ws;
    // Explicit and zero: gtest prints the row byte-wise into the test
    // name, and implicit padding would put stack garbage there.
    int pad;
    double rename;
    double wakeup_select;
    double bypass;
};

class Table2Test : public ::testing::TestWithParam<Table2Row>
{
};

TEST_P(Table2Test, ReproducesPaperNumbers)
{
    const Table2Row &r = GetParam();
    RenameDelayModel rn(r.tech);
    WakeupDelayModel wk(r.tech);
    SelectDelayModel sl(r.tech);
    BypassDelayModel bp(r.tech);
    EXPECT_NEAR(rn.totalPs(r.iw), r.rename, 0.05);
    EXPECT_NEAR(wk.totalPs(r.iw, r.ws) + sl.totalPs(r.ws),
                r.wakeup_select, 0.05);
    EXPECT_NEAR(bp.totalPs(r.iw), r.bypass, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, Table2Test,
    ::testing::Values(
        Table2Row{Process::um0_8, 4, 32, 0, 1577.9, 2903.7, 184.9},
        Table2Row{Process::um0_8, 8, 64, 0, 1710.5, 3369.4, 1056.4},
        Table2Row{Process::um0_35, 4, 32, 0, 627.2, 1248.4, 184.9},
        Table2Row{Process::um0_35, 8, 64, 0, 726.6, 1484.8, 1056.4},
        Table2Row{Process::um0_18, 4, 32, 0, 351.0, 578.0, 184.9},
        Table2Row{Process::um0_18, 8, 64, 0, 427.9, 724.0, 1056.4}));

// ---- Rename model (Section 4.1, Figure 3) --------------------------------

class RenameSweep : public ::testing::TestWithParam<Process>
{
};

TEST_P(RenameSweep, ComponentsPositiveAndTotalConsistent)
{
    RenameDelayModel m(GetParam());
    for (int iw = 1; iw <= 16; ++iw) {
        RenameDelay d = m.delay(iw);
        EXPECT_GT(d.decode, 0.0) << iw;
        EXPECT_GT(d.wordline, 0.0) << iw;
        EXPECT_GT(d.bitline, 0.0) << iw;
        EXPECT_GT(d.senseamp, 0.0) << iw;
        EXPECT_NEAR(d.total(),
                    d.decode + d.wordline + d.bitline + d.senseamp,
                    1e-9);
    }
}

TEST_P(RenameSweep, MonotoneInIssueWidth)
{
    RenameDelayModel m(GetParam());
    for (int iw = 2; iw <= 16; ++iw)
        EXPECT_GT(m.totalPs(iw), m.totalPs(iw - 1)) << iw;
}

TEST_P(RenameSweep, BitlineGrowsFasterThanWordline)
{
    RenameDelayModel m(GetParam());
    double wl = m.delay(8).wordline - m.delay(2).wordline;
    double bl = m.delay(8).bitline - m.delay(2).bitline;
    EXPECT_GT(bl, wl);
}

INSTANTIATE_TEST_SUITE_P(AllTech, RenameSweep,
                         ::testing::ValuesIn(allProcesses()));

TEST(RenameTrend, BitlineIncreaseWorsensWithSmallerFeature)
{
    // Section 4.1.3: 37% at 0.8um rising to 53% at 0.18um.
    auto growth = [](Process p) {
        RenameDelayModel m(p);
        double b2 = m.delay(2).bitline;
        double b8 = m.delay(8).bitline;
        return (b8 - b2) / b2;
    };
    EXPECT_NEAR(growth(Process::um0_8), 0.37, 0.02);
    EXPECT_NEAR(growth(Process::um0_18), 0.53, 0.02);
    EXPECT_GT(growth(Process::um0_35), growth(Process::um0_8));
    EXPECT_LT(growth(Process::um0_35), growth(Process::um0_18));
}

TEST(RenameTrend, DelayShrinksWithFeatureSize)
{
    RenameDelayModel m8(Process::um0_8), m35(Process::um0_35),
        m18(Process::um0_18);
    for (int iw : {2, 4, 8}) {
        EXPECT_GT(m8.totalPs(iw), m35.totalPs(iw));
        EXPECT_GT(m35.totalPs(iw), m18.totalPs(iw));
    }
}

TEST(RenameDependenceCheck, HiddenAtPaperWidthsEmergesAt16)
{
    // Section 4.1.1: for issue widths 2, 4, and 8 the dependence
    // check is faster than the map-table access and hides behind it.
    for (Process p : allProcesses()) {
        RenameDelayModel m(p);
        for (int iw : {2, 4, 8})
            EXPECT_TRUE(m.dependenceCheckHidden(iw))
                << technology(p).name << " " << iw;
        EXPECT_FALSE(m.dependenceCheckHidden(16))
            << technology(p).name;
    }
}

TEST(RenameDependenceCheck, QuadraticGrowth)
{
    RenameDelayModel m(Process::um0_18);
    double d2 = m.dependenceCheckPs(2);
    double d4 = m.dependenceCheckPs(4);
    double d8 = m.dependenceCheckPs(8);
    // Increments grow: comparator count is quadratic in the group.
    EXPECT_GT(d8 - d4, d4 - d2);
}

TEST(RenameDeathTest, RejectsOutOfRangeWidth)
{
    RenameDelayModel m(Process::um0_18);
    EXPECT_EXIT(m.delay(0), ::testing::ExitedWithCode(1), "issue");
    EXPECT_EXIT(m.delay(17), ::testing::ExitedWithCode(1), "issue");
}

// ---- Wakeup model (Section 4.2, Figures 5 and 6) --------------------------

class WakeupSweep : public ::testing::TestWithParam<Process>
{
};

TEST_P(WakeupSweep, MonotoneInWindowAndWidth)
{
    WakeupDelayModel m(GetParam());
    for (int iw : {2, 4, 8}) {
        for (int ws = 16; ws <= 64; ws += 8)
            EXPECT_GT(m.totalPs(iw, ws), m.totalPs(iw, ws - 8))
                << iw << " " << ws;
    }
    for (int ws : {16, 32, 64}) {
        EXPECT_GT(m.totalPs(4, ws), m.totalPs(2, ws));
        EXPECT_GT(m.totalPs(8, ws), m.totalPs(4, ws));
    }
}

TEST_P(WakeupSweep, ComponentsPositive)
{
    WakeupDelayModel m(GetParam());
    for (int iw : {2, 4, 8}) {
        for (int ws = 8; ws <= 128; ws *= 2) {
            WakeupDelay d = m.delay(iw, ws);
            EXPECT_GE(d.tag_drive, 0.0);
            EXPECT_GT(d.tag_match, 0.0);
            EXPECT_GT(d.match_or, 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTech, WakeupSweep,
                         ::testing::ValuesIn(allProcesses()));

TEST(WakeupTrend, IssueWidthGrowthAt64Entries)
{
    // Section 4.2.3: +34% from 2- to 4-way, +46% from 4- to 8-way.
    WakeupDelayModel m(Process::um0_18);
    double w2 = m.totalPs(2, 64);
    double w4 = m.totalPs(4, 64);
    double w8 = m.totalPs(8, 64);
    EXPECT_NEAR((w4 - w2) / w2, 0.34, 0.01);
    EXPECT_NEAR((w8 - w4) / w4, 0.46, 0.01);
}

TEST(WakeupTrend, WireFractionGrowsAsFeatureShrinks)
{
    // Figure 6: tag drive + match share rises from ~52% to ~65%.
    auto frac = [](Process p) {
        WakeupDelay d = WakeupDelayModel(p).delay(8, 64);
        return (d.tag_drive + d.tag_match) / d.total();
    };
    EXPECT_NEAR(frac(Process::um0_8), 0.52, 0.01);
    EXPECT_NEAR(frac(Process::um0_18), 0.65, 0.01);
    EXPECT_GT(frac(Process::um0_35), frac(Process::um0_8));
    EXPECT_LT(frac(Process::um0_35), frac(Process::um0_18));
}

TEST(WakeupTrend, QuadraticWindowTermStrongerAtWiderIssue)
{
    // Tag drive's quadratic window dependence matters at 8-way: the
    // second difference over window size is larger than at 2-way.
    WakeupDelayModel m(Process::um0_18);
    auto second_diff = [&](int iw) {
        return (m.totalPs(iw, 64) - m.totalPs(iw, 32)) -
            (m.totalPs(iw, 32) - m.totalPs(iw, 16));
    };
    EXPECT_GT(second_diff(8), second_diff(2));
}

TEST(WakeupDeathTest, RejectsBadParameters)
{
    WakeupDelayModel m(Process::um0_18);
    EXPECT_EXIT(m.delay(0, 32), ::testing::ExitedWithCode(1), "issue");
    EXPECT_EXIT(m.delay(4, 4), ::testing::ExitedWithCode(1),
                "window");
    EXPECT_EXIT(m.delay(4, 256), ::testing::ExitedWithCode(1),
                "window");
}

// ---- Selection model (Section 4.3, Figure 8) -------------------------------

TEST(Select, LevelsAreCeilLog4)
{
    EXPECT_EQ(SelectDelayModel::levels(2), 1);
    EXPECT_EQ(SelectDelayModel::levels(4), 1);
    EXPECT_EQ(SelectDelayModel::levels(5), 2);
    EXPECT_EQ(SelectDelayModel::levels(16), 2);
    EXPECT_EQ(SelectDelayModel::levels(17), 3);
    EXPECT_EQ(SelectDelayModel::levels(32), 3);
    EXPECT_EQ(SelectDelayModel::levels(64), 3);
    EXPECT_EQ(SelectDelayModel::levels(65), 4);
    EXPECT_EQ(SelectDelayModel::levels(128), 4);
}

TEST(Select, EqualDelayFor32And64)
{
    for (Process p : allProcesses()) {
        SelectDelayModel m(p);
        EXPECT_DOUBLE_EQ(m.totalPs(32), m.totalPs(64));
    }
}

TEST(Select, SubDoublingGrowthAcrossLevelBoundaries)
{
    // Section 4.3.3: the root delay is size-independent, so adding a
    // level grows the delay by less than 100%.
    for (Process p : allProcesses()) {
        SelectDelayModel m(p);
        EXPECT_LT(m.totalPs(32) / m.totalPs(16), 2.0);
        EXPECT_LT(m.totalPs(128) / m.totalPs(64), 2.0);
        EXPECT_GT(m.totalPs(32), m.totalPs(16));
        EXPECT_GT(m.totalPs(128), m.totalPs(64));
    }
}

TEST(Select, PureLogicScalesWithFeature)
{
    // All components are logic delays; ratios track feature size.
    SelectDelayModel m8(Process::um0_8), m18(Process::um0_18);
    EXPECT_NEAR(m8.totalPs(64) / m18.totalPs(64), 2254.0 / 374.0,
                0.01);
}

TEST(Select, ComponentBreakdownConsistent)
{
    SelectDelayModel m(Process::um0_18);
    SelectDelay d = m.delay(64);
    EXPECT_DOUBLE_EQ(d.total(),
                     d.request_prop + d.root + d.grant_prop);
    EXPECT_GT(d.root, 0.0);
    // One level (window <= 4): only the root remains.
    SelectDelay tiny = m.delay(4);
    EXPECT_DOUBLE_EQ(tiny.request_prop, 0.0);
    EXPECT_DOUBLE_EQ(tiny.grant_prop, 0.0);
}

TEST(SelectDeathTest, RejectsTinyWindow)
{
    EXPECT_EXIT(SelectDelayModel::levels(1),
                ::testing::ExitedWithCode(1), "window");
}

// ---- Bypass model (Section 4.4, Table 1) -----------------------------------

TEST(Bypass, Table1WireLengths)
{
    EXPECT_DOUBLE_EQ(BypassDelayModel::wireLengthLambda(4), 20500.0);
    EXPECT_DOUBLE_EQ(BypassDelayModel::wireLengthLambda(8), 49000.0);
}

TEST(Bypass, Table1Delays)
{
    for (Process p : allProcesses()) {
        BypassDelayModel m(p);
        EXPECT_NEAR(m.totalPs(4), 184.9, 0.5);
        EXPECT_NEAR(m.totalPs(8), 1056.4, 3.0);
    }
}

TEST(Bypass, GrowsSuperQuadratically)
{
    BypassDelayModel m(Process::um0_18);
    // Length is quadratic-ish in width, delay quadratic in length.
    EXPECT_GT(m.totalPs(8) / m.totalPs(4), 4.0);
    EXPECT_GT(m.totalPs(16) / m.totalPs(8), 4.0);
}

TEST(Bypass, PathCountFormula)
{
    // 2 * IW^2 * S paths (Section 4.4).
    EXPECT_EQ(BypassDelayModel::numBypassPaths(4, 2), 64);
    EXPECT_EQ(BypassDelayModel::numBypassPaths(8, 2), 256);
    EXPECT_EQ(BypassDelayModel::numBypassPaths(8, 3), 384);
    EXPECT_EQ(BypassDelayModel::numBypassPaths(1, 0), 0);
}

// ---- Reservation table (Section 5.3, Table 4) ------------------------------

TEST(Reservation, Table4Numbers)
{
    ReservationDelayModel m(Process::um0_18);
    EXPECT_NEAR(m.totalPs(4, 80), 192.1, 0.1);
    EXPECT_NEAR(m.totalPs(8, 128), 251.7, 0.1);
}

TEST(Reservation, TableEntries)
{
    EXPECT_EQ(ReservationDelayModel::tableEntries(80), 10);
    EXPECT_EQ(ReservationDelayModel::tableEntries(128), 16);
    EXPECT_EQ(ReservationDelayModel::tableEntries(1), 1);
    EXPECT_EQ(ReservationDelayModel::tableEntries(9), 2);
}

TEST(Reservation, MuchFasterThanCamWakeup)
{
    // Section 5.3: for both widths, the reservation-table access is
    // smaller than the wakeup delay of a 4-way 32-entry window.
    ReservationDelayModel resv(Process::um0_18);
    WakeupDelayModel wake(Process::um0_18);
    EXPECT_LT(resv.totalPs(4, 80), wake.totalPs(4, 32));
    EXPECT_LT(resv.totalPs(8, 128), wake.totalPs(4, 32) * 2);
    // Also smaller than the corresponding rename delay.
    RenameDelayModel rn(Process::um0_18);
    EXPECT_LT(resv.totalPs(4, 80), rn.totalPs(4));
    EXPECT_LT(resv.totalPs(8, 128), rn.totalPs(8));
}

TEST(Reservation, ScalesAcrossTechnologies)
{
    ReservationDelayModel m18(Process::um0_18), m8(Process::um0_8);
    EXPECT_GT(m8.totalPs(4, 80), m18.totalPs(4, 80) * 3.0);
}

// ---- Clock estimator (Sections 4.5, 5.3, 5.5) ------------------------------

TEST(Clock, WindowIsCriticalAt4Wide018)
{
    ClockEstimator est(Process::um0_18);
    ClockConfig cfg;
    cfg.issue_width = 4;
    cfg.window_size = 32;
    StageDelays d = est.delays(cfg);
    EXPECT_EQ(d.criticalStage(), "window");
    EXPECT_NEAR(d.criticalPs(), 578.0, 0.1);
}

TEST(Clock, BypassWorstAt8WideIsNotCriticalButLarge)
{
    // Table 2: at 8-way the bypass (1056.4) exceeds wakeup+select
    // (724.0) in 0.18um.
    ClockEstimator est(Process::um0_18);
    ClockConfig cfg;
    cfg.issue_width = 8;
    cfg.window_size = 64;
    StageDelays d = est.delays(cfg);
    EXPECT_EQ(d.criticalStage(), "bypass");
    EXPECT_GT(d.bypass, d.window());
}

TEST(Clock, DependenceFifoMakesRenameCritical)
{
    // Section 5.3: with window logic reduced, rename becomes the
    // critical stage of a 4-way machine.
    ClockEstimator est(Process::um0_18);
    ClockConfig cfg;
    cfg.org = IssueOrganization::DependenceFifos;
    cfg.issue_width = 4;
    cfg.fifos_per_cluster = 4;
    cfg.phys_regs = 80;
    StageDelays d = est.delays(cfg);
    EXPECT_EQ(d.criticalStage(), "rename");
}

TEST(Clock, Paper39PercentRenameSlack)
{
    RenameDelayModel rn(Process::um0_18);
    WakeupDelayModel wk(Process::um0_18);
    SelectDelayModel sl(Process::um0_18);
    double window = wk.totalPs(4, 32) + sl.totalPs(32);
    double slack = (window - rn.totalPs(4)) / window;
    EXPECT_NEAR(slack, 0.39, 0.01);
}

TEST(Clock, Paper25PercentClockRatio)
{
    ClockEstimator est(Process::um0_18);
    EXPECT_NEAR(est.dependenceClockRatio(8, 64), 1.2526, 0.001);
}

TEST(Clock, ClusteredDependenceClocksFasterThanWindow8Way)
{
    ClockEstimator est(Process::um0_18);
    ClockConfig win;
    win.issue_width = 8;
    win.window_size = 64;
    ClockConfig dep;
    dep.org = IssueOrganization::DependenceFifos;
    dep.issue_width = 8;
    dep.num_clusters = 2;
    dep.fifos_per_cluster = 4;
    EXPECT_LT(est.delays(dep).criticalPs(),
              est.delays(win).criticalPs());
}
