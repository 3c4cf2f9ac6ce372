/**
 * @file
 * Every table and figure of the paper's evaluation, the ablations
 * and the design studies as one binary. Each experiment is a
 * declarative spec — a name, its machine variants and a report that
 * turns the result grid into tables, summary lines and summary
 * StatGroups. The runner puts the variants of every chosen spec in
 * one core::runGrid over all seven workloads (one core::run on
 * defaultJobs() workers; bit-identical for any worker count), where a
 * machine that several specs share simulates once; each report reads
 * its own config-major block once the run ends. The delay-model
 * specs, Figure 12 and complexity_report have no variants: their
 * empty block holds no runs, and the report reads the vlsi models
 * (Figure 12 runs the paper's code segment on a pipeline of its own).
 *
 *   experiments [NAME...] [--json PATH]
 *
 * With no NAME every experiment runs, in bench/README.md order.
 * --json takes exactly one NAME and writes its export as a
 * cesp.statgroup.list document: by default every run, config-major
 * and labelled "<variant label> / <workload>", unless the report
 * chooses other groups. `--json -` prints only that document.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "func/emulator.hpp"
#include "trace/analysis.hpp"
#include "vlsi/area.hpp"
#include "vlsi/clock.hpp"
#include "vlsi/rename_cam.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::core;
using namespace cesp::vlsi;
using uarch::SimConfig;
using uarch::SimStats;

namespace {

/** One machine of an experiment: the label its exported runs carry,
 *  and its configuration. */
struct Variant
{
    std::string label;
    SimConfig cfg;
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
    addRun(const Grid &g, size_t c, size_t w)
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
    std::function<void(const Grid &, Report &)> report;
};

/** @p cfg renamed to @p name after @p tweak; the label is the name. */
Variant
tweaked(const std::string &name, SimConfig cfg,
        const std::function<void(SimConfig &)> &tweak)
{
    cfg.name = name;
    tweak(cfg);
    return {name, std::move(cfg)};
}

/** A preset as-is, labelled with its configuration name. */
Variant
preset(SimConfig cfg)
{
    return {cfg.name, std::move(cfg)};
}

/** Instruction-weighted mean IPC of configuration @p v over the
 *  grid's workloads. */
double
meanIpc(const Grid &g, size_t v)
{
    return g.merged(v).value("ipc");
}

// ---------------------------------------------------------------------
// Delay models (Section 4)

/**
 * Figure 3: register rename delay versus issue width, with the
 * decoder / wordline / bitline / sense-amplifier breakdown, for
 * 0.8, 0.35 and 0.18 um technologies.
 */
Experiment
fig3()
{
    return {"fig3_rename_delay", {}, [](const Grid &, Report &out) {
        Table t("Figure 3: rename delay vs issue width (ps)");
        t.header({"tech", "issue", "decoder", "wordline", "bitline",
                  "senseamp", "total"});
        for (Process p : allProcesses()) {
            RenameDelayModel model(p);
            for (int iw : {2, 4, 8}) {
                RenameDelay d = model.delay(iw);
                t.row({technology(p).name, cell(iw), cell(d.decode),
                       cell(d.wordline), cell(d.bitline),
                       cell(d.senseamp), cell(d.total())});
            }
        }
        out.table(t);

        // The scaling trend called out in Section 4.1.3: the bitline
        // delay increase from 2- to 8-wide worsens as features shrink.
        Table g("Bitline delay increase, 2-way -> 8-way (paper: 37% at "
                "0.8um rising to 53% at 0.18um)");
        g.header({"tech", "bitline(2)", "bitline(8)", "increase%"});
        for (Process p : allProcesses()) {
            RenameDelayModel model(p);
            double b2 = model.delay(2).bitline;
            double b8 = model.delay(8).bitline;
            g.row({technology(p).name, cell(b2), cell(b8),
                   cell(100.0 * (b8 - b2) / b2)});
        }
        out.table(g);
    }};
}

/**
 * Figure 5: wakeup logic delay versus window size for 2-, 4- and
 * 8-way issue at 0.18 um, plus the growth ratios the paper quotes
 * (~34% from 2- to 4-way and ~46% from 4- to 8-way at 64 entries).
 */
Experiment
fig5()
{
    return {"fig5_wakeup_window", {}, [](const Grid &, Report &out) {
        WakeupDelayModel model(Process::um0_18);
        Table t("Figure 5: wakeup delay vs window size, 0.18um (ps)");
        t.header({"window", "2-way", "4-way", "8-way"});
        for (int ws = 8; ws <= 64; ws += 8)
            t.row({cell(ws), cell(model.totalPs(2, ws)),
                   cell(model.totalPs(4, ws)),
                   cell(model.totalPs(8, ws))});
        out.table(t);

        double w2 = model.totalPs(2, 64);
        double w4 = model.totalPs(4, 64);
        double w8 = model.totalPs(8, 64);
        Table g("Issue-width growth at a 64-entry window "
                "(paper: ~34% and ~46%)");
        g.header({"transition", "delay growth %"});
        g.row({"2-way -> 4-way", cell(100.0 * (w4 - w2) / w2)});
        g.row({"4-way -> 8-way", cell(100.0 * (w8 - w4) / w4)});
        out.table(g);
    }};
}

/**
 * Figure 6: wakeup delay components versus feature size for an
 * 8-way, 64-entry window. The wire-dominated components (tag drive +
 * tag match) scale worse than the logic-only match OR: their share
 * of the total grows from ~52% at 0.8 um to ~65% at 0.18 um.
 */
Experiment
fig6()
{
    return {"fig6_wakeup_feature", {}, [](const Grid &, Report &out) {
        Table t("Figure 6: wakeup delay vs feature size, 8-way 64-entry "
                "(ps)");
        t.header({"tech", "tag drive", "tag match", "match OR", "total",
                  "drive+match %"});
        for (Process p : allProcesses()) {
            WakeupDelay d = WakeupDelayModel(p).delay(8, 64);
            t.row({technology(p).name, cell(d.tag_drive),
                   cell(d.tag_match), cell(d.match_or), cell(d.total()),
                   cell(100.0 * (d.tag_drive + d.tag_match) /
                        d.total())});
        }
        out.table(t);
        out.line("Paper: the tag drive + tag match fraction grows from "
                 "52% (0.8um) to 65% (0.18um).");
    }};
}

/**
 * Figure 8: selection logic delay versus window size (16-128) for
 * the three technologies, broken into request propagation, root cell
 * and grant propagation. Delay grows with ceil(log4(window)) — equal
 * for 32 and 64 entries, and less than doubling across the 16->32
 * and 64->128 boundaries because the root delay is size-independent.
 */
Experiment
fig8()
{
    return {"fig8_selection_delay", {}, [](const Grid &, Report &out) {
        Table t("Figure 8: selection delay vs window size (ps)");
        t.header({"tech", "window", "levels", "request prop", "root",
                  "grant prop", "total"});
        for (Process p : allProcesses()) {
            SelectDelayModel model(p);
            for (int ws : {16, 32, 64, 128}) {
                SelectDelay d = model.delay(ws);
                t.row({technology(p).name, cell(ws),
                       cell(SelectDelayModel::levels(ws)),
                       cell(d.request_prop), cell(d.root),
                       cell(d.grant_prop), cell(d.total())});
            }
        }
        out.table(t);

        SelectDelayModel m18(Process::um0_18);
        auto growth = [&](int from, int to) {
            return cell(100.0 * (m18.totalPs(to) - m18.totalPs(from)) /
                        m18.totalPs(from));
        };
        Table g("Boundary growth at 0.18um (paper: < 100% per size "
                "doubling that adds a level)");
        g.header({"transition", "growth %"});
        g.row({"16 -> 32", growth(16, 32)});
        g.row({"64 -> 128", growth(64, 128)});
        out.table(g);
    }};
}

/**
 * Table 1: bypass result-wire length and delay for 4-way and 8-way
 * machines (paper: 20500 lambda / 184.9 ps and 49000 lambda /
 * 1056.4 ps, identical across technologies under the constant-wire-
 * delay scaling model).
 */
Experiment
tab1()
{
    return {"tab1_bypass_delay", {}, [](const Grid &, Report &out) {
        Table t("Table 1: bypass delays");
        t.header({"issue width", "wire length (lambda)", "delay (ps)"});
        BypassDelayModel m(Process::um0_18);
        for (int iw : {4, 8})
            t.row({cell(iw),
                   cell(BypassDelayModel::wireLengthLambda(iw), 0),
                   cell(m.totalPs(iw))});
        out.table(t);

        Table x("Technology independence of the bypass delay");
        x.header({"tech", "4-way (ps)", "8-way (ps)"});
        for (Process p : allProcesses()) {
            BypassDelayModel bm(p);
            x.row({technology(p).name, cell(bm.totalPs(4)),
                   cell(bm.totalPs(8))});
        }
        out.table(x);

        Table g("Bypass path count (2-input FUs, S result pipestages)");
        g.header({"issue width", "S=1", "S=2", "S=3"});
        for (int iw : {2, 4, 8, 16})
            g.row({cell(iw),
                   cell(BypassDelayModel::numBypassPaths(iw, 1)),
                   cell(BypassDelayModel::numBypassPaths(iw, 2)),
                   cell(BypassDelayModel::numBypassPaths(iw, 3))});
        out.table(g);
    }};
}

/**
 * Table 2: overall delay results — rename, wakeup+select and bypass
 * delays for a {4-way, 32-entry} and an {8-way, 64-entry} machine in
 * 0.8, 0.35 and 0.18 um technologies — and the critical stage of
 * each machine (Section 4.5).
 */
Experiment
tab2()
{
    return {"tab2_overall_delay", {}, [](const Grid &, Report &out) {
        Table t("Table 2: overall delay results (ps)");
        t.header({"tech", "issue", "window", "rename", "wakeup+select",
                  "bypass"});
        for (Process p : allProcesses()) {
            RenameDelayModel rn(p);
            WakeupDelayModel wk(p);
            SelectDelayModel sl(p);
            BypassDelayModel bp(p);
            for (auto [iw, ws] : {std::pair{4, 32}, std::pair{8, 64}})
                t.row({technology(p).name, cell(iw), cell(ws),
                       cell(rn.totalPs(iw)),
                       cell(wk.totalPs(iw, ws) + sl.totalPs(ws)),
                       cell(bp.totalPs(iw))});
        }
        out.table(t);

        Table c("Critical pipeline stage per machine (clock estimator)");
        c.header({"tech", "machine", "rename", "window", "bypass",
                  "critical", "clock MHz"});
        for (Process p : allProcesses()) {
            ClockEstimator est(p);
            for (const SimConfig &m : {scaledBaseline(4), baseline8Way()}) {
                StageDelays d = est.delays(clockConfig(m));
                c.row({technology(p).name,
                       strprintf("%d-way/%d", m.issue_width,
                                 m.window_size),
                       cell(d.rename),
                       cell(d.window()), cell(d.bypass),
                       d.criticalStage(), cell(d.clockMhz(), 0)});
            }
        }
        out.table(c);
        out.line("Paper: window logic is critical for the 4-way "
                 "machine; at 8 wide the bypass delay grows over 5x and "
                 "exceeds wakeup+select.");
    }};
}

/**
 * Table 4: delay of the dependence-based microarchitecture's
 * reservation table in 0.18 um technology (paper: 192.1 ps for a
 * 4-way/80-register machine, 251.7 ps for 8-way/128), compared with
 * the CAM wakeup it replaces.
 */
Experiment
tab4()
{
    return {"tab4_reservation_table", {}, [](const Grid &, Report &out) {
        ReservationDelayModel resv(Process::um0_18);
        Table t("Table 4: reservation table delay, 0.18um");
        t.header({"issue width", "phys regs", "table entries",
                  "bits/entry", "delay (ps)"});
        for (auto [iw, regs] : {std::pair{4, 80}, std::pair{8, 128}})
            t.row({cell(iw), cell(regs),
                   cell(ReservationDelayModel::tableEntries(regs)),
                   cell(8), cell(resv.totalPs(iw, regs))});
        out.table(t);

        WakeupDelayModel wake(Process::um0_18);
        Table c("Reservation table vs CAM wakeup (0.18um)");
        c.header({"machine", "reservation (ps)", "CAM wakeup (ps)"});
        c.row({"4-way (32-entry window)", cell(resv.totalPs(4, 80)),
               cell(wake.totalPs(4, 32))});
        c.row({"8-way (64-entry window)", cell(resv.totalPs(8, 128)),
               cell(wake.totalPs(8, 64))});
        out.table(c);
        out.line("Paper: for both widths the reservation-table access "
                 "is much faster than the 4-way, 32-entry CAM wakeup.");
    }};
}

/**
 * Section 4.1.1: RAM versus CAM register renaming. The paper found
 * the schemes comparable for its design space but the CAM less
 * scalable — its entry count equals the physical register count,
 * which grows with issue width.
 */
Experiment
ablRenameCam()
{
    return {"abl_rename_cam", {}, [](const Grid &, Report &out) {
        Table t("RAM vs CAM rename delay (ps)");
        t.header({"tech", "issue", "phys regs", "RAM", "CAM",
                  "CAM/RAM"});
        for (Process p : allProcesses()) {
            RenameDelayModel ram(p);
            RenameCamDelayModel cam(p);
            for (auto [iw, regs] :
                 {std::pair{4, 80}, std::pair{8, 128}}) {
                double r = ram.totalPs(iw);
                double c = cam.totalPs(iw, regs);
                t.row({technology(p).name, cell(iw), cell(regs),
                       cell(r), cell(c), cell(c / r, 2)});
            }
        }
        out.table(t);

        Table s("CAM scalability with physical register count (0.18um, "
                "8-way)");
        s.header({"phys regs", "RAM (ps)", "CAM (ps)"});
        RenameDelayModel ram18(Process::um0_18);
        RenameCamDelayModel cam18(Process::um0_18);
        for (int regs : {80, 128, 192, 256, 384, 512})
            s.row({cell(regs), cell(ram18.totalPs(8)),
                   cell(cam18.totalPs(8, regs))});
        out.table(s);
        out.line("Paper: comparable for the design space studied; the "
                 "RAM scheme scales better because the map table's "
                 "size is fixed by the *logical* register count.");
    }};
}

/**
 * Sections 2.1 / 4.4.4 / 5.4: the structures the paper "considered
 * elsewhere" — register file and data cache access times. Two of the
 * paper's side-claims are made quantitative here:
 *  - clustering halves the register file's port count per copy,
 *    making each copy faster (Section 5.4);
 *  - the Table 3 data cache fits the cycle implied by the
 *    window/bypass-limited clock (1-cycle hit), and unlike the
 *    window logic these structures can be pipelined if they do not.
 */
Experiment
ablRegfileCache()
{
    return {"abl_regfile_cache", {}, [](const Grid &, Report &out) {
        Table r("Register file access time (120 physical registers)");
        r.header({"tech", "machine", "read ports", "write ports",
                  "delay (ps)"});
        for (Process p : allProcesses()) {
            RegfileDelayModel m(p);
            r.row({technology(p).name, "8-way monolithic", cell(16),
                   cell(8), cell(m.totalPs(120, 16, 8))});
            r.row({technology(p).name, "4-way cluster copy", cell(8),
                   cell(4), cell(m.totalPs(120, 8, 4))});
        }
        out.table(r);

        RegfileDelayModel rf18(Process::um0_18);
        double mono = rf18.totalPs(120, 16, 8);
        double clus = rf18.totalPs(120, 8, 4);
        out.text += strprintf("clustering speeds each register file "
                              "copy by %.0f%% (Section 5.4's third "
                              "advantage)\n\n",
                              100.0 * (mono - clus) / mono);

        Table c("Data cache access time vs geometry (0.18um)");
        c.header({"size KB", "assoc", "line B", "delay (ps)"});
        CacheDelayModel cm(Process::um0_18);
        for (int kb : {8, 16, 32, 64, 128})
            for (int assoc : {1, 2, 4})
                c.row({cell(kb), cell(assoc), cell(32),
                       cell(cm.totalPs(kb * 1024, assoc, 32))});
        out.table(c);

        double clock = ClockEstimator(Process::um0_18)
                           .delays(clockConfig(baseline8Way()))
                           .criticalPs();
        double dcache = cm.totalPs(32 * 1024, 2, 32);
        out.text += strprintf("Table 3 cache: %.1f ps vs the 8-way "
                              "machine's %.1f ps clock -> %s (1-cycle "
                              "hit %s)\n",
                              dcache, clock,
                              dcache <= clock ? "fits" : "does not fit",
                              dcache <= clock ? "holds"
                                              : "needs pipelining");
    }};
}

/**
 * Complexity in transistors. The paper quantifies complexity as
 * delay (Section 1 lists transistor count as the alternative); the
 * two views agree — the dependence-based issue logic is not just
 * faster than the window CAM, it is far smaller.
 */
Experiment
ablTransistors()
{
    return {"abl_transistors", {}, [](const Grid &, Report &out) {
        Table t("Issue-logic transistor estimates");
        t.header({"machine", "window CAM+select", "FIFOs+resv+select",
                  "ratio"});
        struct Shape
        {
            const char *label;
            int iw, ws, fifos, depth, pregs;
        };
        for (const Shape &s :
             {Shape{"4-way (32 / 4x8, 80 regs)", 4, 32, 4, 8, 80},
              Shape{"8-way (64 / 8x8, 128 regs)", 8, 64, 8, 8, 128},
              Shape{"16-way (128 / 16x8, 256 regs)", 16, 128, 16, 8,
                    256}}) {
            uint64_t window = AreaModel::windowIssueLogic(s.ws, s.iw);
            uint64_t dep = AreaModel::dependenceIssueLogic(
                s.fifos, s.depth, s.pregs, s.iw);
            t.row({s.label, cell(window), cell(dep),
                   cell(static_cast<double>(window) /
                        static_cast<double>(dep), 2)});
        }
        out.table(t);

        // Delay view alongside, for the 8-way machine at 0.18 um.
        WakeupDelayModel wk(Process::um0_18);
        SelectDelayModel sl(Process::um0_18);
        ReservationDelayModel rv(Process::um0_18);
        out.text += strprintf("delay view (8-way, 0.18um): window %.1f "
                              "ps vs dependence-based %.1f ps\n",
                              wk.totalPs(8, 64) + sl.totalPs(64),
                              rv.totalPs(8, 128) + sl.totalPs(8));
        out.line("Both complexity metrics (Section 1's delay and "
                 "transistor count) favor the dependence-based "
                 "organization, and the gap widens with issue width.");
    }};
}

// ---------------------------------------------------------------------
// Paper figures

/**
 * Figure 10 / Section 4.5: wakeup and select form an atomic
 * operation. Pipelining the loop over two stages stops dependent
 * instructions from issuing in consecutive cycles; the IPC cost is
 * then set against the clock gain pipelining would buy, showing why
 * the paper simplifies the logic instead.
 */
Experiment
fig10()
{
    std::vector<Variant> v;
    for (int stages = 1; stages <= 3; ++stages)
        v.push_back(tweaked("ws" + std::to_string(stages),
                            baseline8Way(), [&](SimConfig &c) {
                                c.wakeup_select_stages = stages;
                            }));
    return {"fig10_atomic_wakeup", v, [](const Grid &g, Report &out) {
        Table t("Figure 10: IPC with atomic vs pipelined wakeup+select "
                "(8-way, 64-entry window)");
        t.header({"benchmark", "atomic (1 stage)",
                  "pipelined (2 stages)", "pipelined (3 stages)",
                  "loss 2-stage %"});
        double sum1 = 0, sum2 = 0;
        int n = 0;
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            double ipc[3];
            for (size_t s = 0; s < 3; ++s)
                ipc[s] = g.at(s, w).ipc();
            sum1 += ipc[0];
            sum2 += ipc[1];
            ++n;
            t.row({g.workloads[w], cell(ipc[0], 3), cell(ipc[1], 3),
                   cell(ipc[2], 3),
                   cell(100.0 * (1.0 - ipc[1] / ipc[0]))});
        }
        out.table(t);

        // Would pipelining pay off? The 2-stage window halves the
        // window stage delay; compare delivered performance.
        ClockEstimator est(Process::um0_18);
        double ipc_ratio = (sum2 / n) / (sum1 / n);
        for (const SimConfig &m : {scaledBaseline(4), baseline8Way()}) {
            StageDelays d = est.delays(clockConfig(m));
            double clk_atomic = d.criticalPs();
            double clk_pipe =
                std::max({d.rename, d.window() / 2.0, d.bypass});
            out.text += strprintf(
                "\n%d-way/%d: clock atomic %.1f ps vs pipelined "
                "%.1f ps (%.2fx); with the ~%.0f%% IPC loss the net "
                "effect of pipelining is %.2fx\n",
                m.issue_width, m.window_size, clk_atomic, clk_pipe,
                clk_atomic / clk_pipe,
                100.0 * (1.0 - ipc_ratio),
                ipc_ratio * clk_atomic / clk_pipe);
        }
        out.line("Paper's point: the loop is atomic if dependent "
                 "instructions are to execute in consecutive cycles; "
                 "simplifying the logic (FIFOs + reservation table) "
                 "beats pipelining it.");
    }};
}

// The code segment of Figure 12 in PJ-RISC, with the same register
// roles: $18->s2, $2->a2, $4->a0, $20->s4, $16->s0, $19->s3, $3->v1,
// $23->s7, $17->s1, $28->gp.
const char *kFigure12 = R"ASM(
        .data
g:      .space 64
        .text
main:   add  s2, zero, a2       # 0: addu $18,$0,$2
        addi a2, zero, -1       # 1: addiu $2,$0,-1
        beq  s2, a2, skip       # 2: beq $18,$2,L2
skip:   lw   a0, 0(gp)          # 3: lw $4,-32768($28)
        sllv a2, s2, s4         # 4: sllv $2,$18,$20
        xor  s0, a2, s3         # 5: xor $16,$2,$19
        lw   v1, 4(gp)          # 6: lw $3,-32676($28)
        slli a2, s0, 2          # 7: sll $2,$16,0x2
        add  a2, a2, s7         # 8: addu $2,$2,$23
        lw   a2, 0(a2)          # 9: lw $2,0($2)
        sllv a0, s2, a0         # 10: sllv $4,$18,$4
        add  s1, a0, s3         # 11: addu $17,$4,$19
        addi v1, v1, 1          # 12: addiu $3,$3,1
        sw   v1, 4(gp)          # 13: sw $3,-32676($28)
        beq  a2, s1, out        # 14: beq $2,$17,L3
out:    halt
)ASM";

const char *kFigure12Paper[] = {
    "addu $18,$0,$2", "addiu $2,$0,-1", "beq $18,$2,L2",
    "lw $4,-32768($28)", "sllv $2,$18,$20", "xor $16,$2,$19",
    "lw $3,-32676($28)", "sll $2,$16,0x2", "addu $2,$2,$23",
    "lw $2,0($2)", "sllv $4,$18,$4", "addu $17,$4,$19",
    "addiu $3,$3,1", "sw $3,-32676($28)", "beq $2,$17,L3",
};

/**
 * Figure 12: the paper's instruction steering example. The figure
 * walks a 15-instruction SPEC code segment through the Section 5.1
 * heuristic with four FIFOs and shows dependent chains stacking in
 * shared FIFOs while independent chains spread out. The spec has no
 * variants: its report runs the same segment through a dependence-
 * based pipeline of its own, prints the FIFO assignment and issue
 * schedule, and checks the figure's chains (MISMATCH if one splits).
 */
Experiment
fig12()
{
    return {"fig12_steering_example", {}, [](const Grid &, Report &out) {
        trace::TraceBuffer buf;
        func::runProgram(kFigure12, 1000, &buf);

        SimConfig cfg;
        cfg.name = "fig12";
        cfg.style = uarch::IssueBufferStyle::Fifos;
        cfg.steering = uarch::SteeringPolicy::DependenceFifo;
        cfg.fifos_per_cluster = 4;
        cfg.fifo_depth = 8;
        cfg.issue_width = 4;
        cfg.fus_per_cluster = 4;

        uarch::Pipeline pipe(cfg, buf);
        std::map<uint64_t, uarch::DynInst> insts;
        pipe.setDispatchObserver([&](const uarch::DynInst &d) {
            insts[d.seq] = d;
        });
        pipe.setIssueObserver([&](const uarch::DynInst &d) {
            insts[d.seq].issue_cycle = d.issue_cycle;
        });
        SimStats stats = pipe.run();

        Table t("Figure 12: steering of the paper's code segment "
                "(4 FIFOs, 4-wide)");
        t.header({"#", "paper instruction", "fifo", "issue cycle"});
        uint64_t first_issue = UINT64_MAX;
        for (const auto &[seq, d] : insts)
            first_issue = std::min(first_issue, d.issue_cycle);
        for (const auto &[seq, d] : insts) {
            if (seq >= 15)
                break; // the trailing halt
            t.row({cell(seq), kFigure12Paper[seq], cell(d.fifo),
                   cell(d.issue_cycle - first_issue)});
        }
        out.table(t);

        // The chain structure of the figure: {0,2}, {4,5,7,8,9},
        // {6,12,13}, {10,11}.
        auto chain = [&](std::initializer_list<uint64_t> seqs) {
            for (uint64_t s : seqs)
                if (insts.at(s).fifo != insts.at(*seqs.begin()).fifo)
                    return " MISMATCH";
            return " ok";
        };
        out.text += strprintf("chains sharing a FIFO: {0,2}%s  "
                              "{4,5,7,8,9}%s  {6,12,13}%s  {10,11}%s\n",
                              chain({0, 2}), chain({4, 5, 7, 8, 9}),
                              chain({6, 12, 13}), chain({10, 11}));
        out.text += strprintf("segment IPC %.2f over %llu cycles\n",
                              stats.ipc(),
                              (unsigned long long)stats.cycles());
    }};
}

/**
 * Figure 13: the dependence-based machine (eight 8-entry FIFOs)
 * against the 8-way, 64-entry window machine. The paper reports it
 * within 5% for five of seven benchmarks, worst 8% (li).
 */
Experiment
fig13()
{
    return {"fig13_dependence_ipc",
            {{"baseline", baseline8Way()}, {"dep8x8", dependence8x8()}},
            [](const Grid &g, Report &out) {
        Table t("Figure 13: IPC, baseline window vs dependence-based "
                "FIFOs (8-way)");
        t.header({"benchmark", "baseline IPC", "dep-based IPC",
                  "degradation %"});
        StatGroup fig("cesp.fig13",
                      "IPC degradation, dep-based FIFOs vs window");
        double worst = 0.0, sum = 0.0;
        int n = 0;
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            const SimStats &sb = g.at(0, w), &sd = g.at(1, w);
            double deg = 100.0 * (1.0 - sd.ipc() / sb.ipc());
            worst = std::max(worst, deg);
            sum += deg;
            ++n;
            t.row({g.workloads[w], cell(sb.ipc(), 3), cell(sd.ipc(), 3),
                   cell(deg)});
            fig.addGauge(g.workloads[w] + ".degradation_pct", "%",
                         "IPC loss of the dependence-based machine",
                         deg);
            out.addRun(g, 0, w);
            out.addRun(g, 1, w);
        }
        out.table(t);
        out.text += strprintf("mean degradation %.1f%%, max %.1f%% "
                              "(paper: within 5%% for 5 of 7, max 8%% "
                              "on li)\n",
                              sum / n, worst);
        fig.addGauge("mean_degradation_pct", "%",
                     "arithmetic mean over workloads", sum / n);
        fig.addGauge("max_degradation_pct", "%", "worst workload",
                     worst);
        out.summary = {fig};
    }};
}

/**
 * Figure 15: the clustered dependence-based machine (2x4-way,
 * 2-cycle inter-cluster bypass) against the 8-way window machine
 * with uniform 1-cycle bypass. Paper: 6.3% average degradation,
 * worst m88ksim (~12%) and compress (~9%).
 */
Experiment
fig15()
{
    return {"fig15_clustered_ipc",
            {{"baseline", baseline8Way()},
             {"clustered2x4", clusteredDependence2x4()}},
            [](const Grid &g, Report &out) {
        Table t("Figure 15: IPC, 64-entry window 8-way vs 2-cluster "
                "dependence-based 8-way");
        t.header({"benchmark", "window IPC", "2x4 dep IPC",
                  "degradation %", "inter-cluster bypass %"});
        StatGroup fig("cesp.fig15",
                      "clustered dependence-based vs ideal window");
        double sum = 0.0;
        int n = 0;
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            const SimStats &sb = g.at(0, w), &sd = g.at(1, w);
            double deg = 100.0 * (1.0 - sd.ipc() / sb.ipc());
            sum += deg;
            ++n;
            t.row({g.workloads[w], cell(sb.ipc(), 3), cell(sd.ipc(), 3),
                   cell(deg), cell(sd.interClusterPct())});
            fig.addGauge(g.workloads[w] + ".degradation_pct", "%",
                         "IPC loss of the clustered machine", deg);
            fig.addGauge(g.workloads[w] + ".intercluster_pct", "%",
                         "instructions bypassing between clusters",
                         sd.interClusterPct());
            out.addRun(g, 0, w);
            out.addRun(g, 1, w);
        }
        out.table(t);
        out.text += strprintf("mean IPC degradation %.1f%% (paper: "
                              "6.3%% average; worst cases m88ksim "
                              "~12%%, compress ~9%%)\n",
                              sum / n);
        fig.addGauge("mean_degradation_pct", "%",
                     "arithmetic mean over workloads", sum / n);
        out.summary = {fig};
    }};
}

/**
 * Figure 17: the five clustered organizations — IPC (top graph) and
 * inter-cluster bypass frequency (bottom graph). Paper: random
 * steering degrades IPC 17-26%; execution-driven steering is within
 * 6% of ideal; both dispatch-steered organizations are competitive;
 * bypass frequency anticorrelates with IPC.
 */
Experiment
fig17()
{
    std::vector<Variant> v;
    for (const SimConfig &cfg : figure17Configs())
        v.push_back(preset(cfg));
    return {"fig17_clustered_variants", v, [](const Grid &g,
                                               Report &out) {
        std::vector<std::string> hdr = {"benchmark"};
        for (const SimConfig &cfg : g.configs)
            hdr.push_back(cfg.name);
        auto grid = [&](const char *title, auto value) {
            Table t(title);
            t.header(hdr);
            for (size_t w = 0; w < g.workloads.size(); ++w) {
                std::vector<std::string> row = {g.workloads[w]};
                for (size_t c = 0; c < g.configs.size(); ++c)
                    row.push_back(value(c, w));
                t.row(row);
            }
            out.table(t);
        };
        auto degradation = [&](size_t c, size_t w) {
            return 100.0 * (1.0 - g.at(c, w).ipc() / g.at(0, w).ipc());
        };
        grid("Figure 17 (top): IPC of clustered microarchitectures",
             [&](size_t c, size_t w) { return cell(g.at(c, w).ipc(), 3); });
        grid("Figure 17 (bottom): inter-cluster bypass frequency (%)",
             [&](size_t c, size_t w) {
                 return cell(g.at(c, w).interClusterPct());
             });
        grid("IPC degradation vs the ideal 1-cluster window (%)",
             [&](size_t c, size_t w) { return cell(degradation(c, w)); });
        out.line("Paper: random steering degrades 17-26%; exec-driven "
                 "within 6% of ideal; dispatch-steered FIFOs and "
                 "windows competitive; higher bypass frequency <-> "
                 "lower IPC.");

        StatGroup fig("cesp.fig17",
                      "clustered design space: IPC degradation vs "
                      "the ideal 1-cluster window");
        for (size_t c = 1; c < g.configs.size(); ++c)
            for (size_t w = 0; w < g.workloads.size(); ++w)
                fig.addGauge(g.configs[c].name + "." + g.workloads[w] +
                                 ".degradation_pct", "%",
                             "IPC loss vs the ideal single-cluster "
                             "window",
                             degradation(c, w));
        out.summary = {fig};
    }};
}

/**
 * Sections 5.3 / 5.5: the combined complexity-effectiveness result.
 * The window logic of the 8-way machine against the 4-way/32-entry
 * one gives the clock ratio 724.0 / 578.0 = 1.25 at 0.18 um; rename
 * becomes critical once the window logic is simplified (up to ~39%
 * clock headroom at 4 wide); with the clustered dependence-based IPC
 * the overall speedup is 10-22% (paper average: 16%).
 */
Experiment
sec55()
{
    return {"sec55_speedup",
            {{"window", baseline8Way()},
             {"clustered2x4", clusteredDependence2x4()}},
            [](const Grid &g, Report &out) {
        RenameDelayModel rn(Process::um0_18);
        WakeupDelayModel wk(Process::um0_18);
        SelectDelayModel sl(Process::um0_18);
        double window4 = wk.totalPs(4, 32) + sl.totalPs(32);
        double rename4 = rn.totalPs(4);
        double slack = 100.0 * (window4 - rename4) / window4;
        out.text += strprintf(
            "Section 5.3 (0.18um): rename %.1f ps vs window %.1f ps -> "
            "rename is %.1f%% faster; simplifying the window can "
            "improve the 4-way clock by up to that margin (paper: "
            "~39%%).\n\n",
            rename4, window4, slack);

        // The dep-based machine clocks at least as fast as a machine
        // with half the width and half the window; its speedup on a
        // benchmark is the IPC ratio (Figure 15) times that clock ratio.
        double clock_ratio =
            ClockEstimator(Process::um0_18).dependenceClockRatio(8, 64);
        auto ipcRatio = [&](size_t w) {
            return g.at(1, w).ipc() / g.at(0, w).ipc();
        };
        out.text += strprintf("Section 5.5 clock ratio clk_dep/clk_win "
                              "= %.4f (paper: 724.0/578.0 = 1.2526)\n\n",
                              clock_ratio);
        Table t("Section 5.5: overall speedup of the 2x4-way "
                "dependence-based machine");
        t.header({"benchmark", "IPC window", "IPC dep 2x4", "IPC ratio",
                  "x clock", "speedup %"});
        double speedup_sum = 0.0;
        double ratio_sum = 0.0;
        size_t n = g.workloads.size();
        for (size_t w = 0; w < n; ++w) {
            double ratio = ipcRatio(w);
            double speedup = ratio * clock_ratio;
            speedup_sum += speedup;
            ratio_sum += ratio;
            t.row({g.workloads[w], cell(g.at(0, w).ipc(), 3),
                   cell(g.at(1, w).ipc(), 3), cell(ratio, 3),
                   cell(clock_ratio, 3), cell(100.0 * (speedup - 1.0))});
        }
        out.table(t);
        double mean_speedup = speedup_sum / static_cast<double>(n);
        out.text += strprintf("mean speedup %.1f%% (paper: 10-22%%, "
                              "average 16%%)\n",
                              100.0 * (mean_speedup - 1.0));

        StatGroup study("cesp.speedup_study",
                        technology(Process::um0_18).name +
                            " dep-based 2x4 vs window 8-way");
        study.addGauge("clock_ratio", "ratio",
                       "dependence-based clock over window-based clock",
                       clock_ratio);
        study.addGauge("mean_speedup", "ratio",
                       "arithmetic mean of per-workload overall speedups",
                       mean_speedup);
        study.addGauge("mean_ipc_ratio", "ratio",
                       "arithmetic mean of per-workload IPC ratios",
                       ratio_sum / static_cast<double>(n));
        for (size_t w = 0; w < n; ++w) {
            const std::string &name = g.workloads[w];
            study.addGauge(name + ".ipc_window", "ipc",
                           "IPC on the 8-way 64-entry window machine",
                           g.at(0, w).ipc());
            study.addGauge(name + ".ipc_dep", "ipc",
                           "IPC on the 2x4 clustered dependence machine",
                           g.at(1, w).ipc());
            study.addGauge(name + ".ipc_ratio", "ratio",
                           "dep-based IPC over window-based IPC",
                           ipcRatio(w));
            study.addGauge(name + ".speedup", "ratio",
                           "IPC ratio times clock ratio",
                           ipcRatio(w) * clock_ratio);
        }
        study.addGauge("rename4_ps", "ps", "4-wide rename delay at 0.18um",
                       rename4);
        study.addGauge("window4_ps", "ps",
                       "4-wide/32-entry wakeup+select delay at 0.18um",
                       window4);
        study.addGauge("rename_slack_pct", "%",
                       "margin by which rename beats window logic "
                       "(Section 5.3 clock headroom)",
                       slack);
        out.groups = {study};
    }};
}

// ---------------------------------------------------------------------
// Ablations

/**
 * Section 4.3: selection-policy insensitivity. Butler and Patt found
 * performance largely independent of which ready instruction the
 * selection logic grants; the paper leans on that to adopt the
 * simple position-based (oldest-first) arbiter.
 */
Experiment
ablSelectPolicy()
{
    std::vector<Variant> v;
    for (auto [name, policy] :
         {std::pair{"oldest-first", uarch::SelectPolicy::OldestFirst},
          std::pair{"youngest-first", uarch::SelectPolicy::YoungestFirst},
          std::pair{"random", uarch::SelectPolicy::Random}})
        v.push_back(tweaked(name, baseline8Way(), [&](SimConfig &c) {
            c.select_policy = policy;
        }));
    return {"abl_select_policy", v, [](const Grid &g, Report &out) {
        Table t("Selection policy ablation: IPC (8-way, 64-entry "
                "window)");
        t.header({"benchmark", "oldest-first", "youngest-first",
                  "random", "spread %"});
        double worst_spread = 0.0;
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            double ipc[3];
            for (size_t i = 0; i < 3; ++i)
                ipc[i] = g.at(i, w).ipc();
            double lo = std::min({ipc[0], ipc[1], ipc[2]});
            double hi = std::max({ipc[0], ipc[1], ipc[2]});
            double spread = 100.0 * (hi - lo) / hi;
            worst_spread = std::max(worst_spread, spread);
            t.row({g.workloads[w], cell(ipc[0], 3), cell(ipc[1], 3),
                   cell(ipc[2], 3), cell(spread)});
        }
        out.table(t);
        out.text += strprintf("worst spread across policies: %.1f%% "
                              "(Butler & Patt: performance largely "
                              "independent of the selection policy)\n",
                              worst_spread);
    }};
}

/**
 * Section 4.3.1: window compaction. Oldest-first selection needs the
 * window compacted toward the high-priority end on every issue; the
 * paper conjectures "some restricted form of compacting can be used,
 * so that overall performance is not affected". Compacting window
 * against a non-compacting slot-priority window.
 */
Experiment
ablWindowCompaction()
{
    return {"abl_window_compaction",
            {tweaked("age", baseline8Way(), [](SimConfig &) {}),
             tweaked("slot", baseline8Way(),
                     [](SimConfig &c) { c.window_compaction = false; })},
            [](const Grid &g, Report &out) {
        Table t("Window compaction ablation (8-way, 64-entry window)");
        t.header({"benchmark", "compacting (age)", "slot priority",
                  "delta %"});
        double worst = 0.0;
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            double a = g.at(0, w).ipc(), s = g.at(1, w).ipc();
            double delta = 100.0 * (a - s) / a;
            worst = std::max(worst, std::abs(delta));
            t.row({g.workloads[w], cell(a, 3), cell(s, 3), cell(delta)});
        }
        out.table(t);
        out.text += strprintf("worst |delta| %.1f%% -- the paper's "
                              "conjecture (restricted compaction does "
                              "not affect overall performance) "
                              "holds.\n",
                              worst);
    }};
}

/**
 * Section 4.5 (after Ahuja et al.): the cost of incomplete
 * bypassing. Without same-cycle bypass paths even local consumers
 * wait; the paper argues the bypass is atomic for this reason, and
 * that wide machines must cluster rather than slow the local bypass.
 */
Experiment
ablBypassPaths()
{
    std::vector<Variant> v;
    for (int extra = 0; extra <= 2; ++extra)
        v.push_back(tweaked("bp" + std::to_string(extra), baseline8Way(),
                            [&](SimConfig &c) {
                                c.local_bypass_extra = extra;
                            }));
    return {"abl_bypass_paths", v, [](const Grid &g, Report &out) {
        Table t("Incomplete-bypass ablation: IPC vs extra local result "
                "latency (8-way window)");
        t.header({"benchmark", "full bypass (+0)", "+1 cycle",
                  "+2 cycles", "loss at +1 %"});
        double sum0 = 0, sum1 = 0;
        int n = 0;
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            double ipc[3];
            for (size_t e = 0; e < 3; ++e)
                ipc[e] = g.at(e, w).ipc();
            sum0 += ipc[0];
            sum1 += ipc[1];
            ++n;
            t.row({g.workloads[w], cell(ipc[0], 3), cell(ipc[1], 3),
                   cell(ipc[2], 3),
                   cell(100.0 * (1.0 - ipc[1] / ipc[0]))});
        }
        out.table(t);
        out.text += strprintf("mean IPC loss from +1 cycle of local "
                              "result latency: %.1f%%\n",
                              100.0 * (1.0 - (sum1 / n) / (sum0 / n)));
        out.line("Compare: the clustered dependence-based machine pays "
                 "this only on *inter-cluster* values (Figures 15/17), "
                 "not on every dependence.");
    }};
}

/**
 * FIFO pool geometry of the dependence-based machine. The paper
 * picks eight 8-entry FIFOs for the 8-way machine; IPC against the
 * number of FIFOs (parallel-chain capacity) and their depth (chain
 * length capacity) supports that choice.
 */
Experiment
ablFifoGeometry()
{
    static const int counts[] = {4, 6, 8, 12, 16};
    static const int depths[] = {2, 4, 8, 16};
    std::vector<Variant> v;
    for (int f : counts)
        for (int d : depths)
            v.push_back(tweaked(
                "fifo" + std::to_string(f) + "x" + std::to_string(d),
                dependence8x8(), [&](SimConfig &c) {
                    c.fifos_per_cluster = f;
                    c.fifo_depth = d;
                }));
    v.push_back(preset(baseline8Way()));
    return {"abl_fifo_geometry", v, [](const Grid &g, Report &out) {
        Table t("FIFO geometry sweep: mean IPC over all workloads "
                "(8-way dependence-based, 1 cluster)");
        std::vector<std::string> hdr = {"fifos \\ depth"};
        for (int d : depths)
            hdr.push_back(std::to_string(d));
        t.header(hdr);
        double base_ipc = 0.0;
        size_t v = 0;
        for (int f : counts) {
            std::vector<std::string> row = {std::to_string(f)};
            for (int d : depths) {
                double ipc = meanIpc(g, v++);
                if (f == 8 && d == 8)
                    base_ipc = ipc;
                row.push_back(cell(ipc, 3));
            }
            t.row(row);
        }
        out.table(t);
        double window_ipc = meanIpc(g, v);
        out.text += strprintf("paper's 8x8 point: %.3f IPC = %.1f%% of "
                              "the 64-entry window machine (%.3f)\n",
                              base_ipc, 100.0 * base_ipc / window_ipc,
                              window_ipc);
        out.line("More FIFOs buy parallel-chain capacity; depth beyond "
                 "~8 buys little (chains longer than the window's "
                 "reach serialize anyway).");
    }};
}

/**
 * The complexity-effectiveness frontier of the issue window: IPC
 * grows with window size while the wakeup+select delay (and so the
 * clock) degrades; their product, BIPS, peaks at a moderate window.
 */
Experiment
ablWindowFrontier()
{
    static const int sizes[] = {16, 32, 64, 128};
    std::vector<Variant> v;
    for (int ws : sizes)
        v.push_back(tweaked("win" + std::to_string(ws), baseline8Way(),
                            [&](SimConfig &c) { c.window_size = ws; }));
    v.push_back(preset(dependence8x8()));
    return {"abl_window_frontier", v, [](const Grid &g, Report &out) {
        ClockEstimator est(Process::um0_18);
        Table t("Window-size frontier (8-way, 0.18um)");
        t.header({"window", "mean IPC", "wakeup+select ps", "clock ps",
                  "clock MHz", "BIPS"});
        double best = 0.0;
        int best_ws = 0;
        for (size_t i = 0; i < std::size(sizes); ++i) {
            int ws = sizes[i];
            double ipc = meanIpc(g, i);
            StageDelays d = est.delays(clockConfig(g.configs[i]));
            double mhz = d.clockMhz();
            double bips = ipc * mhz / 1000.0;
            if (bips > best) {
                best = bips;
                best_ws = ws;
            }
            t.row({cell(ws), cell(ipc, 3), cell(d.window()),
                   cell(d.criticalPs()), cell(mhz, 0), cell(bips, 2)});
        }
        out.table(t);
        out.text += strprintf("frontier peak at a %d-entry window "
                              "(%.2f BIPS): bigger windows buy IPC the "
                              "slower clock gives back.\n",
                              best_ws, best);

        // The dependence-based alternative escapes the tradeoff:
        // window logic is a reservation-table access + 8-head select.
        double dep_ipc = meanIpc(g, std::size(sizes));
        double dep_clock =
            est.delays(clockConfig(g.configs[std::size(sizes)]))
                .criticalPs();
        out.text += strprintf("dependence-based 8x8: IPC %.3f at %.1f ps "
                              "-> %.2f BIPS\n",
                              dep_ipc, dep_clock,
                              dep_ipc * 1e6 / dep_clock / 1000.0);
    }};
}

/**
 * Branch predictor sensitivity. Table 3 fixes McFarling's gshare;
 * the IPC results under other predictors bound the predictor's
 * effect on the paper's comparisons (both machines of every
 * comparison share the front end, so relative results hold). Exports
 * per-workload `<predictor>.ipc` / `.mispredict_pct` gauges and the
 * geomean IPC ratios as a summary group.
 */
Experiment
ablBpred()
{
    struct Pred
    {
        const char *name; //!< table column header
        const char *slug; //!< metric-name prefix in the export
        uarch::BpredKind kind;
        bool perfect;
    };
    static const Pred preds[] = {
        {"perfect", "perfect", uarch::BpredKind::Gshare, true},
        {"gshare (Table 3)", "gshare", uarch::BpredKind::Gshare, false},
        {"bimodal", "bimodal", uarch::BpredKind::Bimodal, false},
        {"always-taken", "always_taken", uarch::BpredKind::AlwaysTaken,
         false},
    };
    // Variant 2p is the baseline and 2p + 1 the dependence-based
    // machine under predictor p.
    std::vector<Variant> v;
    for (const Pred &p : preds)
        for (auto [machine, cfg] : {std::pair{"baseline", baseline8Way()},
                                    std::pair{"dep8x8", dependence8x8()}}) {
            cfg.bpred.kind = p.kind;
            cfg.bpred.perfect = p.perfect;
            v.push_back({std::string(p.slug) + "." + machine, cfg});
        }
    return {"abl_bpred", v, [](const Grid &g, Report &out) {
        std::vector<std::string> hdr = {"benchmark"};
        for (const Pred &p : preds)
            hdr.push_back(p.name);
        Table t("Branch predictor ablation: baseline IPC / "
                "misprediction rate %");
        t.header(hdr);
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            StatGroup grp("bpred_ablation", g.workloads[w]);
            std::vector<std::string> row = {g.workloads[w]};
            for (size_t p = 0; p < std::size(preds); ++p) {
                const SimStats &s = g.at(2 * p, w);
                grp.addGauge(std::string(preds[p].slug) + ".ipc",
                             "inst/cycle",
                             "Baseline IPC under this predictor",
                             s.ipc());
                grp.addGauge(std::string(preds[p].slug) +
                                 ".mispredict_pct", "%",
                             "Conditional misprediction rate under "
                             "this predictor",
                             100.0 * s.mispredictRate());
                row.push_back(strprintf("%.2f / %.1f", s.ipc(),
                                        100.0 * s.mispredictRate()));
            }
            t.row(row);
            out.groups.push_back(std::move(grp));
        }
        out.table(t);

        // Relative dep-based result under each predictor: the geomean
        // over workloads of dep IPC / baseline IPC.
        StatGroup summary("bpred_ablation.ratio",
                          "dep8x8 over baseline, geomean across "
                          "workloads");
        Table r("Dependence-based IPC ratio vs baseline under each "
                "predictor");
        hdr[0] = "";
        r.header(hdr);
        std::vector<std::string> row = {"geomean ratio"};
        for (size_t p = 0; p < std::size(preds); ++p) {
            double prod = 1.0;
            for (size_t w = 0; w < g.workloads.size(); ++w)
                prod *= g.at(2 * p + 1, w).ipc() / g.at(2 * p, w).ipc();
            double geomean = std::pow(
                prod, 1.0 / static_cast<double>(g.workloads.size()));
            summary.addGauge(std::string(preds[p].slug) + ".ipc_ratio",
                             "ratio",
                             "Geomean dep8x8/baseline IPC ratio under "
                             "this predictor",
                             geomean);
            row.push_back(cell(geomean, 3));
        }
        r.row(row);
        out.table(r);
        out.line("The dependence-based machine tracks the window "
                 "machine under every predictor: the comparison is "
                 "front-end insensitive.");
        out.summary = {summary};
    }};
}

/**
 * gshare history length. Table 3 fixes 12 bits of global history
 * over 4K counters; where that sits on each workload's accuracy
 * curve (0 bits = a bimodal-style pc-indexed table). Both tables
 * read one grid, so each (history, workload) pair simulates once.
 */
Experiment
ablGshareHistory()
{
    static const int histories[] = {0, 4, 8, 12, 16};
    std::vector<Variant> v;
    for (int h : histories)
        v.push_back(tweaked("h" + std::to_string(h), baseline8Way(),
                            [&](SimConfig &c) {
                                c.bpred.history_bits = h;
                            }));
    return {"abl_gshare_history", v, [](const Grid &g, Report &out) {
        std::vector<std::string> hdr = {"benchmark"};
        for (int h : histories)
            hdr.push_back(h == 12 ? "12 (Table 3)" : std::to_string(h));
        auto table = [&](const char *title, auto value) {
            Table t(title);
            t.header(hdr);
            for (size_t w = 0; w < g.workloads.size(); ++w) {
                std::vector<std::string> row = {g.workloads[w]};
                for (size_t h = 0; h < g.configs.size(); ++h)
                    row.push_back(value(g.at(h, w)));
                t.row(row);
            }
            out.table(t);
        };
        table("gshare history-length sweep: misprediction rate (%)",
              [](const SimStats &s) {
                  return cell(100.0 * s.mispredictRate());
              });
        table("Resulting IPC",
              [](const SimStats &s) { return cell(s.ipc(), 3); });
        out.line("History pays where outcomes correlate across "
                 "branches (go's recursion: 26% -> 11%) and costs a "
                 "little aliasing where they are data-dependent (gcc, "
                 "vortex); Table 3's 12 bits sits at the knee of every "
                 "curve.");
    }};
}

/**
 * Front-end depth. The misprediction penalty grows with pipeline
 * depth: deeper pipelines motivate the complexity analysis (Section
 * 1), and a more complex steering heuristic "can be moved into a new
 * pipestage — at the cost of an increase in branch mispredict
 * penalty" (Section 5.3). This measures that cost.
 */
Experiment
ablFrontendDepth()
{
    static const int depths[] = {1, 2, 3, 4, 6};
    std::vector<Variant> v;
    for (int d : depths)
        v.push_back(tweaked("fe" + std::to_string(d), baseline8Way(),
                            [&](SimConfig &c) {
                                c.frontend_latency = d;
                            }));
    v.push_back(preset(dependence8x8()));
    v.push_back(tweaked("dep-deep", dependence8x8(), [](SimConfig &c) {
        c.frontend_latency += 1;
    }));
    return {"abl_frontend_depth", v, [](const Grid &g, Report &out) {
        const size_t n_depths = std::size(depths);
        Table t("Front-end depth ablation: baseline IPC vs fetch-to-"
                "rename latency");
        std::vector<std::string> hdr = {"benchmark"};
        for (int d : depths)
            hdr.push_back(std::to_string(d) + " stages");
        t.header(hdr);
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            std::vector<std::string> row = {g.workloads[w]};
            for (size_t d = 0; d < n_depths; ++d)
                row.push_back(cell(g.at(d, w).ipc(), 3));
            t.row(row);
        }
        out.table(t);

        // The steering-pipestage cost (Section 5.3): the
        // dependence-based machine with one extra front-end stage.
        Table s("Extra steering pipestage on the dependence-based "
                "machine (Section 5.3)");
        s.header({"benchmark", "steer in rename", "steer +1 stage",
                  "cost %"});
        double sum = 0.0;
        int n = 0;
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            double a = g.at(n_depths, w).ipc();
            double b = g.at(n_depths + 1, w).ipc();
            sum += 100.0 * (a - b) / a;
            ++n;
            s.row({g.workloads[w], cell(a, 3), cell(b, 3),
                   cell(100.0 * (a - b) / a)});
        }
        out.table(s);
        out.text += strprintf("mean cost of the extra steering stage: "
                              "%.1f%% (the paper keeps steering inside "
                              "rename to avoid it)\n",
                              sum / n);
    }};
}

/**
 * Inter-cluster interconnect and functional-unit mix. Section 5.6.2
 * contrasts the paper's broadcast with PEWs' ring: with two clusters
 * they coincide, at four the ring's multi-hop latency costs IPC (4x4
 * dependence-based machine). Table 3 assumes 8 symmetric units; the
 * typed mixes show how far they can shrink before structural hazards
 * bite.
 */
Experiment
ablInterconnectFu()
{
    static const std::pair<const char *, uarch::FuMix> mixes[] = {
        {"8 symmetric (Table 3)", {}},
        {"5 alu / 4 mem / 2 br", {5, 4, 2}},
        {"4 alu / 3 mem / 2 br", {4, 3, 2}},
        {"4 alu / 2 mem / 1 br", {4, 2, 1}},
        {"2 alu / 2 mem / 1 br", {2, 2, 1}},
    };
    std::vector<Variant> v;
    for (auto [label, ic] :
         {std::pair{"broadcast", uarch::ClusterInterconnect::Broadcast},
          std::pair{"ring", uarch::ClusterInterconnect::Ring}})
        for (int extra : {1, 2}) {
            SimConfig cfg = clusteredDependence4x4();
            cfg.name = "ic";
            cfg.interconnect = ic;
            cfg.inter_cluster_extra = extra;
            v.push_back({label + std::string(" +") +
                             std::to_string(extra) + "/hop",
                         cfg});
        }
    for (const auto &[label, mix] : mixes) {
        SimConfig cfg = baseline8Way();
        cfg.name = "mix";
        cfg.fu_mix = mix;
        v.push_back({label, cfg});
    }
    return {"abl_interconnect_fu", v, [](const Grid &g, Report &out) {
        Table t("Interconnect topology: 4x4-way dependence-based, "
                "mean IPC");
        t.header({"interconnect", "+1/hop", "+2/hop"});
        t.row({"broadcast (paper)", cell(meanIpc(g, 0), 3),
               cell(meanIpc(g, 1), 3)});
        t.row({"ring (PEWs-style)", cell(meanIpc(g, 2), 3),
               cell(meanIpc(g, 3), 3)});
        out.table(t);
        out.line("With 4 clusters the ring's worst path is 2 hops; the "
                 "broadcast the paper assumes is strictly better "
                 "(Section 5.6.2's critique of PEWs).\n");

        Table f("Functional-unit mix (8-way window machine)");
        std::vector<std::string> hdr = {"benchmark"};
        for (const auto &m : mixes)
            hdr.push_back(m.first);
        f.header(hdr);
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            std::vector<std::string> row = {g.workloads[w]};
            for (size_t m = 0; m < std::size(mixes); ++m)
                row.push_back(cell(g.at(4 + m, w).ipc(), 3));
            f.row(row);
        }
        out.table(f);
        out.line("A 5/4/2 typed mix matches the symmetric machine; the "
                 "mix can halve before the ALU/branch units become the "
                 "bottleneck.");
    }};
}

/**
 * Section 5.4's outlook: scaling to 16 wide. A monolithic 16-way,
 * 128-entry window loses on the clock (wakeup+select and bypass);
 * four 4-way clusters keep the per-cluster structures at the sweet
 * spot. Each machine's aggregate is core::mergedStats over its
 * workload runs (derived IPC = total committed over total cycles)
 * with the delay-model clock and BIPS attached as gauges; those
 * merged groups are the export.
 */
Experiment
ablClusterScaling()
{
    static const char *const labels[] = {
        "8-way window", "16-way window", "16-way 4x4 dep-based"};
    return {"abl_cluster_scaling",
            {{labels[0], baseline8Way()},
             {labels[1], baseline16Way()},
             {labels[2], clusteredDependence4x4()}},
            [](const Grid &g, Report &out) {
        ClockEstimator est(Process::um0_18);

        Table t("Scaling to 16 wide (0.18um)");
        t.header({"machine", "mean IPC", "critical stage", "clock ps",
                  "clock MHz", "BIPS", "x-cluster %"});
        std::vector<StatGroup> merged;
        for (size_t v = 0; v < g.configs.size(); ++v) {
            StatGroup agg = g.merged(v);
            agg.label() = labels[v];

            StageDelays d = est.delays(clockConfig(g.configs[v]));
            addClockGauges(agg, d.clockMhz());
            t.row({agg.label(), cell(agg.value("ipc"), 3),
                   d.criticalStage(),
                   cell(d.criticalPs()), cell(d.clockMhz(), 0),
                   cell(agg.value("bips"), 2),
                   cell(agg.value("intercluster_pct"))});
            merged.push_back(std::move(agg));
        }
        out.table(t);
        out.line("The 16-way window machine gains little IPC and loses "
                 "the clock to its bypass wires; the 4x4 "
                 "dependence-based machine delivers the width at a "
                 "4-way cluster's clock (the paper's 'machines with "
                 "issue widths greater than four' argument).");
        out.groups = std::move(merged);
    }};
}

/**
 * Memory-hierarchy depth. Table 3 models a flat 6-cycle miss; an L2
 * and a slower memory show how the window machine and the clustered
 * dependence-based machine tolerate longer misses — tolerance comes
 * from the in-flight capacity both share.
 */
Experiment
ablMemoryLatency()
{
    static const int latencies[] = {0, 24, 48, 96}; // 0 = Table 3 flat
    std::vector<Variant> v;
    for (auto maker : {baseline8Way, clusteredDependence2x4})
        for (int mem : latencies) {
            SimConfig cfg = maker();
            if (mem) {
                cfg.l2.enabled = true;
                cfg.l2.memory_latency = mem;
            }
            v.push_back({cfg.name + (mem ? " L2+mem" + std::to_string(mem)
                                         : std::string(" flat")),
                         cfg});
        }
    return {"abl_memory_latency", v, [](const Grid &g, Report &out) {
        Table t("Memory-latency tolerance: mean IPC");
        t.header({"machine", "flat 6 (Table 3)", "L2 + mem 24",
                  "L2 + mem 48", "L2 + mem 96"});
        const size_t n = std::size(latencies);
        for (size_t m = 0; m < g.configs.size() / n; ++m) {
            std::vector<std::string> row = {g.configs[m * n].name};
            for (size_t l = 0; l < n; ++l)
                row.push_back(cell(meanIpc(g, m * n + l), 3));
            t.row(row);
        }
        out.table(t);
        // Both organizations degrade in lockstep: the FIFO organization
        // loses no latency tolerance relative to the window.
        out.line("The dependence-based machine's relative IPC holds as "
                 "memory slows: its latency tolerance comes from the "
                 "same in-flight capacity the window provides, not from "
                 "the window's flexibility.");
    }};
}

/**
 * Section 1: "brainiacs" versus "speed demons". An in-order machine
 * (no wakeup CAM, clocked at the rename/bypass limit), the
 * out-of-order window machine (clocked at the window limit) and the
 * dependence-based machine, compared in IPC and delivered BIPS.
 */
Experiment
ablBrainiacs()
{
    SimConfig inorder = scaledBaseline(4);
    inorder.name = "inorder-4way";
    inorder.in_order_issue = true;
    return {"abl_brainiacs",
            {preset(inorder), preset(baseline8Way()),
             preset(clusteredDependence2x4())},
            [](const Grid &g, Report &out) {
        RenameDelayModel rename(Process::um0_18);
        WakeupDelayModel wakeup(Process::um0_18);
        SelectDelayModel select(Process::um0_18);
        BypassDelayModel bypass(Process::um0_18);
        ReservationDelayModel resv(Process::um0_18);
        const std::pair<const char *, double> machines[] = {
            // Speed demon: 4-wide in-order issue; no window logic,
            // the clock is set by rename (bypass is short at 4 wide).
            {"in-order 4-way (speed demon)",
             std::max(rename.totalPs(4), bypass.totalPs(4))},
            // Brainiac: 8-way out-of-order, 64-entry window.
            {"OoO 8-way/64 window (brainiac)",
             std::max({rename.totalPs(8),
                       wakeup.totalPs(8, 64) + select.totalPs(64),
                       bypass.totalPs(8)})},
            // Complexity-effective: 2x4 dependence-based.
            {"2x4 dependence-based (complexity-effective)",
             std::max({rename.totalPs(8),
                       resv.totalPs(4, 120) + select.totalPs(4),
                       bypass.totalPs(4)})},
        };
        Table t("Brainiacs vs speed demons (0.18um, all workloads)");
        t.header({"machine", "mean IPC", "clock ps", "clock MHz",
                  "BIPS"});
        for (size_t v = 0; v < std::size(machines); ++v) {
            auto [label, clock_ps] = machines[v];
            double ipc = meanIpc(g, v);
            double mhz = 1e6 / clock_ps;
            t.row({label, cell(ipc, 3), cell(clock_ps), cell(mhz, 0),
                   cell(ipc * mhz / 1000.0, 2)});
        }
        out.table(t);
        out.line("The dependence-based machine pairs (nearly) brainiac "
                 "IPC with a speed-demon clock — the paper's "
                 "complexity-effective thesis.");
    }};
}

constexpr int kWindowSweep[] = {8, 16, 32, 64, 128, 256};

/** All the limit-study quantities of one workload. */
StatGroup
limitsGroup(const std::string &workload, double machine, double dep)
{
    trace::TraceView view = cachedWorkloadTraceView(workload);
    auto unlimited = trace::dataflowSchedule(view);
    trace::ScheduleLimits lim;
    lim.window = 64;
    lim.issue_width = 8;
    auto limited = trace::dataflowSchedule(view, lim);
    auto deps = trace::analyzeDependences(view);

    StatGroup g("ilp_limits", workload);
    g.addGauge("dataflow_ipc", "inst/cycle",
               "Unlimited dataflow-schedule IPC (unit latency, "
               "perfect prediction and caches)", unlimited.ipc);
    g.addGauge("ideal_w64_ipc", "inst/cycle",
               "Dataflow IPC limited to a 64-entry window, 8-wide",
               limited.ipc);
    g.addGauge("machine_ipc", "inst/cycle",
               "Realized IPC of the baseline window machine", machine);
    g.addGauge("dep_ipc", "inst/cycle",
               "Realized IPC of the dependence-based machine", dep);
    g.addGauge("captured_pct", "%",
               "Baseline IPC as a share of the finite-window ideal",
               100.0 * machine / limited.ipc);
    for (int ws : kWindowSweep) {
        trace::ScheduleLimits l;
        l.window = ws;
        l.issue_width = 8;
        g.addGauge("ideal_ipc_w" + std::to_string(ws), "inst/cycle",
                   "Idealized IPC with a " + std::to_string(ws) +
                       "-entry window, 8-wide",
                   trace::dataflowSchedule(view, l).ipc);
    }
    g.addGauge("dep_distance_mean", "instructions",
               "Mean producer-consumer distance",
               deps.distance.mean());
    g.addGauge("adjacent_pct", "%",
               "Instructions whose producer is the previous "
               "instruction", 100.0 * deps.adjacent_frac);
    g.addGauge("independent_pct", "%",
               "Instructions with no in-window producer",
               100.0 * deps.independent_frac);
    g.addGauge("critical_path", "instructions",
               "Dataflow critical path length",
               static_cast<double>(deps.critical_path));
    return g;
}

/**
 * ILP limit study: the simulated machines against each workload's
 * idealized dataflow schedule (unit latency, perfect prediction and
 * caches), and how the window size gates it (Section 4.2.2's "a
 * larger window is required for finding more independent
 * instructions"). Exports one group of gauges per workload.
 */
Experiment
ablIlpLimits()
{
    return {"abl_ilp_limits",
            {{"baseline", baseline8Way()}, {"dep8x8", dependence8x8()}},
            [](const Grid &g, Report &out) {
        for (size_t w = 0; w < g.workloads.size(); ++w)
            out.groups.push_back(limitsGroup(
                g.workloads[w], g.at(0, w).ipc(), g.at(1, w).ipc()));

        Table t("Dataflow ILP limits vs realized IPC");
        t.header({"benchmark", "dataflow", "win=64 iw=8", "machine IPC",
                  "dep-based IPC", "captured %"});
        Table win("Idealized IPC vs window size (issue width 8)");
        std::vector<std::string> hdr = {"benchmark"};
        for (int ws : kWindowSweep)
            hdr.push_back("w" + std::to_string(ws));
        win.header(hdr);
        Table d("Dependence character (what the steering heuristic "
                "exploits)");
        d.header({"benchmark", "mean dep distance", "adjacent %",
                  "independent %", "critical path"});
        for (const StatGroup &grp : out.groups) {
            t.row({grp.label(), cell(grp.value("dataflow_ipc"), 2),
                   cell(grp.value("ideal_w64_ipc"), 2),
                   cell(grp.value("machine_ipc"), 2),
                   cell(grp.value("dep_ipc"), 2),
                   cell(grp.value("captured_pct"))});
            std::vector<std::string> row = {grp.label()};
            for (int ws : kWindowSweep)
                row.push_back(cell(
                    grp.value("ideal_ipc_w" + std::to_string(ws)), 2));
            win.row(row);
            d.row({grp.label(), cell(grp.value("dep_distance_mean"), 1),
                   cell(grp.value("adjacent_pct")),
                   cell(grp.value("independent_pct")),
                   cell(grp.value("critical_path"), 0)});
        }
        out.table(t);
        out.table(win);
        out.table(d);
        out.line("The realized IPC tracks the finite-window ideal; the "
                 "residual gap is branch recovery and cache misses. "
                 "High adjacent-producer fractions are what let the "
                 "FIFO steering work.");
    }};
}

/** The occupancy/utilization quantities of one workload. */
StatGroup
occupancyGroup(const std::string &workload, const SimStats &win,
               const SimStats &dep)
{
    // Fraction of cycles the 64-entry window is (nearly) full.
    uint64_t full = 0;
    for (size_t b = 60; b < win.buffer_occupancy().buckets(); ++b)
        full += win.buffer_occupancy().bucket(b);
    double full_pct = 100.0 * static_cast<double>(full) /
        static_cast<double>(win.buffer_occupancy().total());

    double wide = 0.0;
    for (size_t b = 6; b < win.issue_sizes().buckets(); ++b)
        wide += win.issue_sizes().fraction(b);

    StatGroup g("occupancy", workload);
    g.addGauge("win_mean_occupancy", "instructions",
               "Mean occupancy of the 64-entry central window",
               win.buffer_occupancy().mean());
    g.addGauge("win_full_pct", "%",
               "Cycles the central window holds 60+ instructions",
               full_pct);
    g.addGauge("fifo_mean_occupancy", "instructions",
               "Mean total occupancy of the 8x8 FIFO organization",
               dep.buffer_occupancy().mean());
    g.addGauge("issue_zero_pct", "%",
               "Cycles issuing nothing on the window machine",
               100.0 * win.issue_sizes().fraction(0));
    g.addGauge("issue_wide_pct", "%",
               "Cycles issuing 6+ instructions on the window machine",
               100.0 * wide);
    return g;
}

/**
 * Issue-buffer occupancy and issue-width utilization: how full the
 * 64-entry window actually runs, how often the full 8-wide issue is
 * used, and how the FIFO organization's occupancy compares. Exports
 * one group of gauges per workload, computed from the simulator's
 * occupancy and issue-size histograms.
 */
Experiment
ablOccupancy()
{
    return {"abl_occupancy",
            {{"baseline", baseline8Way()}, {"dep8x8", dependence8x8()}},
            [](const Grid &g, Report &out) {
        Table t("Issue-buffer occupancy and issue utilization");
        t.header({"benchmark", "win mean occ", "win full %",
                  "fifo mean occ", "issue=0 %", "issue>=6 %"});
        for (size_t w = 0; w < g.workloads.size(); ++w) {
            StatGroup grp =
                occupancyGroup(g.workloads[w], g.at(0, w), g.at(1, w));
            t.row({g.workloads[w], cell(grp.value("win_mean_occupancy")),
                   cell(grp.value("win_full_pct")),
                   cell(grp.value("fifo_mean_occupancy")),
                   cell(grp.value("issue_zero_pct")),
                   cell(grp.value("issue_wide_pct"))});
            out.groups.push_back(std::move(grp));
        }
        out.table(t);
        out.line("The window runs far from full on most workloads and "
                 "8-wide issue cycles are rare — the slack the "
                 "dependence-based organization exploits: a few FIFO "
                 "heads expose enough ready instructions.");
    }};
}

// ---------------------------------------------------------------------
// Studies: the paper's methodology applied as a tool

/**
 * Design-space exploration: the delay models (clock) combined with
 * the timing simulator (IPC) across issue widths and window
 * organizations, to find the complexity-effective design points. A
 * second table scales the 8-way window machine and the 2x4
 * dependence-based machine across the three calibrated processes.
 */
Experiment
designSpace()
{
    std::vector<Variant> v;
    for (int iw : {2, 4, 8}) {
        v.push_back(preset(scaledBaseline(iw)));
        v.push_back(preset(scaledDependence(iw)));
    }
    return {"design_space", v, [](const Grid &g, Report &out) {
        ClockEstimator est(Process::um0_18);
        Table t("Complexity-effectiveness across issue widths (0.18um)");
        t.header({"machine", "IPC", "clock ps", "clock MHz", "BIPS",
                  "critical stage"});
        double best_bips = 0.0;
        std::string best;
        for (size_t c = 0; c < g.configs.size(); ++c) {
            const SimConfig &cfg = g.configs[c];
            double ipc = meanIpc(g, c);
            StageDelays d = est.delays(clockConfig(cfg));

            double bips = ipc * d.clockMhz() / 1000.0;
            if (bips > best_bips) {
                best_bips = bips;
                best = cfg.name;
            }
            t.row({cfg.name, cell(ipc, 3), cell(d.criticalPs()),
                   cell(d.clockMhz(), 0), cell(bips, 2),
                   d.criticalStage()});
        }
        out.table(t);
        out.text += strprintf("Most complexity-effective design point: "
                              "%s (%.2f BIPS)\n\n",
                              best.c_str(), best_bips);

        // The window machine's clock stops improving as the
        // wire-dominated stages take over.
        Table s("Clock scaling of an 8-way/64 window machine vs a 2x4 "
                "dependence-based machine");
        s.header({"feature (um)", "window clock MHz", "dep clock MHz",
                  "ratio"});
        for (Process p : allProcesses()) {
            ClockEstimator e(p);
            StageDelays dw = e.delays(clockConfig(baseline8Way()));
            StageDelays dd =
                e.delays(clockConfig(clusteredDependence2x4()));
            s.row({cell(technology(p).feature_um, 2),
                   cell(dw.clockMhz(), 0), cell(dd.clockMhz(), 0),
                   cell(dw.criticalPs() / dd.criticalPs(), 2)});
        }
        out.table(s);
    }};
}

/**
 * Clustered-machine tradeoff: sweep the inter-cluster bypass latency
 * and compare the steering policies' tolerance, extending the
 * Section 5.6 comparison to the paper's "two or more cycles in
 * future technologies". Each organization runs at +1..+4 extra
 * cycles, labelled "<name>.x1".."<name>.x4".
 */
Experiment
clusteredTradeoff()
{
    std::vector<Variant> v = {preset(baseline8Way())};
    for (auto maker : {clusteredDependence2x4, clusteredWindows2x4,
                       clusteredExecDriven2x4, clusteredRandom2x4})
        for (int extra : {1, 2, 3, 4}) {
            SimConfig cfg = maker();
            cfg.inter_cluster_extra = extra;
            v.push_back({cfg.name + ".x" + std::to_string(extra), cfg});
        }
    return {"clustered_tradeoff", v, [](const Grid &g, Report &out) {
        out.text += strprintf("ideal 1-cluster 8-way IPC: %.3f\n\n",
                              meanIpc(g, 0));
        Table t("IPC vs inter-cluster bypass latency (extra cycles)");
        t.header({"organization", "+1 (paper)", "+2", "+3", "+4"});
        for (size_t c = 1; c < g.configs.size(); c += 4) {
            std::vector<std::string> row = {g.configs[c].name};
            for (size_t x = 0; x < 4; ++x)
                row.push_back(cell(meanIpc(g, c + x), 3));
            t.row(row);
        }
        out.table(t);
        out.line("Dependence-aware steering (FIFO or window) degrades "
                 "gracefully as the interconnect slows; random steering "
                 "collapses — the paper's motivation for grouping "
                 "dependent instructions.");
    }};
}

/** complexity_report's table for one machine: every structure's delay
 *  in the three technologies, and the clock each one allows. */
void
structureDelays(Report &out, const char *title, const ClockConfig &cfg)
{
    Table t(title);
    t.header({"structure", "0.8um (ps)", "0.35um (ps)", "0.18um (ps)",
              "pipelinable"});
    std::vector<std::vector<ClockEstimator::StructureDelay>> reports;
    for (Process p : allProcesses())
        reports.push_back(ClockEstimator(p).fullReport(cfg));
    for (size_t i = 0; i < reports[0].size(); ++i)
        t.row({reports[0][i].name, cell(reports[0][i].ps),
               cell(reports[1][i].ps), cell(reports[2][i].ps),
               reports[0][i].pipelinable ? "yes" : "no (atomic)"});
    out.table(t);

    for (Process p : allProcesses()) {
        StageDelays d = ClockEstimator(p).delays(cfg);
        out.text += strprintf("  %s clock: %.1f ps (%.0f MHz), "
                              "%s-limited\n",
                              technology(p).name.c_str(), d.criticalPs(),
                              d.clockMhz(), d.criticalStage().c_str());
    }
    out.line("");
}

/**
 * Complexity report: the delay of every modeled structure for the
 * 8-way window machine and the 2x4 dependence-based machine across
 * the three technologies — Section 4.5's "summary of delays and
 * pipeline issues" as a tool. Structures the paper calls pipelinable
 * are marked; the atomic ones (wakeup+select, bypass) are the
 * clock's real masters.
 */
Experiment
complexityReport()
{
    return {"complexity_report", {}, [](const Grid &, Report &out) {
        structureDelays(out, "8-way, 64-entry window machine",
                        clockConfig(baseline8Way()));
        structureDelays(out, "2x4-way clustered dependence-based machine",
                        clockConfig(clusteredDependence2x4()));

        // Side notes the paper makes in Section 4.1.
        RenameDelayModel rename(Process::um0_18);
        RenameCamDelayModel cam(Process::um0_18);
        Table n("Rename side notes (0.18um)");
        n.header({"quantity", "4-way", "8-way", "16-way"});
        n.row({"RAM map table (ps)", cell(rename.totalPs(4)),
               cell(rename.totalPs(8)), cell(rename.totalPs(16))});
        n.row({"CAM scheme, 120 regs (ps)", cell(cam.totalPs(4, 120)),
               cell(cam.totalPs(8, 120)), cell(cam.totalPs(16, 120))});
        n.row({"dependence check (ps)",
               cell(rename.dependenceCheckPs(4)),
               cell(rename.dependenceCheckPs(8)),
               cell(rename.dependenceCheckPs(16))});
        auto hidden = [&](int iw) {
            return rename.dependenceCheckHidden(iw) ? "yes" : "no";
        };
        n.row({"check hidden behind table?", hidden(4), hidden(8),
               hidden(16)});
        out.table(n);
        out.line("The dependence check hides behind the map table for "
                 "the paper's 2/4/8-wide groups and emerges at 16 wide "
                 "(Section 4.1.1).");
    }};
}

/** Every experiment, in bench/README.md order. */
std::vector<Experiment>
allExperiments()
{
    return {fig3(),
            fig5(),
            fig6(),
            fig8(),
            fig10(),
            fig12(),
            fig13(),
            fig15(),
            fig17(),
            tab1(),
            tab2(),
            tab4(),
            sec55(),
            ablSelectPolicy(),
            ablWindowCompaction(),
            ablBypassPaths(),
            ablRenameCam(),
            ablFifoGeometry(),
            ablWindowFrontier(),
            ablBpred(),
            ablGshareHistory(),
            ablFrontendDepth(),
            ablInterconnectFu(),
            ablClusterScaling(),
            ablMemoryLatency(),
            ablBrainiacs(),
            ablRegfileCache(),
            ablIlpLimits(),
            ablOccupancy(),
            ablTransistors(),
            designSpace(),
            clusteredTradeoff(),
            complexityReport()};
}

int
usage(const std::vector<Experiment> &all)
{
    std::fprintf(stderr, "usage: experiments [NAME...] [--json PATH]\n"
                         "  --json PATH  write NAME's groups as JSON "
                         "('-' = stdout only); exactly one NAME\n"
                         "experiments:\n");
    for (const Experiment &e : all)
        std::fprintf(stderr, "  %s\n", e.name.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Experiment> all = allExperiments();
    std::vector<const Experiment *> chosen;
    std::string json_path;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json") {
            if (json || i + 1 >= argc)
                return usage(all);
            json = true;
            json_path = argv[++i];
            continue;
        }
        auto it = std::find_if(all.begin(), all.end(),
                               [&](const Experiment &e) {
                                   return e.name == a;
                               });
        if (it == all.end()) {
            std::fprintf(stderr, "experiments: unknown experiment "
                                 "'%s'\n", a.c_str());
            return usage(all);
        }
        chosen.push_back(&*it);
    }
    if (json && chosen.size() != 1)
        return usage(all);
    if (chosen.empty())
        for (const Experiment &e : all)
            chosen.push_back(&e);
    const bool quiet = json_path == "-";

    // One run for every chosen spec: a machine that several specs
    // share runs once (the Table 3 baseline is 21 of all 118 variants).
    std::vector<SimConfig> configs;
    for (const Experiment *e : chosen)
        for (const Variant &v : e->variants)
            configs.push_back(v.cfg);
    Grid grid = runGrid(std::move(configs), workloads::workloadNames());

    const size_t nw = grid.workloads.size();
    size_t first = 0; // the next spec's first configuration in the run
    for (const Experiment *e : chosen) {
        // The spec's report reads its own config-major block.
        Grid g{{}, grid.workloads, {}};
        Report out;
        for (const Variant &v : e->variants) {
            g.configs.push_back(v.cfg);
            for (size_t w = 0; w < nw; ++w)
                g.stats.push_back(std::move(grid.stats[first * nw + w]));
            out.labels.push_back(v.label);
            ++first;
        }
        e->report(g, out);
        // A report that chose no groups exports every run.
        if (json && out.groups.empty())
            for (size_t c = 0; c < g.configs.size(); ++c)
                for (size_t w = 0; w < nw; ++w)
                    out.addRun(g, c, w);
        if (!quiet) {
            if (chosen.size() > 1)
                std::printf("== %s ==\n", e->name.c_str());
            std::fwrite(out.text.data(), 1, out.text.size(), stdout);
            std::fflush(stdout);
        }
        std::string err;
        if (json && !writeTextOutput(
                        json_path,
                        statGroupListJson(out.groups, out.summary), &err))
            fatal("%s", err.c_str());
    }
    return 0;
}
