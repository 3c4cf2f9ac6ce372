/**
 * @file
 * Quickstart: write a few lines of PJ-RISC assembly, run it through
 * the functional emulator, and compare the window-based and
 * dependence-based machines on its trace — the whole public API in
 * one page, including the standard metrics rendering (statTable
 * over the run's registry).
 */

#include <cstdio>

#include "common/table.hpp"
#include "core/presets.hpp"
#include "func/emulator.hpp"
#include "trace/trace.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;

// A dot-product over 2048 elements with a strided initialization:
// enough work for the pipelines to reach steady state.
static const char *kProgram = R"ASM(
        .data
va:     .space 8192
vb:     .space 8192
        .text
main:   la   s0, va
        la   s1, vb
        li   t0, 0
        li   t9, 2048
init:   slli t1, t0, 2
        add  t2, s0, t1
        add  t3, s1, t1
        addi t4, t0, 3
        slli t5, t0, 1
        addi t5, t5, 7
        sw   t4, 0(t2)
        sw   t5, 0(t3)
        addi t0, t0, 1
        blt  t0, t9, init
        li   t0, 0
        li   s2, 0
dot:    slli t1, t0, 2
        add  t2, s0, t1
        add  t3, s1, t1
        lw   t4, 0(t2)
        lw   t5, 0(t3)
        mul  t6, t4, t5
        add  s2, s2, t6
        addi t0, t0, 1
        blt  t0, t9, dot
        halt
)ASM";

int
main()
{
    // 1. Functional execution + trace capture.
    trace::TraceBuffer buf;
    func::ExecResult r = func::runProgram(kProgram, 1000000, &buf);
    std::printf("functional: %llu instructions, halted=%d\n",
                (unsigned long long)r.instructions, r.halted);

    // 2. Timing simulation on two machine organizations.
    uarch::SimStats sw = uarch::simulate(core::baseline8Way(), buf);
    uarch::SimStats sf = uarch::simulate(core::dependence8x8(), buf);

    // 3. Every run's statistics live in a self-describing registry;
    // statTable renders it, group().toJson()/toCsv() export it.
    statTable(sw.group()).print();
    statTable(sf.group()).print();

    std::printf("window machine : IPC %.3f (%llu cycles)\n", sw.ipc(),
                (unsigned long long)sw.cycles());
    std::printf("fifo machine   : IPC %.3f (%llu cycles)\n", sf.ipc(),
                (unsigned long long)sf.cycles());
    std::printf("dependence-based IPC is %.1f%% of the window "
                "machine's\n", 100.0 * sf.ipc() / sw.ipc());
    return 0;
}
