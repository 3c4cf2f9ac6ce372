/**
 * @file
 * Unit tests for the technology parameters and wire delay model.
 */

#include <gtest/gtest.h>

#include "vlsi/technology.hpp"

using namespace cesp::vlsi;

TEST(Technology, ThreeCalibratedProcesses)
{
    EXPECT_EQ(allProcesses().size(), 3u);
    EXPECT_DOUBLE_EQ(technology(Process::um0_8).feature_um, 0.8);
    EXPECT_DOUBLE_EQ(technology(Process::um0_35).feature_um, 0.35);
    EXPECT_DOUBLE_EQ(technology(Process::um0_18).feature_um, 0.18);
}

TEST(Technology, LambdaIsHalfFeature)
{
    for (Process p : allProcesses()) {
        const Technology &t = technology(p);
        EXPECT_DOUBLE_EQ(t.lambda_um, t.feature_um / 2.0);
    }
}

TEST(Technology, WireDelayMatchesTable1InEveryProcess)
{
    // 20500-lambda result wire = 184.9 ps regardless of process
    // (the paper's constant-wire-delay scaling model).
    for (Process p : allProcesses())
        EXPECT_NEAR(technology(p).wireDelayPs(20500.0), 184.9, 0.5)
            << technology(p).name;
}

TEST(Technology, WireDelayIsQuadraticInLength)
{
    const Technology &t = technology(Process::um0_18);
    double d1 = t.wireDelayPs(10000.0);
    double d2 = t.wireDelayPs(20000.0);
    EXPECT_NEAR(d2 / d1, 4.0, 1e-9);
}

TEST(Technology, LogicScaleRelative018)
{
    EXPECT_DOUBLE_EQ(technology(Process::um0_18).logic_scale, 1.0);
    EXPECT_NEAR(technology(Process::um0_35).logic_scale,
                0.35 / 0.18, 1e-12);
    EXPECT_NEAR(technology(Process::um0_8).logic_scale, 0.8 / 0.18,
                1e-12);
}
