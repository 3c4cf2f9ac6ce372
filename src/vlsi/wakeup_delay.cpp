/**
 * @file
 * Calibrated anchors for the wakeup delay model. See the header for
 * the list of paper data points each grid reproduces.
 */

#include "vlsi/wakeup_delay.hpp"

#include "common/logging.hpp"

namespace cesp::vlsi {

namespace {

const std::array<double, 3> kIw = {2.0, 4.0, 8.0};
const std::array<double, 3> kWs = {16.0, 32.0, 64.0};

struct Params
{
    std::array<std::array<double, 3>, 3> totals; // [iw][ws]
    double m0, m1, m2; // tag match = m0 + m1*IW + m2*WS
    double o0, o1;     // match OR = o0 + o1*IW
};

Params
paramsFor(Process p)
{
    switch (p) {
      case Process::um0_8:
        return {
            {{{480.0, 510.0, 572.0},
              {630.0, 649.7, 766.0},     // (4,32) = Table 2
              {909.2, 972.4, 1115.4}}},  // (8,64) = Table 2
            120.0, 22.0, 0.2,
            180.0, 45.0,
        };
      case Process::um0_35:
        return {
            {{{215.0, 238.0, 290.0},
              {280.0, 330.1, 388.0},
              {405.0, 455.0, 566.5}}},
            55.0, 10.0, 0.1,
            78.0, 19.0,
        };
      case Process::um0_18:
        return {
            {{{128.0, 150.0, 178.9},
              {160.0, 204.0, 239.7},
              {235.0, 270.0, 350.0}}},
            30.0, 6.0, 0.05,
            40.0, 10.0,
        };
    }
    panic("unknown process id %d", static_cast<int>(p));
}

} // namespace

WakeupDelayModel::WakeupDelayModel(Process p)
{
    Params prm = paramsFor(p);
    total_ = Quad2D(kIw, kWs, prm.totals);
    m0_ = prm.m0;
    m1_ = prm.m1;
    m2_ = prm.m2;
    o0_ = prm.o0;
    o1_ = prm.o1;
}

WakeupDelay
WakeupDelayModel::delay(int issue_width, int window_size) const
{
    if (issue_width < 1 || issue_width > 16)
        fatal("wakeup delay model: issue width %d outside [1, 16]",
              issue_width);
    if (window_size < 8 || window_size > 128)
        fatal("wakeup delay model: window size %d outside [8, 128]",
              window_size);

    double iw = issue_width;
    double ws = window_size;
    double total = total_(iw, ws);
    double match = m0_ + m1_ * iw + m2_ * ws;
    double or_d = o0_ + o1_ * iw;
    double drive = total - match - or_d;
    if (drive < 0.0) {
        // Outside the calibrated region the remainder can go slightly
        // negative; clamp and fold into the match component.
        match += drive;
        drive = 0.0;
    }
    return {drive, match, or_d};
}

} // namespace cesp::vlsi
