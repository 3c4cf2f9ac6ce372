/**
 * @file
 * Calibrated arbiter-cell delays for the selection model.
 */

#include "vlsi/select_delay.hpp"

#include "common/logging.hpp"

namespace cesp::vlsi {

SelectDelayModel::SelectDelayModel(Process p)
{
    switch (p) {
      case Process::um0_8:
        t_req_ = 500.0;
        t_grant_ = 500.0;
        t_root_ = 254.0;
        break;
      case Process::um0_35:
        t_req_ = 200.0;
        t_grant_ = 200.0;
        t_root_ = 118.3;
        break;
      case Process::um0_18:
        t_req_ = 80.0;
        t_grant_ = 80.0;
        t_root_ = 54.0;
        break;
      default:
        panic("unknown process id %d", static_cast<int>(p));
    }
}

int
SelectDelayModel::levels(int window_size)
{
    if (window_size < 2)
        fatal("selection delay model: window size %d < 2", window_size);
    int l = 1;
    int capacity = 4;
    while (capacity < window_size) {
        capacity *= 4;
        ++l;
    }
    return l;
}

SelectDelay
SelectDelayModel::delay(int window_size) const
{
    int l = levels(window_size);
    return {
        t_req_ * (l - 1),
        t_root_,
        t_grant_ * (l - 1),
    };
}

} // namespace cesp::vlsi
