/**
 * @file
 * Implementation of the CAM rename delay model.
 */

#include "vlsi/rename_cam.hpp"

#include "common/logging.hpp"

namespace cesp::vlsi {

namespace {

// 0.18 um coefficients (see header for the calibration targets).
constexpr double kDrivePerEntryBase = 0.3;  // ps per CAM entry
constexpr double kDrivePerEntryPort = 0.05; // extra per issue port
constexpr double kMatchBase = 60.0;
constexpr double kMatchPerPort = 8.0;
constexpr double kReadBase = 120.0;
constexpr double kReadPerPort = 10.0;
constexpr double kReadPerEntry = 0.3; // match-line OR over entries

} // namespace

RenameCamDelay
RenameCamDelayModel::delay(int issue_width, int phys_regs) const
{
    if (issue_width < 1 || issue_width > 16)
        fatal("CAM rename model: issue width %d outside [1, 16]",
              issue_width);
    if (phys_regs < 32 || phys_regs > 1024)
        fatal("CAM rename model: %d physical registers outside "
              "[32, 1024]", phys_regs);
    double iw = issue_width;
    double p = phys_regs;
    RenameCamDelay d;
    d.tag_drive =
        scale_ * (kDrivePerEntryBase + kDrivePerEntryPort * iw) * p;
    d.tag_match = scale_ * (kMatchBase + kMatchPerPort * iw);
    d.read = scale_ *
        (kReadBase + kReadPerPort * iw + kReadPerEntry * p);
    return d;
}

} // namespace cesp::vlsi
