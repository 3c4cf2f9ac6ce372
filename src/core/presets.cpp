/**
 * @file
 * Preset machine configurations.
 */

#include "core/presets.hpp"

#include "common/logging.hpp"

namespace cesp::core {

using uarch::IssueBufferStyle;
using uarch::SimConfig;
using uarch::SteeringPolicy;

SimConfig
baseline8Way()
{
    SimConfig c;
    c.name = "1-cluster.1window";
    return c; // Table 3 defaults
}

SimConfig
dependence8x8()
{
    SimConfig c;
    c.name = "1-cluster.fifos.dispatch_steer";
    c.style = IssueBufferStyle::Fifos;
    c.steering = SteeringPolicy::DependenceFifo;
    c.fifos_per_cluster = 8;
    c.fifo_depth = 8;
    return c;
}

SimConfig
clusteredDependence2x4()
{
    SimConfig c;
    c.name = "2-cluster.fifos.dispatch_steer";
    c.style = IssueBufferStyle::Fifos;
    c.steering = SteeringPolicy::DependenceFifo;
    c.num_clusters = 2;
    c.fifos_per_cluster = 4;
    c.fifo_depth = 8;
    c.fus_per_cluster = 4;
    return c;
}

SimConfig
clusteredWindows2x4()
{
    SimConfig c;
    c.name = "2-cluster.windows.dispatch_steer";
    c.style = IssueBufferStyle::PerClusterWindow;
    c.steering = SteeringPolicy::WindowFifo;
    c.num_clusters = 2;
    c.window_size = 32;
    c.concept_fifos_per_cluster = 8;
    c.concept_fifo_depth = 4;
    c.fus_per_cluster = 4;
    return c;
}

SimConfig
clusteredExecDriven2x4()
{
    SimConfig c;
    c.name = "2-cluster.1window.exec_steer";
    c.style = IssueBufferStyle::CentralWindow;
    c.steering = SteeringPolicy::ExecutionDriven;
    c.num_clusters = 2;
    c.window_size = 64;
    c.fus_per_cluster = 4;
    return c;
}

SimConfig
clusteredRandom2x4()
{
    SimConfig c;
    c.name = "2-cluster.windows.random_steer";
    c.style = IssueBufferStyle::PerClusterWindow;
    c.steering = SteeringPolicy::Random;
    c.num_clusters = 2;
    c.window_size = 32;
    c.fus_per_cluster = 4;
    return c;
}

std::vector<SimConfig>
figure17Configs()
{
    return {
        baseline8Way(),
        clusteredDependence2x4(),
        clusteredWindows2x4(),
        clusteredExecDriven2x4(),
        clusteredRandom2x4(),
    };
}

SimConfig
scaledBaseline(int issue_width)
{
    if (issue_width < 1 || issue_width > 16)
        fatal("scaledBaseline: issue width %d outside [1, 16]",
              issue_width);
    SimConfig c = baseline8Way();
    c.name = "window." + std::to_string(issue_width) + "way";
    c.fetch_width = issue_width;
    c.rename_width = issue_width;
    c.issue_width = issue_width;
    c.retire_width = 2 * issue_width;
    c.window_size = 8 * issue_width;
    c.fus_per_cluster = issue_width;
    c.max_inflight = 16 * issue_width;
    return c;
}

SimConfig
baseline16Way()
{
    SimConfig c = scaledBaseline(16);
    c.name = "1-cluster.1window.16way";
    c.ls_ports = 8;
    return c;
}

SimConfig
clusteredDependence4x4()
{
    SimConfig c = baseline16Way();
    c.name = "4-cluster.fifos.dispatch_steer.16way";
    c.style = IssueBufferStyle::Fifos;
    c.steering = SteeringPolicy::DependenceFifo;
    c.num_clusters = 4;
    c.fifos_per_cluster = 4;
    c.fifo_depth = 8;
    c.fus_per_cluster = 4;
    return c;
}

SimConfig
scaledDependence(int issue_width)
{
    SimConfig c = scaledBaseline(issue_width);
    c.name = "fifos." + std::to_string(issue_width) + "way";
    c.style = IssueBufferStyle::Fifos;
    c.steering = SteeringPolicy::DependenceFifo;
    c.fifos_per_cluster = issue_width;
    c.fifo_depth = 8;
    return c;
}

std::span<const NamedPreset>
sweepPresets()
{
    static const NamedPreset kPresets[] = {
        {"baseline", "8-way, 64-entry central window (Table 3)",
         baseline8Way},
        {"dep8x8", "dependence-based, 8 FIFOs x 8 (Figure 13)",
         dependence8x8},
        {"clustered2x4", "2x4-way clustered dependence-based (Figure 15)",
         clusteredDependence2x4},
        {"windows2x4", "2x 32-entry windows, dispatch steering",
         clusteredWindows2x4},
        {"execsteer", "central window, execution-driven steering",
         clusteredExecDriven2x4},
        {"random2x4", "2x 32-entry windows, random steering",
         clusteredRandom2x4},
        {"baseline16", "16-way, 128-entry central window",
         baseline16Way},
        {"dep4x4", "16-way, four 4-way dependence-based clusters",
         clusteredDependence4x4},
    };
    return kPresets;
}

} // namespace cesp::core
