/**
 * @file
 * Implementation of the steering policies.
 */

#include "uarch/steering.hpp"

#include "common/logging.hpp"

namespace cesp::uarch {

Steering::Steering(const SimConfig &cfg, FifoSet *fifos,
                   std::vector<IssueWindow> *windows)
    : cfg_(cfg), fifos_(fifos), windows_(windows),
      rng_(cfg.random_seed)
{
    switch (cfg.steering) {
      case SteeringPolicy::DependenceFifo:
      case SteeringPolicy::WindowFifo:
        if (!fifos_)
            panic("steering: policy needs a FIFO set");
        break;
      case SteeringPolicy::Random:
        if (!windows_)
            panic("steering: random policy needs windows");
        break;
      default:
        break;
    }
}

SteerDecision
Steering::randomSteer()
{
    int n = cfg_.num_clusters;
    int c = static_cast<int>(rng_.below(static_cast<uint64_t>(n)));
    if (!clusterHasSpace(c)) {
        // Fall back to any cluster with room (Section 5.6.3: "if the
        // window for the selected cluster is full, the instruction is
        // inserted into the other cluster").
        int found = -1;
        for (int step = 1; step < n; ++step) {
            int alt = (c + step) % n;
            if (clusterHasSpace(alt)) {
                found = alt;
                break;
            }
        }
        if (found < 0)
            return {};
        c = found;
    }
    SteerDecision d;
    d.ok = true;
    d.cluster = c;
    d.kind = SteerKind::Window;
    return d;
}

} // namespace cesp::uarch
