/**
 * @file
 * The correctness gate behind failed_frac. A simulation fails when
 * it throws, when it commits a different number of instructions than
 * its trace holds, or when any simulated statistic differs from the
 * stored golden group for that (preset, input) pair. The golden
 * files are `cesp-sim` exports (cesp.statgroup.list), so every
 * counter, histogram bucket and sample of every pair is compared, as
 * the ROADMAP's "a speed-up leaves every statistic bit-identical"
 * rule demands.
 */

#ifndef PERFBENCH_GOLDEN_HPP
#define PERFBENCH_GOLDEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"

namespace perfbench {

/** The groups of a cesp.statgroup.list export (its "groups"), in
 *  task order; throws std::runtime_error when it cannot be read. */
std::vector<cesp::StatGroup> loadGolden(const std::string &path);

/**
 * Why a finished simulation fails the gate, or empty when it passes.
 * @p golden may be null (no stored values for this input, e.g. a
 * synthetic trace from a non-default seed): then only the committed
 * count is checked.
 */
std::string checkSimulation(const cesp::StatGroup &stats,
                            uint64_t expected_committed,
                            const cesp::StatGroup *golden);

/** Pass/fail tally with the first few failure reasons kept. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> reasons;

    /** Count one attempt; @p reason empty means it passed. */
    void record(const std::string &what, const std::string &reason);
};

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_HPP
