#include "golden.hpp"

#include <stdexcept>

#include "common/logging.hpp"

namespace perfbench {

std::vector<cesp::StatGroup>
loadGolden(const std::string &path)
{
    std::vector<cesp::StatGroup> groups;
    std::string error;
    if (!cesp::loadStatGroups(path, groups, &error))
        throw std::runtime_error("golden " + path + ": " + error);
    return groups;
}

std::string
checkSimulation(const cesp::StatGroup &stats,
                uint64_t expected_committed,
                const cesp::StatGroup *golden)
{
    auto committed = static_cast<uint64_t>(stats.value("committed"));
    if (committed != expected_committed)
        return cesp::strprintf("committed %llu, trace holds %llu",
                               (unsigned long long)committed,
                               (unsigned long long)expected_committed);
    if (golden && !stats.sameValues(*golden)) {
        std::string why = stats.sameSchema(*golden)
            ? stats.diff(*golden)
            : stats.schemaDiff(*golden);
        size_t nl = why.find('\n');
        return "differs from golden: " + why.substr(0, nl);
    }
    return {};
}

void
Tally::record(const std::string &what, const std::string &reason)
{
    ++attempted;
    if (reason.empty())
        return;
    ++failed;
    if (reasons.size() < 8)
        reasons.push_back(what + ": " + reason);
}

} // namespace perfbench
