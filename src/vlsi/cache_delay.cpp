/**
 * @file
 * Implementation of the cache access-time model.
 */

#include "vlsi/cache_delay.hpp"

#include <bit>
#include <cmath>

#include "common/logging.hpp"

namespace cesp::vlsi {

namespace {

// 0.18 um base coefficients (ps).
constexpr double kDecodeBase = 80.0;
constexpr double kDecodePerLog2Row = 18.0;
constexpr double kWordlineBase = 60.0;
constexpr double kWordlinePerBit = 0.35;
constexpr double kBitlineBase = 100.0;
constexpr double kBitlinePerRow = 0.45;
constexpr double kSense = 90.0;
constexpr double kTagBase = 60.0;
constexpr double kTagPerWay = 20.0;
constexpr int kMaxRows = 256;

} // namespace

CacheDelay
CacheDelayModel::delay(uint32_t size_bytes, int associativity,
                       uint32_t line_bytes) const
{
    if (!std::has_single_bit(size_bytes) || !std::has_single_bit(line_bytes))
        fatal("cache delay model: size and line must be powers of "
              "two");
    if (associativity < 1 || associativity > 32)
        fatal("cache delay model: associativity %d outside [1, 32]",
              associativity);
    uint32_t line_total = line_bytes *
        static_cast<uint32_t>(associativity);
    if (size_bytes < line_total || size_bytes > (16u << 20))
        fatal("cache delay model: size %u out of range", size_bytes);

    uint32_t sets = size_bytes / line_total;
    uint32_t rows = sets < kMaxRows ? sets : kMaxRows;
    // Folding sets into wider rows keeps the bitlines short, like
    // the array-partitioning parameters of Wilton & Jouppi.
    double row_bits = static_cast<double>(line_total) * 8.0 *
        (static_cast<double>(sets) / rows);

    CacheDelay d;
    d.decode = tech_->logic_scale *
        (kDecodeBase + kDecodePerLog2Row * std::log2(
            static_cast<double>(rows)));
    d.wordline = tech_->logic_scale * kWordlineBase +
        tech_->wire_scale * kWordlinePerBit * row_bits;
    d.bitline = tech_->logic_scale * kBitlineBase +
        tech_->wire_scale * kBitlinePerRow * rows;
    d.senseamp = tech_->logic_scale * kSense;
    d.tag_compare = tech_->logic_scale *
        (kTagBase + kTagPerWay * associativity);
    return d;
}

} // namespace cesp::vlsi
