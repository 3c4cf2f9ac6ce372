/**
 * @file
 * Cache access-time model (paper Section 2.1, after Wada et al. and
 * Wilton & Jouppi's enhanced cache access/cycle time model).
 *
 * The paper excludes caches from its critical-structure study because
 * their delay "has been considered elsewhere" and they can be
 * pipelined; this model closes the loop so the clock estimator can
 * confirm that the Table 3 data cache (32 KB, 2-way, 32 B lines) fits
 * the cycle implied by the window/bypass-limited clock.
 *
 * Single-array model with bounded row count: the data array holds
 * min(sets, 256) rows of line*assoc*(sets/rows) bits; access time
 * decomposes into decoder, wordline (grows with the row width),
 * bitline (grows with the row count), sense amplifier, and the
 * tag-compare + way-select path (grows with associativity).
 * Calibrated at 0.18 um so the Table 3 cache comes in just under the
 * ~1.06 ns cycle of the 8-way machine — consistent with its 1-cycle
 * hit latency.
 */

#ifndef CESP_VLSI_CACHE_DELAY_HPP
#define CESP_VLSI_CACHE_DELAY_HPP

#include <cstdint>

#include "vlsi/technology.hpp"

namespace cesp::vlsi {

/** Component breakdown of a cache read hit, in ps. */
struct CacheDelay
{
    double decode;
    double wordline;
    double bitline;
    double senseamp;
    double tag_compare; //!< tag read/compare + way select/mux drive

    double
    total() const
    {
        return decode + wordline + bitline + senseamp + tag_compare;
    }
};

/** Calibrated cache access-time model for one technology. */
class CacheDelayModel
{
  public:
    explicit CacheDelayModel(Process p) : tech_(&technology(p)) {}

    /**
     * Access delay for a cache of @p size_bytes with @p associativity
     * ways and @p line_bytes lines.
     */
    CacheDelay delay(uint32_t size_bytes, int associativity,
                     uint32_t line_bytes) const;

    double
    totalPs(uint32_t size_bytes, int associativity,
            uint32_t line_bytes) const
    {
        return delay(size_bytes, associativity, line_bytes).total();
    }

  private:
    const Technology *tech_;
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_CACHE_DELAY_HPP
