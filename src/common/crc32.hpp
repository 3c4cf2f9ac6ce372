/**
 * @file
 * CRC-32C (Castagnoli, polynomial 0x1EDC6F41) over byte buffers. Used
 * by the trace file format to detect payload corruption before a
 * simulation consumes a cached trace. Castagnoli rather than the
 * IEEE 802.3 polynomial because x86 has carried a crc32 instruction
 * for it since SSE4.2: the hardware path (runtime-dispatched, with a
 * slice-by-8 software fallback) checksums at several GB/s, so
 * verifying a memory-mapped trace at open time costs a small fraction
 * of what record-by-record decoding did.
 */

#ifndef CESP_COMMON_CRC32_HPP
#define CESP_COMMON_CRC32_HPP

#include <cstddef>
#include <cstdint>

namespace cesp {

/**
 * CRC-32C of @p len bytes at @p data, continuing from @p seed (pass 0
 * to start a new checksum; chain calls to checksum discontiguous
 * buffers).
 */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

namespace detail {

/**
 * The table-driven fallback, always available regardless of CPU.
 * Exposed so tests can prove the hardware path computes the same
 * function; everything else should call crc32().
 */
uint32_t crc32Portable(const void *data, size_t len,
                       uint32_t seed = 0);

} // namespace detail

} // namespace cesp

#endif // CESP_COMMON_CRC32_HPP
