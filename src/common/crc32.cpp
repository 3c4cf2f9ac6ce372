/**
 * @file
 * CRC-32C: hardware path via the SSE4.2 crc32 instruction when the
 * CPU has it, slice-by-8 table path otherwise. Both maintain the
 * same inverted running state, so checksums chain across either.
 */

#include "common/crc32.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define CESP_CRC32_HW 1
#endif

namespace cesp {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u; // CRC-32C 0x1EDC6F41, reflected

/** 8 x 256 lookup tables, built once at first use. */
struct Crc32Tables
{
    uint32_t t[8][256];

    Crc32Tables()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ (kPoly & (~(c & 1u) + 1u));
            t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; ++i)
            for (int s = 1; s < 8; ++s)
                t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
    }
};

const Crc32Tables &
tables()
{
    static const Crc32Tables tab;
    return tab;
}

/** Software slice-by-8, on the inverted state. */
uint32_t
crcUpdateSw(uint32_t c, const uint8_t *p, size_t len)
{
    const Crc32Tables &tab = tables();

    // Process 8 bytes per step; the tables fold each byte's
    // contribution forward so the eight lookups are independent.
    while (len >= 8) {
        uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                           (static_cast<uint32_t>(p[1]) << 8) |
                           (static_cast<uint32_t>(p[2]) << 16) |
                           (static_cast<uint32_t>(p[3]) << 24));
        c = tab.t[7][lo & 0xffu] ^ tab.t[6][(lo >> 8) & 0xffu] ^
            tab.t[5][(lo >> 16) & 0xffu] ^ tab.t[4][lo >> 24] ^
            tab.t[3][p[4]] ^ tab.t[2][p[5]] ^ tab.t[1][p[6]] ^
            tab.t[0][p[7]];
        p += 8;
        len -= 8;
    }
    while (len--)
        c = (c >> 8) ^ tab.t[0][(c ^ *p++) & 0xffu];
    return c;
}

#ifdef CESP_CRC32_HW

__attribute__((target("sse4.2"))) uint32_t
crcUpdateHw(uint32_t c, const uint8_t *p, size_t len)
{
    uint64_t c64 = c;
    // Align to 8 bytes so the main loop's loads are aligned.
    while (len && (reinterpret_cast<uintptr_t>(p) & 7u)) {
        c64 = _mm_crc32_u8(static_cast<uint32_t>(c64), *p++);
        --len;
    }
    while (len >= 8) {
        uint64_t v;
        __builtin_memcpy(&v, p, 8);
        c64 = _mm_crc32_u64(c64, v);
        p += 8;
        len -= 8;
    }
    while (len--)
        c64 = _mm_crc32_u8(static_cast<uint32_t>(c64), *p++);
    return static_cast<uint32_t>(c64);
}

/**
 * Three crc32q chains interleaved in one loop. The instruction has
 * 3-cycle latency but 1-per-cycle throughput, so one chain is
 * latency-bound at 8 bytes per 3 cycles; three independent chains
 * fill the pipeline. @p stream_bytes must be a multiple of 8; the
 * finals are post-inverted CRCs of the three consecutive
 * stream_bytes-sized thirds of @p p (the first continuing from
 * @p init_a, the others fresh), for crcCombine to merge.
 */
__attribute__((target("sse4.2"))) void
crcHwTriple(const uint8_t *p, size_t stream_bytes, uint32_t init_a,
            uint32_t *fa, uint32_t *fb, uint32_t *fc)
{
    uint64_t a = init_a;
    uint64_t b = 0xFFFFFFFFu;
    uint64_t c = 0xFFFFFFFFu;
    const uint8_t *pb = p + stream_bytes;
    const uint8_t *pc = pb + stream_bytes;
    for (size_t i = 0; i < stream_bytes; i += 8) {
        uint64_t va, vb, vc;
        __builtin_memcpy(&va, p + i, 8);
        __builtin_memcpy(&vb, pb + i, 8);
        __builtin_memcpy(&vc, pc + i, 8);
        a = _mm_crc32_u64(a, va);
        b = _mm_crc32_u64(b, vb);
        c = _mm_crc32_u64(c, vc);
    }
    *fa = ~static_cast<uint32_t>(a);
    *fb = ~static_cast<uint32_t>(b);
    *fc = ~static_cast<uint32_t>(c);
}

bool
haveHwCrc()
{
    static const bool have = __builtin_cpu_supports("sse4.2");
    return have;
}

/** GF(2) matrix-vector product: each set bit of vec selects a row. */
uint32_t
gf2MatrixTimes(const uint32_t *mat, uint32_t vec)
{
    uint32_t sum = 0;
    while (vec) {
        if (vec & 1)
            sum ^= *mat;
        vec >>= 1;
        ++mat;
    }
    return sum;
}

void
gf2MatrixSquare(uint32_t *sq, const uint32_t *mat)
{
    for (int n = 0; n < 32; ++n)
        sq[n] = gf2MatrixTimes(mat, mat[n]);
}

/**
 * The linear operator that advances a final CRC over @p len zero
 * bytes — zlib's crc32_combine() with the per-bit matrix
 * applications composed into one 32x32 matrix, so a cached operator
 * turns each combine into a single matrix-vector product. Built by
 * the same square-and-multiply ladder zlib runs per combine.
 */
struct CrcShiftOperator
{
    uint64_t len = 0;
    bool valid = false;
    uint32_t mat[32];

    /** @p len2 > 0: the combined blocks are never empty. */
    void
    build(uint64_t len2)
    {
        len = len2;
        valid = true;
        for (int n = 0; n < 32; ++n)
            mat[n] = 1u << n; // identity
        uint32_t even[32], odd[32];
        odd[0] = kPoly; // matrix for one zero bit
        for (int n = 1; n < 32; ++n)
            odd[n] = 1u << (n - 1);
        gf2MatrixSquare(even, odd); // two bits
        gf2MatrixSquare(odd, even); // four bits
        bool use_even = true;
        while (true) {
            gf2MatrixSquare(use_even ? even : odd,
                            use_even ? odd : even);
            if (len2 & 1)
                compose(use_even ? even : odd);
            len2 >>= 1;
            if (len2 == 0)
                break;
            use_even = !use_even;
        }
    }

    /** mat = step * mat. */
    void
    compose(const uint32_t *step)
    {
        uint32_t next[32];
        for (int n = 0; n < 32; ++n)
            next[n] = gf2MatrixTimes(step, mat[n]);
        for (int n = 0; n < 32; ++n)
            mat[n] = next[n];
    }

    uint32_t
    apply(uint32_t crc) const
    {
        return gf2MatrixTimes(mat, crc);
    }
};

/**
 * CRC of the concatenation A||B from the CRCs of the parts (crc2
 * computed with seed 0). Two cached operators cover the verify
 * loop's access pattern — a run of equal-sized blocks plus one
 * shorter final block — so rebuilds are rare.
 */
uint32_t
crcCombine(uint32_t crc1, uint32_t crc2, uint64_t len2)
{
    static thread_local CrcShiftOperator ops[2];
    static thread_local int next_slot = 0;
    CrcShiftOperator *op = nullptr;
    for (auto &cand : ops)
        if (cand.valid && cand.len == len2)
            op = &cand;
    if (!op) {
        op = &ops[next_slot];
        next_slot ^= 1;
        op->build(len2);
    }
    return op->apply(crc1) ^ crc2;
}

/** Below this, one chain plus combine overhead beats three. */
constexpr size_t kTripleThreshold = 3 * 8192;

#endif // CESP_CRC32_HW

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = ~seed;
#ifdef CESP_CRC32_HW
    if (haveHwCrc()) {
        if (len >= kTripleThreshold) {
            size_t sl = (len / 24) * 8;
            uint32_t fa, fb, fc;
            crcHwTriple(p, sl, c, &fa, &fb, &fc);
            uint32_t comb = crcCombine(fa, fb, sl);
            comb = crcCombine(comb, fc, sl);
            return ~crcUpdateHw(~comb, p + 3 * sl, len - 3 * sl);
        }
        return ~crcUpdateHw(c, p, len);
    }
#endif
    return ~crcUpdateSw(c, p, len);
}

namespace detail {

uint32_t
crc32Portable(const void *data, size_t len, uint32_t seed)
{
    return ~crcUpdateSw(~seed, static_cast<const uint8_t *>(data),
                        len);
}

} // namespace detail

} // namespace cesp
