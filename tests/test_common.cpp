/**
 * @file
 * Unit tests for the common utilities: strprintf, RNG, statistics
 * accumulators, and the table printer.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace cesp;

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("x=%d", 42), "x=42");
    EXPECT_EQ(strprintf("%s/%s", "a", "b"), "a/b");
    EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Strprintf, HandlesLongStrings)
{
    std::string big(5000, 'x');
    EXPECT_EQ(strprintf("%s", big.c_str()).size(), 5000u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(4);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(6);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(Sample, TracksMinMaxMeanCount)
{
    Sample s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(4.0);
    s.add(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Sample, SingleValue)
{
    Sample s;
    s.add(-7.5);
    EXPECT_DOUBLE_EQ(s.min(), -7.5);
    EXPECT_DOUBLE_EQ(s.max(), -7.5);
    EXPECT_DOUBLE_EQ(s.mean(), -7.5);
}

TEST(Histogram, BucketsAndOutOfRangeCounts)
{
    Histogram h(4, 1.0); // [0,1) [1,2) [2,3) [3,4)
    h.add(0.5);
    h.add(1.5);
    h.add(1.6);
    h.add(100.0); // beyond the last bucket: counted as overflow
    h.add(-1.0);  // below zero: counted as underflow
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.inRange(), 3u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.4); // fractions of all samples
}

TEST(Histogram, MergeAddsBucketsAndOutOfRange)
{
    Histogram a(3, 1.0);
    a.add(0.5);
    a.add(-2.0);
    Histogram b(3, 1.0);
    b.add(0.5);
    b.add(2.5);
    b.add(7.0);
    a.merge(b);
    EXPECT_EQ(a.total(), 5u);
    EXPECT_EQ(a.bucket(0), 2u);
    EXPECT_EQ(a.bucket(2), 1u);
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_TRUE(a == a);
    EXPECT_FALSE(a == b);
}

TEST(HistogramDeath, MergeOfMismatchedShapesIsFatalWithDiagnostic)
{
    // Merging histograms of different bucket counts or widths would
    // silently misattribute samples; it must die naming both shapes
    // so the offending pair is identifiable from the log alone.
    Histogram a(3, 1.0);
    Histogram wrong_count(4, 1.0);
    EXPECT_DEATH(a.merge(wrong_count), "3 x 1.*4 x 1");
    Histogram wrong_width(3, 2.0);
    EXPECT_DEATH(a.merge(wrong_width), "shape mismatch");
}

/** addUnit(v) is add(v) for integer samples of a unit-width
 *  histogram, overflow and growth included. */
TEST(Histogram, AddUnitMatchesAddOfTheSameCount)
{
    for (bool growable : {false, true}) {
        Histogram a(4, 1.0, growable), b(4, 1.0, growable);
        for (size_t v : {0, 1, 3, 4, 9}) {
            a.add(static_cast<double>(v));
            b.addUnit(v);
        }
        EXPECT_TRUE(a == b) << "growable " << growable;
        EXPECT_EQ(a.total(), b.total());
        EXPECT_EQ(b.overflow(), growable ? 0u : 2u);
    }
}

TEST(Histogram, GrowableGrowsToTheLargestSampleSeen)
{
    Histogram h(3, 1.0, /*growable=*/true);
    h.add(0.5);
    h.add(10.5); // beyond the initial 3 buckets: grows, not overflow
    EXPECT_EQ(h.buckets(), 11u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(10), 1u);
    h.add(-1.0); // underflow still underflows
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.inRange(), 2u);
    h.reset(); // reset shrinks back to the configured base shape
    EXPECT_EQ(h.buckets(), 3u);
    EXPECT_EQ(h.total(), 0u);
}

TEST(Histogram, MergeOfDifferentlyGrownHistogramsIsExact)
{
    Histogram a(3, 1.0, true);
    a.add(0.5);
    a.add(20.5); // a grows to 21 buckets
    Histogram b(3, 1.0, true);
    b.add(0.5);
    b.add(5.5); // b grows to 6 buckets
    a.merge(b);
    EXPECT_EQ(a.buckets(), 21u);
    EXPECT_EQ(a.total(), 4u);
    EXPECT_EQ(a.bucket(0), 2u);
    EXPECT_EQ(a.bucket(5), 1u);
    EXPECT_EQ(a.bucket(20), 1u);
    // The small-into-large direction grows the destination.
    Histogram c(3, 1.0, true);
    c.add(0.5);
    c.merge(a);
    EXPECT_EQ(c.buckets(), 21u);
    EXPECT_EQ(c.bucket(0), 3u);
}

TEST(Histogram, EqualityTreatsMissingTrailingBucketsAsZero)
{
    Histogram grown(3, 1.0, true);
    grown.add(0.5);
    grown.add(9.5);
    Histogram compact(3, 1.0, true);
    compact.add(0.5);
    EXPECT_FALSE(grown == compact);
    compact.add(9.5);
    EXPECT_TRUE(grown == compact);
    // Same logical content at different physical sizes: restore a
    // copy with the trailing zeros dropped.
    Histogram trimmed(3, 1.0, true);
    trimmed.restore({1, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 0, 0);
    EXPECT_TRUE(grown == trimmed);
}

TEST(Histogram, SubtractLeavesTheSamplesSinceTheSnapshot)
{
    Histogram h(3, 1.0, true);
    h.add(0.5);
    h.add(4.5);
    Histogram snap = h; // snapshot, then keep sampling
    h.add(0.5);
    h.add(12.5);
    h.add(-1.0);
    h.subtract(snap);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(4), 0u);
    EXPECT_EQ(h.bucket(12), 1u);
    EXPECT_EQ(h.underflow(), 1u);
}

TEST(HistogramDeath, MergeOfMixedGrowabilityIsFatal)
{
    // A growable and a fixed histogram of the same shape are NOT
    // mergeable: their overflow semantics differ, so the merge would
    // not be exact.
    Histogram fixed(3, 1.0);
    Histogram growable(3, 1.0, true);
    EXPECT_DEATH(fixed.merge(growable), "");
    EXPECT_DEATH(growable.merge(fixed), "");
}

TEST(Histogram, MeanOfMidpoints)
{
    Histogram h(10, 2.0);
    h.add(1.0); // bucket 0, midpoint 1.0
    h.add(5.0); // bucket 2, midpoint 5.0
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Table, RendersAlignedRows)
{
    Table t("title");
    t.header({"name", "value"});
    t.row({"alpha", cell(1)});
    t.row({"b", cell(22.5, 1)});
    std::string s = t.render();
    EXPECT_NE(s.find("title"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22.5"), std::string::npos);
    // Header separator rules appear (at least three dashes rows).
    EXPECT_GE(std::count(s.begin(), s.end(), '\n'), 6);
}

TEST(Table, CellFormatters)
{
    EXPECT_EQ(cell(3.14159, 2), "3.14");
    EXPECT_EQ(cell(static_cast<int64_t>(-5)), "-5");
    EXPECT_EQ(cell(static_cast<uint64_t>(7)), "7");
    EXPECT_EQ(cell(0), "0");
}

TEST(Table, EmptyTableStillRenders)
{
    Table t;
    std::string s = t.render();
    EXPECT_FALSE(s.empty());
}

TEST(ParseInt, AcceptsPlainIntegers)
{
    EXPECT_EQ(parseInt("0", 0, 100), 0);
    EXPECT_EQ(parseInt("42", 0, 100), 42);
    EXPECT_EQ(parseInt("-7", -10, 10), -7);
    EXPECT_EQ(parseInt("100", 0, 100), 100); // bounds inclusive
}

TEST(ParseInt, RejectsWhatAtoiSilentlyAccepts)
{
    // atoi("x4") == 0, atoi("4x") == 4 — the bugs this replaces.
    EXPECT_FALSE(parseInt("x4", 0, 100).has_value());
    EXPECT_FALSE(parseInt("4x", 0, 100).has_value());
    EXPECT_FALSE(parseInt("", 0, 100).has_value());
    EXPECT_FALSE(parseInt(" 4", 0, 100).has_value());
    EXPECT_FALSE(parseInt("4 ", 0, 100).has_value());
    EXPECT_FALSE(parseInt("4.5", 0, 100).has_value());
    EXPECT_FALSE(parseInt("--4", -10, 10).has_value());
}

TEST(ParseInt, RejectsOutOfRange)
{
    EXPECT_FALSE(parseInt("101", 0, 100).has_value());
    EXPECT_FALSE(parseInt("-1", 0, 100).has_value());
    // Overflows long long entirely (ERANGE path).
    EXPECT_FALSE(
        parseInt("99999999999999999999", 0, 100).has_value());
    EXPECT_FALSE(
        parseInt("-99999999999999999999", -100, 100).has_value());
}

TEST(Crc32, MatchesKnownVectors)
{
    // The standard CRC-32C (Castagnoli) check value.
    EXPECT_EQ(crc32("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
    // An incremental computation equals the one-shot result, for
    // every split point (the hardware path has aligned/unaligned
    // head, body, and tail phases — cross them all).
    for (size_t split = 0; split <= 9; ++split) {
        uint32_t inc = crc32("123456789", split);
        inc = crc32("123456789" + split, 9 - split, inc);
        EXPECT_EQ(inc, 0xE3069283u) << "split " << split;
    }
}

TEST(Crc32, HardwareAndPortablePathsAgree)
{
    // On x86 crc32() dispatches to the SSE4.2 instruction; it must
    // compute the same function as the table fallback for every
    // length and alignment (offset into the buffer).
    Rng rng(99);
    std::vector<uint8_t> buf(200000);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.below(256));
    for (size_t off : {0u, 1u, 3u, 7u})
        for (size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
            EXPECT_EQ(crc32(buf.data() + off, len),
                      detail::crc32Portable(buf.data() + off, len))
                << "off " << off << " len " << len;
        }
    // Lengths past the multi-stream threshold take the interleaved
    // path, whose partial CRCs are merged with a GF(2) shift
    // operator; it must still compute the same function, with and
    // without a nonzero seed, at lengths where the three streams
    // leave different tail remainders.
    for (size_t len : {24576u, 24577u, 100000u, 199999u})
        for (uint32_t seed : {0u, 0xDEADBEEFu}) {
            EXPECT_EQ(crc32(buf.data(), len, seed),
                      detail::crc32Portable(buf.data(), len, seed))
                << "len " << len << " seed " << seed;
        }
    // Chaining a small block into a large one crosses from the
    // single-stream into the multi-stream path mid-checksum.
    uint32_t chained = crc32(buf.data(), 100);
    chained = crc32(buf.data() + 100, buf.size() - 100, chained);
    EXPECT_EQ(chained, detail::crc32Portable(buf.data(), buf.size()));
}

TEST(Crc32, SensitiveToEveryByte)
{
    // Slice-by-8 processes 8-byte blocks; make sure a flip in any
    // position of a block-straddling buffer changes the sum.
    unsigned char buf[24] = {};
    for (size_t i = 0; i < sizeof(buf); ++i)
        buf[i] = static_cast<unsigned char>(i * 37 + 1);
    const uint32_t base = crc32(buf, sizeof(buf));
    for (size_t i = 0; i < sizeof(buf); ++i) {
        buf[i] ^= 0x80;
        EXPECT_NE(crc32(buf, sizeof(buf)), base) << "byte " << i;
        buf[i] ^= 0x80;
    }
    EXPECT_EQ(crc32(buf, sizeof(buf)), base);
}
