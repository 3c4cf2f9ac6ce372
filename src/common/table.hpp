/**
 * @file
 * Fixed-width ASCII table printer used by every bench harness to emit
 * the rows/series of the paper's tables and figures in a uniform,
 * machine-greppable format.
 */

#ifndef CESP_COMMON_TABLE_HPP
#define CESP_COMMON_TABLE_HPP

#include <cstdio>
#include <string>
#include <vector>

namespace cesp {

/**
 * Column-aligned table. Add a header row, then data rows of strings
 * (use cell() helpers for numbers), then print().
 */
class Table
{
  public:
    explicit Table(std::string title = "") : title_(std::move(title)) {}

    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Render to a string (title, rule, header, rule, rows, rule). */
    std::string render() const;

    /** Render and write to the given stream (default stdout). */
    void print(std::FILE *out = stdout) const;

    size_t rows() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given number of decimals. */
std::string cell(double v, int decimals = 1);

/** Format an integer. */
std::string cell(int64_t v);
std::string cell(uint64_t v);
std::string cell(int v);

class StatGroup;

/**
 * Render a metrics registry (common/metrics.hpp) as a
 * metric/value/unit table: one row per counter, gauge, and derived
 * metric, and a summary row (mean, total, out-of-range counts) per
 * histogram.
 */
Table statTable(const StatGroup &g);

/**
 * One bucket-level table per registered histogram (only non-empty
 * buckets, with a percent-of-samples column), for verbose reports.
 */
std::vector<Table> histogramTables(const StatGroup &g);

} // namespace cesp

#endif // CESP_COMMON_TABLE_HPP
