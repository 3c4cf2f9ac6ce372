/**
 * @file
 * Implementation of the ASCII table printer.
 */

#include "common/table.hpp"

#include "common/logging.hpp"
#include "common/metrics.hpp"

#include <algorithm>
#include <cctype>

namespace cesp {

void
Table::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
Table::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    // Compute column widths across header and all rows.
    size_t ncols = header_.size();
    for (const auto &r : rows_)
        ncols = std::max(ncols, r.size());
    std::vector<size_t> width(ncols, 0);
    auto widen = [&](const std::vector<std::string> &r) {
        for (size_t i = 0; i < r.size(); ++i)
            width[i] = std::max(width[i], r[i].size());
    };
    widen(header_);
    for (const auto &r : rows_)
        widen(r);

    size_t total = 0;
    for (size_t w : width)
        total += w + 2;

    auto fmt_row = [&](const std::vector<std::string> &r) {
        std::string s;
        for (size_t i = 0; i < ncols; ++i) {
            const std::string &c = i < r.size() ? r[i] : std::string();
            // Right-align numeric-looking cells, left-align the rest.
            bool numeric = !c.empty() &&
                (std::isdigit(static_cast<unsigned char>(c[0])) ||
                 c[0] == '-' || c[0] == '+');
            if (numeric && i > 0) {
                s += std::string(width[i] - c.size(), ' ') + c;
            } else {
                s += c + std::string(width[i] - c.size(), ' ');
            }
            s += "  ";
        }
        while (!s.empty() && s.back() == ' ')
            s.pop_back();
        s += '\n';
        return s;
    };

    std::string rule(total, '-');
    rule += '\n';

    std::string out;
    if (!title_.empty())
        out += title_ + '\n';
    out += rule;
    if (!header_.empty()) {
        out += fmt_row(header_);
        out += rule;
    }
    for (const auto &r : rows_)
        out += fmt_row(r);
    out += rule;
    return out;
}

void
Table::print(std::FILE *out) const
{
    std::string s = render();
    std::fwrite(s.data(), 1, s.size(), out);
}

std::string
cell(double v, int decimals)
{
    return strprintf("%.*f", decimals, v);
}

std::string
cell(int64_t v)
{
    return strprintf("%lld", static_cast<long long>(v));
}

std::string
cell(uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

std::string
cell(int v)
{
    return cell(static_cast<int64_t>(v));
}

Table
statTable(const StatGroup &g)
{
    std::string title = g.name();
    if (!g.label().empty())
        title += ": " + g.label();
    Table t(title);
    t.header({"metric", "value", "unit"});
    for (const StatEntry &e : g.entries()) {
        switch (e.kind) {
        case StatKind::Counter:
            t.row({e.name, cell(g.counterAt(e.store)), e.unit});
            break;
        case StatKind::Gauge:
            t.row({e.name, cell(g.gaugeAt(e.store), 3), e.unit});
            break;
        case StatKind::Derived:
            t.row({e.name, cell(g.derivedAt(e.store), 3), e.unit});
            break;
        case StatKind::Histogram: {
            const Histogram &h = g.histogramAt(e.store);
            std::string v = strprintf(
                "mean %.1f over %llu samples", h.mean(),
                static_cast<unsigned long long>(h.total()));
            if (h.underflow() || h.overflow())
                v += strprintf(" (%llu under, %llu over)",
                               static_cast<unsigned long long>(
                                   h.underflow()),
                               static_cast<unsigned long long>(
                                   h.overflow()));
            t.row({e.name, v, e.unit});
            break;
        }
        }
    }
    return t;
}

std::vector<Table>
histogramTables(const StatGroup &g)
{
    std::vector<Table> tables;
    for (const StatEntry &e : g.entries()) {
        if (e.kind != StatKind::Histogram)
            continue;
        const Histogram &h = g.histogramAt(e.store);
        Table t(e.name + " (" + e.unit + ")");
        t.header({"bucket", "count", "%"});
        if (h.underflow())
            t.row({"< 0", cell(h.underflow()),
                   cell(100.0 * static_cast<double>(h.underflow()) /
                        static_cast<double>(h.total()))});
        for (size_t i = 0; i < h.buckets(); ++i) {
            if (!h.bucket(i))
                continue;
            t.row({cell(static_cast<double>(i) * h.width(),
                        h.width() == 1.0 ? 0 : 2),
                   cell(h.bucket(i)), cell(100.0 * h.fraction(i))});
        }
        if (h.overflow())
            t.row({strprintf(">= %g",
                             h.width() * static_cast<double>(h.buckets())),
                   cell(h.overflow()),
                   cell(100.0 * static_cast<double>(h.overflow()) /
                        static_cast<double>(h.total()))});
        tables.push_back(std::move(t));
    }
    return tables;
}

} // namespace cesp
