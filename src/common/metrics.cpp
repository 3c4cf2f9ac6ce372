/**
 * @file
 * Implementation of the metrics registry and its JSON/CSV codecs.
 */

#include "common/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/logging.hpp"

namespace cesp {

const char *
statKindName(StatKind k)
{
    switch (k) {
    case StatKind::Counter:
        return "counter";
    case StatKind::Gauge:
        return "gauge";
    case StatKind::Derived:
        return "derived";
    case StatKind::Histogram:
        return "histogram";
    }
    return "?";
}

namespace {

/** Escape @p s per RFC 8259 and wrap it in quotes. */
std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

/** Shortest decimal form that parses back to exactly @p v. */
std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        return "null"; // stats never produce these; null parses as 0
    // 17 significant digits always round-trip a double.
    for (int prec = 15; prec < 17; ++prec) {
        std::string s = strprintf("%.*g", prec, v);
        if (std::strtod(s.c_str(), nullptr) == v)
            return s;
    }
    return strprintf("%.17g", v);
}

} // namespace

// ---------------------------------------------------------------------
// JsonWriter

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (need_comma_)
        out_ += ',';
    if (depth_ > 0 && indent_ >= 0) {
        out_ += '\n';
        out_.append(static_cast<size_t>(depth_ * indent_), ' ');
    }
}

void
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    ++depth_;
    need_comma_ = false;
}

void
JsonWriter::endObject()
{
    --depth_;
    if (indent_ >= 0) {
        out_ += '\n';
        out_.append(static_cast<size_t>(depth_ * indent_), ' ');
    }
    out_ += '}';
    need_comma_ = true;
}

void
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    ++depth_;
    need_comma_ = false;
}

void
JsonWriter::endArray()
{
    --depth_;
    if (indent_ >= 0) {
        out_ += '\n';
        out_.append(static_cast<size_t>(depth_ * indent_), ' ');
    }
    out_ += ']';
    need_comma_ = true;
}

void
JsonWriter::key(std::string_view k)
{
    separate();
    out_ += jsonString(k);
    out_ += indent_ >= 0 ? ": " : ":";
    after_key_ = true;
}

void
JsonWriter::value(std::string_view s)
{
    separate();
    out_ += jsonString(s);
    need_comma_ = true;
}

void
JsonWriter::value(double v)
{
    separate();
    out_ += jsonDouble(v);
    need_comma_ = true;
}

void
JsonWriter::value(uint64_t v)
{
    separate();
    out_ += strprintf("%llu", static_cast<unsigned long long>(v));
    need_comma_ = true;
}

void
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    need_comma_ = true;
}

// ---------------------------------------------------------------------
// StatGroup: registration and access

StatGroup::StatGroup(std::string name, std::string label)
    : name_(std::move(name)), label_(std::move(label))
{
}

size_t
StatGroup::addEntry(StatKind kind, std::string name, std::string unit,
                    std::string desc)
{
    if (find(name))
        panic("StatGroup '%s': duplicate metric '%s'", name_.c_str(),
              name.c_str());
    StatEntry e;
    e.name = std::move(name);
    e.unit = std::move(unit);
    e.desc = std::move(desc);
    e.kind = kind;
    entries_.push_back(std::move(e));
    return entries_.size() - 1;
}

size_t
StatGroup::addCounter(std::string name, std::string unit,
                      std::string desc, uint64_t value)
{
    size_t i = addEntry(StatKind::Counter, std::move(name),
                        std::move(unit), std::move(desc));
    entries_[i].store = counters_.size();
    counters_.push_back(value);
    return entries_[i].store;
}

size_t
StatGroup::addGauge(std::string name, std::string unit,
                    std::string desc, double value)
{
    size_t i = addEntry(StatKind::Gauge, std::move(name),
                        std::move(unit), std::move(desc));
    entries_[i].store = gauges_.size();
    gauges_.push_back(value);
    return entries_[i].store;
}

size_t
StatGroup::addDerived(std::string name, std::string unit,
                      std::string desc, std::string num,
                      std::string den, double scale)
{
    const StatEntry *n = find(num);
    const StatEntry *d = find(den);
    if (!n || n->kind != StatKind::Counter || !d ||
        d->kind != StatKind::Counter)
        panic("StatGroup '%s': derived '%s' needs counters '%s' and "
              "'%s' registered first", name_.c_str(), name.c_str(),
              num.c_str(), den.c_str());
    size_t num_store = n->store;
    size_t den_store = d->store;
    size_t i = addEntry(StatKind::Derived, std::move(name),
                        std::move(unit), std::move(desc));
    StatEntry &e = entries_[i];
    e.store = derived_count_++;
    e.num = std::move(num);
    e.den = std::move(den);
    e.num_store = num_store;
    e.den_store = den_store;
    e.scale = scale;
    return e.store;
}

size_t
StatGroup::addHistogram(std::string name, std::string unit,
                        std::string desc, size_t buckets, double width,
                        bool growable)
{
    size_t i = addEntry(StatKind::Histogram, std::move(name),
                        std::move(unit), std::move(desc));
    entries_[i].store = histograms_.size();
    histograms_.emplace_back(buckets, width, growable);
    return entries_[i].store;
}

double
StatGroup::derivedAt(size_t i) const
{
    for (const StatEntry &e : entries_) {
        if (e.kind == StatKind::Derived && e.store == i) {
            uint64_t den = counters_[e.den_store];
            return den ? e.scale *
                    static_cast<double>(counters_[e.num_store]) /
                    static_cast<double>(den)
                       : 0.0;
        }
    }
    panic("StatGroup '%s': no derived metric #%zu", name_.c_str(), i);
}

const StatEntry *
StatGroup::find(std::string_view name) const
{
    for (const StatEntry &e : entries_)
        if (e.name == name)
            return &e;
    return nullptr;
}

uint64_t
StatGroup::counter(std::string_view name) const
{
    const StatEntry *e = find(name);
    if (!e || e->kind != StatKind::Counter)
        fatal("StatGroup '%s': no counter '%.*s'", name_.c_str(),
              static_cast<int>(name.size()), name.data());
    return counters_[e->store];
}

double
StatGroup::value(std::string_view name) const
{
    const StatEntry *e = find(name);
    if (!e)
        fatal("StatGroup '%s': no metric '%.*s'", name_.c_str(),
              static_cast<int>(name.size()), name.data());
    switch (e->kind) {
    case StatKind::Counter:
        return static_cast<double>(counters_[e->store]);
    case StatKind::Gauge:
        return gauges_[e->store];
    case StatKind::Derived:
        return derivedAt(e->store);
    default:
        fatal("StatGroup '%s': '%s' is a %s, not a scalar",
              name_.c_str(), e->name.c_str(), statKindName(e->kind));
    }
}

// ---------------------------------------------------------------------
// StatGroup: whole-group operations

void
StatGroup::reset()
{
    for (uint64_t &c : counters_)
        c = 0;
    for (double &g : gauges_)
        g = 0.0;
    for (Histogram &h : histograms_)
        h.reset();
}

std::string
StatGroup::schemaDiff(const StatGroup &other) const
{
    if (entries_.size() != other.entries_.size())
        return strprintf("entry count %zu vs %zu", entries_.size(),
                         other.entries_.size());
    for (size_t i = 0; i < entries_.size(); ++i) {
        const StatEntry &a = entries_[i];
        const StatEntry &b = other.entries_[i];
        if (a.name != b.name)
            return strprintf("entry %zu: '%s' vs '%s'", i,
                             a.name.c_str(), b.name.c_str());
        if (a.kind != b.kind || a.store != b.store)
            return strprintf("entry %zu ('%s'): %s vs %s", i,
                             a.name.c_str(), statKindName(a.kind),
                             statKindName(b.kind));
        if (a.kind == StatKind::Derived &&
            (a.num != b.num || a.den != b.den || a.scale != b.scale))
            return strprintf("entry %zu ('%s'): derived operands "
                             "differ (%s/%s vs %s/%s)", i,
                             a.name.c_str(), a.num.c_str(),
                             a.den.c_str(), b.num.c_str(),
                             b.den.c_str());
        if (a.kind == StatKind::Histogram) {
            const Histogram &ha = histograms_[a.store];
            const Histogram &hb = other.histograms_[b.store];
            if (ha.growable() != hb.growable())
                return strprintf("entry %zu ('%s'): growable vs "
                                 "fixed histogram", i, a.name.c_str());
            // Growable histograms size themselves from the samples;
            // differing bucket counts are a value difference there,
            // not a schema one.
            if ((!ha.growable() && ha.buckets() != hb.buckets()) ||
                ha.width() != hb.width())
                return strprintf("entry %zu ('%s'): histogram shape "
                                 "%zu x %g vs %zu x %g", i,
                                 a.name.c_str(), ha.buckets(),
                                 ha.width(), hb.buckets(),
                                 hb.width());
        }
    }
    return "";
}

bool
StatGroup::sameSchema(const StatGroup &other) const
{
    return schemaDiff(other).empty();
}

void
StatGroup::merge(const StatGroup &other)
{
    std::string why = schemaDiff(other);
    if (!why.empty())
        fatal("StatGroup::merge: schema mismatch between '%s' and "
              "'%s': %s", name_.c_str(), other.name_.c_str(),
              why.c_str());
    for (size_t i = 0; i < counters_.size(); ++i)
        counters_[i] += other.counters_[i];
    for (size_t i = 0; i < gauges_.size(); ++i)
        gauges_[i] += other.gauges_[i];
    for (size_t i = 0; i < histograms_.size(); ++i)
        histograms_[i].merge(other.histograms_[i]);
}

StatGroup
StatGroup::deltaSince(const StatGroup &prev) const
{
    std::string why = schemaDiff(prev);
    if (!why.empty())
        fatal("StatGroup::deltaSince: schema mismatch between '%s' "
              "and '%s': %s", name_.c_str(), prev.name_.c_str(),
              why.c_str());
    StatGroup d = *this;
    for (size_t i = 0; i < d.counters_.size(); ++i) {
        if (prev.counters_[i] > d.counters_[i])
            fatal("StatGroup::deltaSince: counter #%zu decreased "
                  "since the snapshot", i);
        d.counters_[i] -= prev.counters_[i];
    }
    for (size_t i = 0; i < d.gauges_.size(); ++i)
        d.gauges_[i] -= prev.gauges_[i];
    for (size_t i = 0; i < d.histograms_.size(); ++i)
        d.histograms_[i].subtract(prev.histograms_[i]);
    return d;
}

bool
StatGroup::sameValues(const StatGroup &other) const
{
    return sameSchema(other) && counters_ == other.counters_ &&
        gauges_ == other.gauges_ && histograms_ == other.histograms_;
}

std::string
StatGroup::diff(const StatGroup &other) const
{
    if (!sameSchema(other))
        return "schema mismatch";
    std::string out;
    for (const StatEntry &e : entries_) {
        switch (e.kind) {
        case StatKind::Counter:
            if (counters_[e.store] != other.counters_[e.store])
                out += strprintf(
                    "%s: %llu vs %llu\n", e.name.c_str(),
                    static_cast<unsigned long long>(counters_[e.store]),
                    static_cast<unsigned long long>(
                        other.counters_[e.store]));
            break;
        case StatKind::Gauge:
            if (gauges_[e.store] != other.gauges_[e.store])
                out += strprintf("%s: %g vs %g\n", e.name.c_str(),
                                 gauges_[e.store],
                                 other.gauges_[e.store]);
            break;
        case StatKind::Derived:
            break; // follows its operands
        case StatKind::Histogram: {
            const Histogram &a = histograms_[e.store];
            const Histogram &b = other.histograms_[e.store];
            if (!(a == b)) {
                out += strprintf("%s: histogram differs:",
                                 e.name.c_str());
                size_t n = std::max(a.buckets(), b.buckets());
                for (size_t i = 0; i < n; ++i) {
                    uint64_t av = i < a.buckets() ? a.bucket(i) : 0;
                    uint64_t bv = i < b.buckets() ? b.bucket(i) : 0;
                    if (av != bv)
                        out += strprintf(
                            " [%zu]=%llu/%llu", i,
                            static_cast<unsigned long long>(av),
                            static_cast<unsigned long long>(bv));
                }
                if (a.underflow() != b.underflow() ||
                    a.overflow() != b.overflow())
                    out += strprintf(
                        " under/over=%llu,%llu vs %llu,%llu",
                        static_cast<unsigned long long>(a.underflow()),
                        static_cast<unsigned long long>(a.overflow()),
                        static_cast<unsigned long long>(b.underflow()),
                        static_cast<unsigned long long>(b.overflow()));
                out += '\n';
            }
            break;
        }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// StatGroup: JSON / CSV export

void
StatGroup::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("schema");
    w.value(kStatsSchemaName);
    w.key("schema_version");
    w.value(kStatsSchemaVersion);
    w.key("group");
    w.value(name_);
    w.key("label");
    w.value(label_);
    w.key("metrics");
    w.beginArray();
    for (const StatEntry &e : entries_) {
        w.beginObject();
        w.key("name");
        w.value(e.name);
        w.key("kind");
        w.value(statKindName(e.kind));
        w.key("unit");
        w.value(e.unit);
        w.key("desc");
        w.value(e.desc);
        switch (e.kind) {
        case StatKind::Counter:
            w.key("value");
            w.value(counters_[e.store]);
            break;
        case StatKind::Gauge:
            w.key("value");
            w.value(gauges_[e.store]);
            break;
        case StatKind::Derived:
            w.key("num");
            w.value(e.num);
            w.key("den");
            w.value(e.den);
            w.key("scale");
            w.value(e.scale);
            w.key("value");
            w.value(derivedAt(e.store));
            break;
        case StatKind::Histogram: {
            const Histogram &h = histograms_[e.store];
            w.key("width");
            w.value(h.width());
            // Absent means fixed-shape, keeping PR3-era documents
            // parseable and byte-stable.
            if (h.growable()) {
                w.key("growable");
                w.value(true);
            }
            w.key("total");
            w.value(h.total());
            w.key("underflow");
            w.value(h.underflow());
            w.key("overflow");
            w.value(h.overflow());
            w.key("counts");
            w.beginArray();
            for (size_t i = 0; i < h.buckets(); ++i)
                w.value(h.bucket(i));
            w.endArray();
            break;
        }
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
StatGroup::toJson(int indent) const
{
    JsonWriter w(indent);
    writeJson(w);
    return w.str() + "\n";
}

namespace {

/** Quote a CSV field if it contains a delimiter, quote, or newline. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
StatGroup::toCsv() const
{
    std::string out = strprintf(
        "# %s schema_version=%d group=%s label=%s\n", kStatsSchemaName,
        kStatsSchemaVersion, csvField(name_).c_str(),
        csvField(label_).c_str());
    out += "metric,kind,unit,value,description\n";
    auto row = [&](const std::string &name, StatKind kind,
                   const std::string &unit, const std::string &value,
                   const std::string &desc) {
        out += csvField(name) + ',' + statKindName(kind) + ',' +
            csvField(unit) + ',' + value + ',' + csvField(desc) + '\n';
    };
    for (const StatEntry &e : entries_) {
        switch (e.kind) {
        case StatKind::Counter:
            row(e.name, e.kind, e.unit,
                strprintf("%llu", static_cast<unsigned long long>(
                                      counters_[e.store])),
                e.desc);
            break;
        case StatKind::Gauge:
            row(e.name, e.kind, e.unit, jsonDouble(gauges_[e.store]),
                e.desc);
            break;
        case StatKind::Derived:
            row(e.name, e.kind, e.unit,
                jsonDouble(derivedAt(e.store)), e.desc);
            break;
        case StatKind::Histogram: {
            const Histogram &h = histograms_[e.store];
            row(e.name + ".buckets", e.kind, "",
                strprintf("%zu", h.buckets()), e.desc);
            row(e.name + ".width", e.kind, e.unit,
                jsonDouble(h.width()), "");
            row(e.name + ".total", e.kind, "samples",
                strprintf("%llu",
                          static_cast<unsigned long long>(h.total())),
                "");
            row(e.name + ".underflow", e.kind, "samples",
                strprintf("%llu", static_cast<unsigned long long>(
                                      h.underflow())),
                "");
            row(e.name + ".overflow", e.kind, "samples",
                strprintf("%llu", static_cast<unsigned long long>(
                                      h.overflow())),
                "");
            // Zero buckets are omitted; absence means zero (the
            // bucket count above makes this lossless).
            for (size_t i = 0; i < h.buckets(); ++i)
                if (h.bucket(i))
                    row(strprintf("%s[%zu]", e.name.c_str(), i),
                        e.kind, "samples",
                        strprintf("%llu",
                                  static_cast<unsigned long long>(
                                      h.bucket(i))),
                        "");
            break;
        }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// JSON parsing (the subset toJson emits)

namespace {

/** A parsed JSON value. Numbers keep their raw spelling so counter
 *  values above 2^53 survive the round trip exactly. */
struct JVal
{
    enum Type { Null, Bool, Num, Str, Arr, Obj } type = Null;
    bool boolean = false;
    std::string raw; // Num: token; Str: decoded text
    std::vector<JVal> arr;
    std::vector<std::pair<std::string, JVal>> obj;

    const JVal *
    get(const std::string &key) const
    {
        for (const auto &kv : obj)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }

    /** Any number (the parser admits only RFC 8259 number tokens). */
    bool
    toDouble(double &out) const
    {
        out = type == Num ? std::strtod(raw.c_str(), nullptr) : 0.0;
        return type == Num;
    }

    /** An unsigned integer token that fits in uint64_t; false for a
     *  sign, fraction, exponent or overflow. */
    bool
    toU64(uint64_t &out) const
    {
        const char *end = raw.data() + raw.size();
        auto [ptr, ec] = std::from_chars(raw.data(), end, out);
        return type == Num && ec == std::errc() && ptr == end;
    }
};

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : s_(text), error_(error)
    {
    }

    bool
    parse(JVal &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters");
        return true;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (error_ && error_->empty())
            *error_ = strprintf("JSON parse error at offset %zu: %s",
                                pos_, msg);
        return false;
    }

    bool
    eat(char c)
    {
        bool hit = pos_ < s_.size() && s_[pos_] == c;
        pos_ += hit;
        return hit;
    }

    bool
    digits()
    {
        size_t from = pos_;
        pos_ = std::min(s_.find_first_not_of("0123456789", pos_), s_.size());
        return pos_ > from;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word, JVal &out, JVal::Type type, bool b)
    {
        size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        out.type = type;
        out.boolean = b;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                return fail("bad escape");
            char e = s_[pos_++];
            switch (e) {
            case '"':
            case '\\':
            case '/':
                out += e;
                break;
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            case 'r':
                out += '\r';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    return fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // The writer only emits \u00XX control characters.
                out += static_cast<char>(code & 0xff);
                break;
            }
            default:
                return fail("bad escape");
            }
        }
        if (pos_ >= s_.size())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    /** @p depth counts the containers enclosing this value; capping
     *  it bounds the recursion here and in JVal's destructor. */
    bool
    parseValue(JVal &out, int depth)
    {
        skipWs();
        if (pos_ >= s_.size())
            return fail("unexpected end");
        char c = s_[pos_];
        if ((c == '{' || c == '[') && depth >= kJsonMaxDepth)
            return fail("nesting too deep");
        if (c == '{') {
            ++pos_;
            out.type = JVal::Obj;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos_ >= s_.size() || s_[pos_++] != ':')
                    return fail("expected ':'");
                JVal v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.obj.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos_ >= s_.size())
                    return fail("unterminated object");
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos_;
            out.type = JVal::Arr;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                JVal v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.arr.push_back(std::move(v));
                skipWs();
                if (pos_ >= s_.size())
                    return fail("unterminated array");
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.type = JVal::Str;
            return parseString(out.raw);
        }
        if (c == 't')
            return literal("true", out, JVal::Bool, true);
        if (c == 'f')
            return literal("false", out, JVal::Bool, false);
        if (c == 'n')
            return literal("null", out, JVal::Null, false);
        // Number token, by the RFC 8259 grammar:
        // -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
        size_t start = pos_;
        eat('-');
        if (!eat('0') && !digits())
            return fail(pos_ == start ? "unexpected character"
                                      : "bad number");
        if (eat('.') && !digits())
            return fail("bad number");
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            if (!digits())
                return fail("bad number");
        }
        out.type = JVal::Num;
        out.raw = s_.substr(start, pos_ - start);
        return true;
    }

    const std::string &s_;
    size_t pos_ = 0;
    std::string *error_;
};

bool
parseFail(std::string *error, const char *fmt, const char *a = "")
{
    if (error && error->empty())
        *error = strprintf(fmt, a);
    return false;
}

/**
 * Rebuild a StatGroup from an already-parsed "cesp.statgroup" object.
 * Shared by fromJson (whole-document), the list-document loader, and
 * the JSON-lines reader, which all embed the same group layout.
 */
bool
groupFromJval(const JVal &root, StatGroup &out, std::string *error)
{
    if (root.type != JVal::Obj)
        return parseFail(error, "top level is not an object");
    const JVal *schema = root.get("schema");
    if (!schema || schema->type != JVal::Str ||
        schema->raw != kStatsSchemaName)
        return parseFail(error, "missing or foreign \"schema\" field");
    const JVal *version = root.get("schema_version");
    uint64_t v = 0;
    if (!version || !version->toU64(v) ||
        v != static_cast<uint64_t>(kStatsSchemaVersion))
        return parseFail(error, "unsupported schema_version");
    const JVal *group = root.get("group");
    const JVal *label = root.get("label");
    const JVal *metrics = root.get("metrics");
    if (!group || group->type != JVal::Str || !label ||
        label->type != JVal::Str || !metrics ||
        metrics->type != JVal::Arr)
        return parseFail(error, "missing group/label/metrics");

    StatGroup g(group->raw, label->raw);
    for (const JVal &m : metrics->arr) {
        if (m.type != JVal::Obj)
            return parseFail(error, "metric is not an object");
        const JVal *name = m.get("name");
        const JVal *kind = m.get("kind");
        const JVal *unit = m.get("unit");
        const JVal *desc = m.get("desc");
        if (!name || name->type != JVal::Str || !kind ||
            kind->type != JVal::Str || !unit || !desc)
            return parseFail(error, "metric missing name/kind");
        const std::string &k = kind->raw;
        if (g.find(name->raw))
            return parseFail(error, "duplicate metric '%s'",
                             name->raw.c_str());
        // Counts are unsigned integers; gauges, scales and widths
        // any number, and a gauge may be the writer's null for a
        // non-finite value (loaded as 0).
        if (k == "counter") {
            const JVal *v = m.get("value");
            uint64_t value = 0;
            if (!v || !v->toU64(value))
                return parseFail(error, "counter '%s' is not an unsigned "
                                 "64-bit integer", name->raw.c_str());
            g.addCounter(name->raw, unit->raw, desc->raw, value);
        } else if (k == "gauge") {
            const JVal *v = m.get("value");
            double value = 0.0;
            if (!v || (v->type != JVal::Null && !v->toDouble(value)))
                return parseFail(error, "gauge '%s' is not a number",
                                 name->raw.c_str());
            g.addGauge(name->raw, unit->raw, desc->raw, value);
        } else if (k == "derived") {
            const JVal *num = m.get("num");
            const JVal *den = m.get("den");
            const JVal *scale = m.get("scale");
            double sc = 0.0;
            if (!num || num->type != JVal::Str || !den ||
                den->type != JVal::Str || !scale || !scale->toDouble(sc))
                return parseFail(error, "derived '%s' has missing or "
                                 "malformed operands", name->raw.c_str());
            if (!g.find(num->raw) || !g.find(den->raw))
                return parseFail(error,
                                 "derived '%s' references unknown "
                                 "counters", name->raw.c_str());
            g.addDerived(name->raw, unit->raw, desc->raw, num->raw,
                         den->raw, sc);
        } else if (k == "histogram") {
            const JVal *width = m.get("width");
            const JVal *under = m.get("underflow");
            const JVal *over = m.get("overflow");
            const JVal *counts = m.get("counts");
            const JVal *growable = m.get("growable");
            double w = 0.0;
            uint64_t u = 0, o = 0;
            bool ok = width && width->toDouble(w) && under &&
                under->toU64(u) && over && over->toU64(o) && counts &&
                counts->type == JVal::Arr;
            std::vector<uint64_t> buckets(ok ? counts->arr.size() : 0);
            for (size_t b = 0; ok && b < buckets.size(); ++b)
                ok = counts->arr[b].toU64(buckets[b]);
            if (!ok)
                return parseFail(error, "histogram '%s' has missing or "
                                 "malformed parts", name->raw.c_str());
            size_t i = g.addHistogram(name->raw, unit->raw, desc->raw,
                                      buckets.size(), w,
                                      growable && growable->boolean);
            g.histogramAt(i).restore(std::move(buckets), u, o);
        } else {
            return parseFail(error, "unknown metric kind '%s'",
                             k.c_str());
        }
    }
    out = std::move(g);
    return true;
}

} // namespace

bool
StatGroup::fromJson(const std::string &text, StatGroup &out,
                    std::string *error)
{
    if (error)
        error->clear();
    JVal root;
    JsonParser p(text, error);
    if (!p.parse(root))
        return false;
    return groupFromJval(root, out, error);
}

std::string
statGroupListJson(const std::vector<StatGroup> &groups,
                  const std::vector<StatGroup> &merged)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("cesp.statgroup.list");
    w.key("schema_version");
    w.value(kStatsSchemaVersion);
    w.key("groups");
    w.beginArray();
    for (const StatGroup &g : groups)
        g.writeJson(w);
    w.endArray();
    w.key("merged");
    w.beginArray();
    for (const StatGroup &g : merged)
        g.writeJson(w);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

std::string
statGroupListCsv(const std::vector<StatGroup> &groups)
{
    std::string out;
    for (const StatGroup &g : groups) {
        if (!out.empty())
            out += "\n";
        out += g.toCsv();
    }
    return out;
}

// ---------------------------------------------------------------------
// JSON-lines streaming

StatStreamWriter::StatStreamWriter(const std::string &path)
    : path_(path)
{
    if (path == "-") {
        file_ = stdout;
        owns_file_ = false;
        return;
    }
    file_ = std::fopen(path.c_str(), "w");
    owns_file_ = true;
    if (!file_) {
        failed_ = true;
        error_ = strprintf("cannot open '%s' for writing",
                           path.c_str());
    }
}

StatStreamWriter::~StatStreamWriter()
{
    if (file_ && owns_file_)
        std::fclose(file_);
}

bool
StatStreamWriter::append(const StatStreamMeta &meta,
                         const StatGroup &stats, const StatGroup *delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_ || failed_)
        return false;
    JsonWriter w(-1);
    w.beginObject();
    w.key("schema");
    w.value(kStatsStreamSchemaName);
    w.key("schema_version");
    w.value(kStatsSchemaVersion);
    w.key("seq");
    w.value(seq_++);
    w.key("kind");
    w.value(meta.kind);
    if (meta.task >= 0) {
        w.key("task");
        w.value(static_cast<uint64_t>(meta.task));
    }
    if (meta.shard >= 0) {
        w.key("shard");
        w.value(static_cast<uint64_t>(meta.shard));
    }
    if (meta.interval >= 0) {
        w.key("interval");
        w.value(static_cast<uint64_t>(meta.interval));
    }
    w.key("stats");
    stats.writeJson(w);
    if (delta) {
        w.key("delta");
        delta->writeJson(w);
    }
    w.endObject();
    std::string line = w.str();
    line += '\n';
    // Write + flush per record so a consumer tailing the file (or a
    // crash mid-sweep) sees every finished run.
    if (std::fwrite(line.data(), 1, line.size(), file_) !=
            line.size() ||
        std::fflush(file_) != 0) {
        failed_ = true;
        error_ = strprintf("short write to '%s'", path_.c_str());
        return false;
    }
    return true;
}

bool
readStatStream(const std::string &text,
               std::vector<StatStreamRecord> &out, std::string *error)
{
    if (error)
        error->clear();
    out.clear();
    size_t pos = 0;
    size_t lineno = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::string line_err;
        JVal root;
        JsonParser p(line, &line_err);
        if (!p.parse(root) || root.type != JVal::Obj) {
            if (error)
                *error = strprintf("line %zu: %s", lineno,
                                   line_err.empty()
                                       ? "not a JSON object"
                                       : line_err.c_str());
            return false;
        }
        const JVal *schema = root.get("schema");
        const JVal *version = root.get("schema_version");
        const JVal *kind = root.get("kind");
        const JVal *stats = root.get("stats");
        uint64_t v = 0;
        if (!schema || schema->type != JVal::Str ||
            schema->raw != kStatsStreamSchemaName || !version ||
            !version->toU64(v) ||
            v != static_cast<uint64_t>(kStatsSchemaVersion) ||
            !kind || kind->type != JVal::Str || !stats) {
            if (error)
                *error = strprintf(
                    "line %zu: not a %s record", lineno,
                    kStatsStreamSchemaName);
            return false;
        }
        StatStreamRecord rec;
        rec.kind = kind->raw;
        // A stamp is optional, but a present one is an unsigned
        // integer.
        auto stamp = [&](const char *field, auto &dst) {
            const JVal *f = root.get(field);
            uint64_t x = 0;
            bool ok = !f || f->toU64(x);
            if (f && ok)
                dst = static_cast<std::decay_t<decltype(dst)>>(x);
            if (!ok && error)
                *error = strprintf("line %zu: \"%s\" is not an unsigned "
                                   "64-bit integer", lineno, field);
            return ok;
        };
        if (!stamp("seq", rec.seq) || !stamp("task", rec.task) ||
            !stamp("shard", rec.shard) ||
            !stamp("interval", rec.interval))
            return false;
        std::string group_err;
        if (!groupFromJval(*stats, rec.stats, &group_err)) {
            if (error)
                *error = strprintf("line %zu: stats: %s", lineno,
                                   group_err.c_str());
            return false;
        }
        if (const JVal *delta = root.get("delta")) {
            if (!groupFromJval(*delta, rec.delta, &group_err)) {
                if (error)
                    *error = strprintf("line %zu: delta: %s", lineno,
                                       group_err.c_str());
                return false;
            }
            rec.has_delta = true;
        }
        out.push_back(std::move(rec));
    }
    return true;
}

namespace {

bool
readTextInput(const std::string &path, std::string &out,
              std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (error)
            *error = strprintf("cannot open '%s'", path.c_str());
        return false;
    }
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok && error)
        *error = strprintf("read error on '%s'", path.c_str());
    return ok;
}

/** Pick the most aggregated record kind present in a stream. */
const char *
preferredStreamKind(const std::vector<StatStreamRecord> &recs)
{
    for (const char *kind : {"run", "shard", "snapshot"})
        for (const StatStreamRecord &r : recs)
            if (r.kind == kind)
                return kind;
    return "";
}

} // namespace

bool
loadStatGroups(const std::string &path, std::vector<StatGroup> &out,
               std::string *error)
{
    if (error)
        error->clear();
    out.clear();
    std::string text;
    if (!readTextInput(path, text, error))
        return false;
    // Every error below the file read names the file.
    auto failIn = [&] {
        if (error)
            *error = strprintf("'%s': %s", path.c_str(), error->c_str());
        return false;
    };

    // A whole-text parse distinguishes the single-document formats
    // from a multi-line stream (which fails with trailing content).
    std::string doc_err;
    JVal root;
    JsonParser p(text, &doc_err);
    if (p.parse(root) && root.type == JVal::Obj) {
        const JVal *schema = root.get("schema");
        std::string name =
            schema && schema->type == JVal::Str ? schema->raw : "";
        if (name == kStatsSchemaName) {
            StatGroup g;
            if (!groupFromJval(root, g, error))
                return failIn();
            out.push_back(std::move(g));
            return true;
        }
        if (name == "cesp.statgroup.list") {
            const JVal *groups = root.get("groups");
            const JVal *merged = root.get("merged");
            const JVal *use =
                groups && !groups->arr.empty() ? groups : merged;
            if (!use || use->type != JVal::Arr) {
                if (error)
                    *error = strprintf(
                        "'%s': list document has no groups",
                        path.c_str());
                return false;
            }
            for (const JVal &gj : use->arr) {
                StatGroup g;
                if (!groupFromJval(gj, g, error))
                    return failIn();
                out.push_back(std::move(g));
            }
            return true;
        }
        if (name != kStatsStreamSchemaName) {
            if (error)
                *error = strprintf(
                    "'%s': unrecognised schema '%s'", path.c_str(),
                    name.c_str());
            return false;
        }
        // A one-record stream parses as a single object; fall
        // through to the stream reader.
    }

    std::vector<StatStreamRecord> recs;
    if (!readStatStream(text, recs, error))
        return failIn();
    std::string kind = preferredStreamKind(recs);
    std::vector<const StatStreamRecord *> picked;
    for (const StatStreamRecord &r : recs)
        if (r.kind == kind)
            picked.push_back(&r);
    // Workers append in completion order; comparisons pair by
    // position, so order by the indices stamped into the records.
    std::stable_sort(picked.begin(), picked.end(),
                     [](const StatStreamRecord *a,
                        const StatStreamRecord *b) {
                         if (a->task != b->task)
                             return a->task < b->task;
                         if (a->shard != b->shard)
                             return a->shard < b->shard;
                         return a->interval < b->interval;
                     });
    for (const StatStreamRecord *r : picked)
        out.push_back(r->stats);
    if (out.empty()) {
        if (error)
            *error = strprintf("'%s': no stat records", path.c_str());
        return false;
    }
    return true;
}

bool
writeTextOutput(const std::string &path, const std::string &text,
                std::string *error)
{
    const bool to_stdout = path == "-";
    std::FILE *f = to_stdout ? stdout : std::fopen(path.c_str(), "w");
    if (!f) {
        if (error)
            *error = strprintf("cannot open '%s' for writing",
                               path.c_str());
        return false;
    }
    bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
        text.size();
    ok = std::fflush(f) == 0 && ok;
    if (!to_stdout)
        ok = std::fclose(f) == 0 && ok;
    if (!ok && error)
        *error = strprintf("short write to '%s'", path.c_str());
    return ok;
}

} // namespace cesp
