/**
 * @file
 * Self-describing metrics registry. A StatGroup is an ordered
 * collection of named, documented metrics — counters, gauges,
 * derived ratios and histograms — that supports reset, merge (for
 * combining per-worker results), exact interval deltas, and lossless
 * export to JSON and CSV. The simulator's SimStats, the sweep
 * engine's aggregates, and the CLI/bench `--json`/`--csv` modes are
 * all built on it: registering a metric once gives it a place in
 * every report, export, and comparison.
 *
 * Exported documents are schema-versioned (kStatsSchemaVersion) and
 * keep registration order, so exports are stable and diffable across
 * runs. StatGroup::fromJson parses the emitted JSON back into an
 * equal group (sameSchema + sameValues), making every experiment
 * record round-trippable.
 */

#ifndef CESP_COMMON_METRICS_HPP
#define CESP_COMMON_METRICS_HPP

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace cesp {

/** Version stamped into (and checked when parsing) every export. */
constexpr int kStatsSchemaVersion = 1;

/** Identifier written in the "schema" field of a group document. */
constexpr const char *kStatsSchemaName = "cesp.statgroup";

/** Identifier written in every JSON-lines stream record. */
constexpr const char *kStatsStreamSchemaName = "cesp.statgroup.jsonl";

/** Deepest object/array nesting the JSON readers accept. Exports
 *  nest at most six levels (a list document's histogram buckets);
 *  deeper input is a parse error ("nesting too deep"), never
 *  unbounded recursion. */
constexpr int kJsonMaxDepth = 64;

/** What a registered metric is and how it merges. */
enum class StatKind
{
    Counter,   //!< uint64_t, accumulated; merge adds
    Gauge,     //!< double point value (e.g. a clock estimate); merge adds
    Derived,   //!< scale * num / den over two counters; never stored
    Histogram, //!< fixed-width buckets + under/overflow; merge adds
};

/** Lowercase name used in exports ("counter", "gauge", ...). */
const char *statKindName(StatKind k);

/** Metadata and storage slot of one registered metric. */
struct StatEntry
{
    std::string name; //!< unique within the group; export key
    std::string unit; //!< human-readable unit ("cycles", "%", ...)
    std::string desc; //!< one-line description
    StatKind kind;
    size_t store; //!< index into the group's per-kind storage

    // Derived only: operand counter names and resolved storage slots.
    std::string num, den;
    size_t num_store = 0, den_store = 0;
    double scale = 1.0;
};

/**
 * Minimal streaming JSON writer (objects, arrays, scalars) shared by
 * StatGroup::toJson and the harnesses that compose multi-group
 * documents. Doubles are written with enough digits to round-trip
 * exactly; strings are escaped per RFC 8259. A negative indent
 * selects compact mode: no newlines or indentation, for one-line
 * JSON-lines records.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(int indent = 2) : indent_(indent) {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    /** Key of the next value (inside an object). */
    void key(std::string_view k);
    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(double v);
    void value(uint64_t v);
    void value(int v) { value(static_cast<uint64_t>(v)); }
    void value(bool v);

    /** The finished document (call after the last end*()). */
    std::string str() const { return out_; }

  private:
    void separate(); //!< comma/newline/indent before a new element
    std::string out_;
    int indent_;
    int depth_ = 0;
    bool need_comma_ = false;
    bool after_key_ = false;
};

/**
 * The registry. Metrics are registered once (name, unit, description)
 * and addressed either by the storage index returned at registration
 * (O(1), used by hot accessors) or by name. Registration order is the
 * export order and never changes afterwards.
 */
class StatGroup
{
  public:
    StatGroup() = default;
    /** @param name  what this group measures (export "group" field)
     *  @param label instance label, e.g. a configuration name */
    explicit StatGroup(std::string name, std::string label = "");

    // ---- registration (returns the per-kind storage index) ----
    size_t addCounter(std::string name, std::string unit,
                      std::string desc, uint64_t value = 0);
    size_t addGauge(std::string name, std::string unit,
                    std::string desc, double value = 0.0);
    /** value = scale * counter(num) / counter(den); 0 when the
     *  denominator is 0. Both operands must already be registered. */
    size_t addDerived(std::string name, std::string unit,
                      std::string desc, std::string num,
                      std::string den, double scale = 1.0);
    /** @p growable histograms auto-range (see Histogram); @p buckets
     *  is then only the initial shape. */
    size_t addHistogram(std::string name, std::string unit,
                        std::string desc, size_t buckets, double width,
                        bool growable = false);

    // ---- identity ----
    const std::string &name() const { return name_; }
    std::string &label() { return label_; }
    const std::string &label() const { return label_; }

    // ---- indexed access (hot paths) ----
    uint64_t &counterAt(size_t i) { return counters_[i]; }
    uint64_t counterAt(size_t i) const { return counters_[i]; }
    double &gaugeAt(size_t i) { return gauges_[i]; }
    double gaugeAt(size_t i) const { return gauges_[i]; }
    Histogram &histogramAt(size_t i) { return histograms_[i]; }
    const Histogram &histogramAt(size_t i) const
    {
        return histograms_[i];
    }
    /** Evaluate derived metric @p i (storage order). */
    double derivedAt(size_t i) const;

    size_t counters() const { return counters_.size(); }
    size_t histograms() const { return histograms_.size(); }

    // ---- named access ----
    const std::vector<StatEntry> &entries() const { return entries_; }
    /** nullptr when no metric has that name. */
    const StatEntry *find(std::string_view name) const;
    /** Counter value by name; fatal if absent or not a counter. */
    uint64_t counter(std::string_view name) const;
    /** Scalar value of a counter, gauge, or derived metric by name;
     *  fatal if absent or a distribution. */
    double value(std::string_view name) const;

    // ---- whole-group operations ----
    /** Zero every metric; registration is preserved. */
    void reset();
    /** Accumulate @p other into this group, entry by entry. The two
     *  schemas (names, kinds, shapes) must match; fatal otherwise. */
    void merge(const StatGroup &other);
    /** Same metrics in the same order with the same shapes. */
    bool sameSchema(const StatGroup &other) const;
    /** Why the schemas differ: names the first differing entry (its
     *  position, names, kinds, or histogram shape) rather than just
     *  voting no. Empty string when the schemas match. */
    std::string schemaDiff(const StatGroup &other) const;
    /** sameSchema and every stored value equal. */
    bool sameValues(const StatGroup &other) const;
    /**
     * The change accumulated since @p prev, an earlier snapshot of
     * this group: counters, gauges and histogram buckets subtract;
     * derived metrics recompute over the delta counters. Counters and
     * buckets are integers, so prev.merge(deltaSince(prev)) restores
     * them exactly (gauges up to double rounding). Schemas must match
     * (fatal otherwise) and every counter and bucket must be >= its
     * value in @p prev.
     */
    StatGroup deltaSince(const StatGroup &prev) const;
    /** Human-readable list of differing entries (for test output). */
    std::string diff(const StatGroup &other) const;

    // ---- export / import ----
    /** Write this group as one JSON object into @p w. */
    void writeJson(JsonWriter &w) const;
    /** Complete schema-versioned JSON document. */
    std::string toJson(int indent = 2) const;
    /** CSV: a header comment, then one row per scalar metric;
     *  histograms are flattened to dotted names. */
    std::string toCsv() const;
    /**
     * Parse a document produced by toJson back into @p out (the
     * group is rebuilt from scratch: schema and values). Returns
     * false and sets @p error on malformed input or a schema-version
     * mismatch.
     */
    static bool fromJson(const std::string &text, StatGroup &out,
                         std::string *error);

  private:
    size_t addEntry(StatKind kind, std::string name, std::string unit,
                    std::string desc);

    std::string name_ = "stats";
    std::string label_;
    std::vector<StatEntry> entries_;
    std::vector<uint64_t> counters_;
    std::vector<double> gauges_;
    std::vector<Histogram> histograms_;
    size_t derived_count_ = 0; //!< derived metrics have no storage
};

/**
 * Multi-group document ("cesp.statgroup.list"): every run's group
 * under "groups" plus any aggregate/summary groups under "merged".
 * Used by the CLI sweep modes and the bench harnesses' --json.
 */
std::string statGroupListJson(const std::vector<StatGroup> &groups,
                              const std::vector<StatGroup> &merged);

/** Concatenated per-group CSV blocks separated by blank lines. */
std::string statGroupListCsv(const std::vector<StatGroup> &groups);

/**
 * Write @p text to @p path, with "-" meaning stdout. Returns false
 * (and sets @p error) on any I/O failure.
 */
bool writeTextOutput(const std::string &path, const std::string &text,
                     std::string *error);

// ---------------------------------------------------------------------
// JSON-lines streaming ("cesp.statgroup.jsonl")

/**
 * Identity of one stream record: what finished (a whole run, one
 * shard of a run, or an interval snapshot) and where it belongs in
 * the experiment. Negative indices are omitted from the record.
 */
struct StatStreamMeta
{
    std::string kind = "run"; //!< "run", "shard" or "snapshot"
    int64_t task = -1;        //!< task index within the sweep
    int64_t shard = -1;       //!< shard window within the task
    int64_t interval = -1;    //!< snapshot interval within the run
};

/**
 * Appends one compact, self-describing JSON record per line to a file
 * ("-" = stdout). append() is thread-safe: sweep workers call it as
 * runs finish, so a million-point sweep streams results in O(1)
 * memory instead of buffering a cesp.statgroup.list document.
 * Records carry a monotonic "seq" assigned under the lock; consumers
 * order by the task/shard/interval indices, not by arrival.
 */
class StatStreamWriter
{
  public:
    explicit StatStreamWriter(const std::string &path);
    ~StatStreamWriter();
    StatStreamWriter(const StatStreamWriter &) = delete;
    StatStreamWriter &operator=(const StatStreamWriter &) = delete;

    bool ok() const { return file_ != nullptr && !failed_; }
    const std::string &error() const { return error_; }

    /** Write one record; @p delta (optional) is the per-interval
     *  change emitted alongside a cumulative snapshot. Returns false
     *  after any I/O failure (the stream stays failed). */
    bool append(const StatStreamMeta &meta, const StatGroup &stats,
                const StatGroup *delta = nullptr);

  private:
    std::FILE *file_ = nullptr;
    bool owns_file_ = false;
    bool failed_ = false;
    std::string error_;
    std::string path_;
    uint64_t seq_ = 0;
    std::mutex mu_;
};

/** One parsed stream record (indices are -1 when absent). */
struct StatStreamRecord
{
    uint64_t seq = 0;
    std::string kind;
    int64_t task = -1;
    int64_t shard = -1;
    int64_t interval = -1;
    StatGroup stats;
    bool has_delta = false;
    StatGroup delta;
};

/**
 * Parse a JSON-lines stream produced by StatStreamWriter. Blank lines
 * are skipped; any malformed line fails the whole read. Records are
 * returned in file order.
 */
bool readStatStream(const std::string &text,
                    std::vector<StatStreamRecord> &out,
                    std::string *error);

/**
 * Load StatGroups from any export this stack produces: a single
 * "cesp.statgroup" document, a "cesp.statgroup.list" document (its
 * "groups", or "merged" when groups is empty), or a
 * "cesp.statgroup.jsonl" stream. Stream records are filtered to the
 * most aggregated kind present ("run", else "shard", else "snapshot"
 * cumulatives) and ordered by their task index, so two streams of
 * the same sweep compare positionally regardless of worker arrival
 * order. Returns false and sets @p error on I/O or
 * parse failure.
 */
bool loadStatGroups(const std::string &path,
                    std::vector<StatGroup> &out, std::string *error);

} // namespace cesp

#endif // CESP_COMMON_METRICS_HPP
