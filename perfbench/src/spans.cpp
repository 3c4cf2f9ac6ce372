#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "common/metrics.hpp"
#include "measure.hpp"

namespace perfbench {

namespace {

/** Open span ids of the calling thread, innermost last. */
thread_local std::vector<int64_t> t_open;

} // namespace

int64_t
SpanRecorder::begin(std::string name, int64_t run, std::string tag,
                    int64_t parent)
{
    if (!enabled_ || !active_)
        return -1;
    if (parent < 0 && !t_open.empty())
        parent = t_open.back();
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.run = run;
    s.tag = std::move(tag);
    int64_t id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = static_cast<int64_t>(spans_.size());
        spans_.push_back(std::move(s));
    }
    t_open.push_back(id);
    // Read the clock last so bookkeeping is not inside the span.
    double now = wallNow();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].start = now;
    return id;
}

void
SpanRecorder::end(int64_t id)
{
    if (id < 0)
        return;
    double now = wallNow();
    auto it = std::find(t_open.rbegin(), t_open.rend(), id);
    if (it != t_open.rend())
        t_open.erase(std::next(it).base());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::vector<double> self = selfTimes(all);
    cesp::JsonWriter w(-1);
    w.beginObject();
    w.key("schema");
    w.value("perfbench.spans");
    w.key("spans");
    w.beginArray();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        w.beginObject();
        w.key("id");
        w.value(static_cast<uint64_t>(i));
        w.key("name");
        w.value(s.name);
        w.key("start");
        w.value(s.start);
        w.key("end");
        w.value(s.end);
        w.key("parent");
        w.value(static_cast<double>(s.parent));
        w.key("run");
        w.value(static_cast<double>(s.run));
        w.key("tag");
        w.value(s.tag);
        w.key("self");
        w.value(self[i]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::string error;
    return cesp::writeTextOutput(path, w.str() + "\n", &error);
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 &&
            static_cast<size_t>(s.parent) < spans.size())
            kids[static_cast<size_t>(s.parent)].push_back(
                {s.start, s.end});

    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double lo = 0.0, hi = 0.0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, p.start);
            b = std::min(b, p.end);
            if (b <= a)
                continue;
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = out[spans[i].name];
        t.total += spans[i].end - spans[i].start;
        t.self += self[i];
        ++t.count;
    }
    return out;
}

} // namespace perfbench
