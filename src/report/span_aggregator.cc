#include "report/span_aggregator.hh"

#include <algorithm>
#include <cstdio>

namespace voltboot
{
namespace report
{

namespace
{

std::string
fmtUs(double seconds)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    return buf;
}

std::string
fmtVolts(double volts)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", volts);
    return buf;
}

void
renderNode(const SpanNode &node, size_t depth, std::string &out)
{
    out.append(depth * 2, ' ');
    out += "- ";
    out += node.category;
    out += "/";
    out += node.name;
    out += "  [start ";
    out += fmtUs(node.start_s);
    out += " us, dur ";
    out += fmtUs(node.dur_s);
    out += " us, self ";
    out += fmtUs(node.self_s);
    out += " us]\n";
    for (const SpanNode &child : node.children)
        renderNode(child, depth + 1, out);
}

} // namespace

SpanAggregate
SpanAggregate::build(std::span<const trace::TraceEvent> events)
{
    SpanAggregate agg;
    agg.total_events_ = events.size();

    for (const trace::TraceEvent &ev : events) {
        const std::string key =
            std::string(ev.category) + "/" + ev.name;

        if (ev.phase != trace::Phase::Complete) {
            ++agg.event_counts_[key];
            if (ev.phase != trace::Phase::Counter)
                continue;
            if (const auto v = trace::argNumber(ev, "v")) {
                agg.counter_tracks_[key].push_back({ev.ts.seconds(), *v});
                if (const auto domain =
                        trace::voltageCounterDomain(ev.name))
                    agg.waveforms_[std::string(*domain)].push_back(
                        {ev.ts.seconds(), *v});
            }
            continue;
        }

        // Complete span: adopt every already-finished top-level span
        // whose interval this one contains. Children close (and are
        // emitted) before their parents, so they sit at the tail of
        // the current root list.
        SpanNode node;
        node.category = ev.category;
        node.name = ev.name;
        node.start_s = ev.ts.seconds();
        node.dur_s = ev.dur.seconds();

        const double start = node.start_s;
        const double end = node.start_s + node.dur_s;
        std::vector<SpanNode> adopted;
        while (!agg.roots_.empty()) {
            const SpanNode &tail = agg.roots_.back();
            if (tail.start_s >= start &&
                tail.start_s + tail.dur_s <= end) {
                adopted.push_back(std::move(agg.roots_.back()));
                agg.roots_.pop_back();
            } else {
                break;
            }
        }
        std::reverse(adopted.begin(), adopted.end());
        node.children = std::move(adopted);

        double child_time = 0.0;
        for (const SpanNode &child : node.children)
            child_time += child.dur_s;
        node.self_s = std::max(0.0, node.dur_s - child_time);

        SpanStats &stats = agg.spans_[key];
        ++stats.count;
        stats.total_s += node.dur_s;
        stats.self_s += node.self_s;

        agg.roots_.push_back(std::move(node));
    }
    return agg;
}

std::string
SpanAggregate::renderSpanTable() const
{
    std::string out;
    out += "| span | calls | total (us) | self (us) |\n";
    out += "|---|---:|---:|---:|\n";
    for (const auto &[key, stats] : spans_) {
        out += "| `" + key + "` | " + std::to_string(stats.count) +
               " | " + fmtUs(stats.total_s) + " | " +
               fmtUs(stats.self_s) + " |\n";
    }
    return out;
}

std::string
SpanAggregate::renderTree() const
{
    std::string out;
    for (const SpanNode &root : roots_)
        renderNode(root, 0, out);
    return out;
}

std::string
SpanAggregate::renderWaveforms() const
{
    std::string out;
    out += "| domain | samples | min (V) | max (V) | final (V) |\n";
    out += "|---|---:|---:|---:|---:|\n";
    for (const auto &[domain, samples] : waveforms_) {
        double lo = samples.front().volts;
        double hi = samples.front().volts;
        for (const VoltageSample &s : samples) {
            lo = std::min(lo, s.volts);
            hi = std::max(hi, s.volts);
        }
        out += "| `" + domain + "` | " +
               std::to_string(samples.size()) + " | " + fmtVolts(lo) +
               " | " + fmtVolts(hi) + " | " +
               fmtVolts(samples.back().volts) + " |\n";
    }
    return out;
}

std::string
SpanAggregate::renderCounterTracks() const
{
    std::string out;
    out += "| track | samples | first | min | max | last |\n";
    out += "|---|---:|---:|---:|---:|---:|\n";
    auto fmt = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return std::string(buf);
    };
    for (const auto &[key, samples] : counter_tracks_) {
        double lo = samples.front().value;
        double hi = samples.front().value;
        for (const CounterSample &s : samples) {
            lo = std::min(lo, s.value);
            hi = std::max(hi, s.value);
        }
        out += "| `" + key + "` | " + std::to_string(samples.size()) +
               " | " + fmt(samples.front().value) + " | " + fmt(lo) +
               " | " + fmt(hi) + " | " + fmt(samples.back().value) +
               " |\n";
    }
    return out;
}

} // namespace report
} // namespace voltboot
