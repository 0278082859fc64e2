/**
 * @file
 * Span aggregation: rolls a trace's Complete events into summary
 * statistics and a flamegraph-style tree, and extracts the per-domain
 * supply-voltage waveform from the power layer's Counter samples.
 *
 * The emission side guarantees two orderings the aggregator leans on:
 * events arrive in emission order, and a `trace::Span` emits its
 * Complete event when it *closes* — so child spans always precede their
 * parents in the stream and nesting can be reconstructed with a single
 * backward containment pass, no sorting required.
 *
 * "Self" simulation time is a span's duration minus the durations of
 * its direct children, i.e. the time attributable to that span alone —
 * the number a flamegraph colours by.
 */

#ifndef VOLTBOOT_REPORT_SPAN_AGGREGATOR_HH
#define VOLTBOOT_REPORT_SPAN_AGGREGATOR_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace voltboot
{
namespace report
{

/** Accumulated statistics of one (category, name) span kind. */
struct SpanStats
{
    uint64_t count = 0;
    double total_s = 0.0; ///< Sum of span durations (simulation time).
    double self_s = 0.0;  ///< Sum of durations minus child durations.
};

/** One node of the reconstructed span tree. */
struct SpanNode
{
    std::string category;
    std::string name;
    double start_s = 0.0;
    double dur_s = 0.0;
    double self_s = 0.0;
    std::vector<SpanNode> children;
};

/** One sample of a domain's supply voltage (simulation time, volts). */
struct VoltageSample
{
    double ts_s = 0.0;
    double volts = 0.0;
};

/** Aggregated view of one event sequence. */
class SpanAggregate
{
  public:
    /** Aggregate @p events (any phases; non-Complete events are only
     * consulted for instant/counter tallies and waveforms). */
    static SpanAggregate build(std::span<const trace::TraceEvent> events);

    /** Per-(category, name) span statistics, keyed "category/name",
     * sorted (std::map), so rendering is deterministic. */
    const std::map<std::string, SpanStats> &spans() const
    { return spans_; }

    /** Per-(category, name) Instant/Counter event counts. */
    const std::map<std::string, uint64_t> &eventCounts() const
    { return event_counts_; }

    /** Top-level spans with their nested children. */
    const std::vector<SpanNode> &roots() const { return roots_; }

    /**
     * Supply-voltage waveforms keyed by domain name, decoded from the
     * power layer's `voltage.<domain>` Counter events — the simulated
     * equivalent of the paper's oscilloscope shots.
     */
    const std::map<std::string, std::vector<VoltageSample>> &
    waveforms() const
    { return waveforms_; }

    uint64_t totalEvents() const { return total_events_; }

    /** Markdown table of spans(): calls, total and self time. */
    std::string renderSpanTable() const;

    /** Indented flamegraph-style rendering of the span tree. */
    std::string renderTree() const;

    /** Markdown summary of each domain's waveform (sample count,
     * min/max volts, final level). */
    std::string renderWaveforms() const;

  private:
    std::map<std::string, SpanStats> spans_;
    std::map<std::string, uint64_t> event_counts_;
    std::vector<SpanNode> roots_;
    std::map<std::string, std::vector<VoltageSample>> waveforms_;
    uint64_t total_events_ = 0;
};

} // namespace report
} // namespace voltboot

#endif // VOLTBOOT_REPORT_SPAN_AGGREGATOR_HH
