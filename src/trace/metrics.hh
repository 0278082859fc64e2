/**
 * @file
 * The metrics value type: counters, gauges and histogram summaries.
 *
 * Where the trace answers "what happened, when, in simulation time",
 * metrics report *cost* — wall-clock durations, queue grabs — and are
 * therefore **non-canonical**: measured by the telemetry layer and the
 * campaign, and only ever rendered in opt-in output (the `timing`
 * section, `--metrics`, /metrics), never in records or trace files.
 */

#ifndef VOLTBOOT_TRACE_METRICS_HH
#define VOLTBOOT_TRACE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace voltboot
{
namespace trace
{

/** Order statistics of one histogram's samples. */
struct HistogramSummary
{
    uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/**
 * Named counters, gauges and histogram summaries, keyed by dotted
 * names (e.g. "campaign.trial_wall_s").
 *
 * A plain value: CampaignResult embeds one so sweep outputs can carry
 * per-trial timing percentiles, and the telemetry monitor builds one
 * per /metrics scrape.
 */
struct MetricsSnapshot
{
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSummary> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }

    /**
     * Render as a JSON object with sorted keys. @p indent is the number
     * of leading spaces applied to every line after the first, so the
     * snapshot can be embedded in a larger document.
     */
    std::string toJson(int indent = 0) const;
};

/**
 * Exact order statistics of @p samples: count, mean, min, max and
 * nearest-rank p50/p90/p99 (all zero when empty). Independent of the
 * samples' order.
 */
HistogramSummary summarize(std::vector<double> samples);

} // namespace trace
} // namespace voltboot

#endif // VOLTBOOT_TRACE_METRICS_HH
