#include "trace/metrics.hh"

#include <algorithm>
#include <numeric>

#include "trace/trace.hh"

namespace voltboot
{
namespace trace
{

HistogramSummary
summarize(std::vector<double> samples)
{
    HistogramSummary h;
    if (samples.empty())
        return h;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    // Nearest rank: the sample at floor(q * n), clamped to the last.
    auto percentile = [&](double q) {
        return samples[std::min(
            n - 1, static_cast<size_t>(q * static_cast<double>(n)))];
    };
    h.count = n;
    h.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
             static_cast<double>(n);
    h.min = samples.front();
    h.max = samples.back();
    h.p50 = percentile(0.50);
    h.p90 = percentile(0.90);
    h.p99 = percentile(0.99);
    return h;
}

std::string
MetricsSnapshot::toJson(int indent) const
{
    const std::string pad(static_cast<size_t>(indent), ' ');
    std::string out = "{\n";
    out += pad + "  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out += first ? "\n" : ",\n";
        out += pad + "    " + jsonQuote(name) + ": " + jsonNumber(value);
        first = false;
    }
    out += first ? "},\n" : "\n" + pad + "  },\n";
    out += pad + "  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : gauges) {
        out += first ? "\n" : ",\n";
        out += pad + "    " + jsonQuote(name) + ": " + jsonNumber(value);
        first = false;
    }
    out += first ? "},\n" : "\n" + pad + "  },\n";
    out += pad + "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        out += first ? "\n" : ",\n";
        out += pad + "    " + jsonQuote(name) + ": {\"count\": " +
               std::to_string(h.count) + ", \"mean\": " +
               jsonNumber(h.mean) + ", \"min\": " + jsonNumber(h.min) +
               ", \"max\": " + jsonNumber(h.max) + ", \"p50\": " +
               jsonNumber(h.p50) + ", \"p90\": " + jsonNumber(h.p90) +
               ", \"p99\": " + jsonNumber(h.p99) + "}";
        first = false;
    }
    out += first ? "}\n" : "\n" + pad + "  }\n";
    out += pad + "}";
    return out;
}

} // namespace trace
} // namespace voltboot
