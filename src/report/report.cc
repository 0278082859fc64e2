#include "report/report.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "report/heartbeat.hh"
#include "report/span_aggregator.hh"
#include "report/trace_reader.hh"

namespace voltboot
{
namespace report
{

namespace
{

std::string
fmt(const char *spec, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), spec, value);
    return buf;
}

std::string
pct(uint64_t part, uint64_t whole)
{
    if (whole == 0)
        return "-";
    return fmt("%.1f%%", 100.0 * static_cast<double>(part) /
                             static_cast<double>(whole));
}

/** Accumulator for one table bucket of trial records. */
struct Bucket
{
    uint64_t trials = 0;
    uint64_t ok = 0;
    uint64_t keys_exact = 0;
    double accuracy_sum = 0.0;
    double ber_sum = 0.0;

    void
    add(const TrialRecord &r)
    {
        ++trials;
        if (r.status == TrialStatus::Ok) {
            ++ok;
            accuracy_sum += r.accuracy;
            ber_sum += r.bit_error_rate;
        }
        keys_exact += r.key_exact;
    }

    std::string
    meanAccuracy() const
    {
        return ok ? fmt("%.4f", accuracy_sum / static_cast<double>(ok))
                  : std::string("-");
    }

    std::string
    meanBer() const
    {
        return ok ? fmt("%.5f", ber_sum / static_cast<double>(ok))
                  : std::string("-");
    }
};

std::string
renderBucketTable(const char *label,
                  const std::map<std::string, Bucket> &buckets)
{
    std::string out;
    out += std::string("| ") + label +
           " | trials | ok | success | mean accuracy | mean BER |"
           " keys exact |\n";
    out += "|---|---:|---:|---:|---:|---:|---:|\n";
    for (const auto &[key, b] : buckets) {
        out += "| `" + key + "` | " + std::to_string(b.trials) + " | " +
               std::to_string(b.ok) + " | " + pct(b.ok, b.trials) +
               " | " + b.meanAccuracy() + " | " + b.meanBer() + " | " +
               std::to_string(b.keys_exact) + " |\n";
    }
    return out;
}

} // namespace

std::string
trialTracePath(const std::string &trace_dir, uint64_t index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "trial_%06llu.jsonl",
                  static_cast<unsigned long long>(index));
    return (std::filesystem::path(trace_dir) / name).string();
}

TraceReport
buildTraceReport(std::span<const trace::TraceEvent> events,
                 const std::string &source, bool check)
{
    TraceReport report;
    const SpanAggregate agg = SpanAggregate::build(events);

    uint64_t spans = 0, instants = 0, counters = 0;
    for (const trace::TraceEvent &ev : events) {
        switch (ev.phase) {
          case trace::Phase::Complete: ++spans; break;
          case trace::Phase::Instant: ++instants; break;
          case trace::Phase::Counter: ++counters; break;
        }
    }

    std::string &md = report.markdown;
    md += "# Trace report: " + source + "\n\n";
    md += "- events: " + std::to_string(events.size()) + " (" +
          std::to_string(spans) + " spans, " + std::to_string(instants) +
          " instants, " + std::to_string(counters) + " counters)\n\n";

    md += "## Spans\n\n";
    if (agg.spans().empty())
        md += "No complete spans in this trace.\n";
    else
        md += agg.renderSpanTable();
    md += "\n";

    if (!agg.eventCounts().empty()) {
        md += "## Instant and counter events\n\n";
        md += "| event | count |\n|---|---:|\n";
        for (const auto &[key, count] : agg.eventCounts())
            md += "| `" + key + "` | " + std::to_string(count) + " |\n";
        md += "\n";
    }

    if (!agg.roots().empty()) {
        md += "## Span tree\n\n```\n" + agg.renderTree() + "```\n\n";
    }

    if (!agg.waveforms().empty()) {
        md += "## Domain voltage waveforms\n\n";
        md += agg.renderWaveforms();
        md += "\n";
    }

    if (check) {
        report.violations = checkTraceInvariants(events);
        md += "## Invariant check\n\n";
        if (report.violations.empty()) {
            md += "PASS: all invariants hold over " +
                  std::to_string(events.size()) + " events.\n";
        } else {
            md += "FAIL: " + std::to_string(report.violations.size()) +
                  " violation(s).\n\n```\n" +
                  renderViolations(report.violations) + "```\n";
        }
    }
    return report;
}

CampaignReport
buildCampaignReport(const SweepDoc &sweep,
                    const CampaignReportOptions &opts)
{
    CampaignReport report;
    std::string &md = report.markdown;

    // --- Overview -------------------------------------------------
    uint64_t by_status[std::size(kStatusNames)] = {};
    uint64_t booted = 0, keys_exact = 0;
    for (const TrialRecord &r : sweep.records) {
        ++by_status[static_cast<size_t>(r.status)];
        booted += r.booted;
        keys_exact += r.key_exact;
    }

    md += "# Campaign report\n\n";
    md += "- grid: `" + sweep.grid + "`\n";
    md += "- campaign seed: " + std::to_string(sweep.campaign_seed) +
          "\n";
    md += "- trials: " + std::to_string(sweep.records.size()) + "\n\n";

    md += "## Outcome summary\n\n";
    md += "| status | trials | share |\n|---|---:|---:|\n";
    const uint64_t total = sweep.records.size();
    for (const EnumName<TrialStatus> &status : kStatusNames) {
        const uint64_t n = by_status[static_cast<size_t>(status.kind)];
        md += std::string("| ") + status.name + " | " +
              std::to_string(n) + " | " + pct(n, total) + " |\n";
    }
    md += "\n";
    md += "Booted " + std::to_string(booted) + "/" +
          std::to_string(total) + " trials; " +
          std::to_string(keys_exact) + " exact key recoveries.\n\n";

    // --- Per-board / per-target breakdowns ------------------------
    // The board, target and attack axes lead the axis table.
    for (const GridAxis &axis : std::span(kGridAxes).first(3)) {
        std::map<std::string, Bucket> buckets;
        for (const TrialRecord &r : sweep.records)
            buckets[plainText(readMember(axis.member, r.spec))].add(r);
        md += std::string("## Per-") + axis.key + " results\n\n" +
              renderBucketTable(axis.key, buckets) + "\n";
    }

    // --- Retention vs off time (the paper's core plot) ------------
    // Keyed by the raw off_ms double: distinct grid points stay
    // distinct and sort numerically.
    std::map<double, Bucket> by_off;
    for (const TrialRecord &r : sweep.records)
        by_off[r.spec.off_ms].add(r);
    md += "## Retention vs power-off time\n\n";
    md += "| off (ms) | trials | ok | success | mean accuracy |"
          " mean BER |\n";
    md += "|---:|---:|---:|---:|---:|---:|\n";
    for (const auto &[off_ms, b] : by_off) {
        md += "| " + fmt("%g", off_ms) + " | " +
              std::to_string(b.trials) + " | " + std::to_string(b.ok) +
              " | " + pct(b.ok, b.trials) + " | " + b.meanAccuracy() +
              " | " + b.meanBer() + " |\n";
    }
    md += "\n";

    // --- Per-trial trace join -------------------------------------
    if (!opts.trace_dir.empty()) {
        md += "## Per-trial traces\n\n";
        uint64_t found = 0, missing = 0, checked_bad = 0;
        uint64_t total_events = 0;
        std::map<std::string, SpanStats> merged;
        for (const TrialRecord &r : sweep.records) {
            const std::string path =
                trialTracePath(opts.trace_dir, r.spec.index);
            if (!std::filesystem::exists(path)) {
                ++missing;
                if (opts.check)
                    report.problems.push_back("missing trace file " +
                                              path);
                continue;
            }
            ++found;
            const std::vector<trace::TraceEvent> events =
                readTraceFile(path);
            total_events += events.size();
            const SpanAggregate agg = SpanAggregate::build(events);
            for (const auto &[key, stats] : agg.spans()) {
                SpanStats &m = merged[key];
                m.count += stats.count;
                m.total_s += stats.total_s;
                m.self_s += stats.self_s;
            }
            if (opts.check) {
                const std::vector<Violation> violations =
                    checkTraceInvariants(events);
                if (!violations.empty()) {
                    ++checked_bad;
                    for (const Violation &v : violations)
                        report.problems.push_back(
                            path + ": " + v.invariant + " @ event " +
                            std::to_string(v.event_index) + ": " +
                            v.message);
                }
            }
        }
        md += "- traces joined: " + std::to_string(found) + "/" +
              std::to_string(total) + " (" + std::to_string(missing) +
              " missing)\n";
        md += "- events: " + std::to_string(total_events) + "\n";
        if (opts.check)
            md += "- invariant check: " +
                  (checked_bad == 0 && missing == 0
                       ? std::string("PASS")
                       : "FAIL (" + std::to_string(checked_bad) +
                             " bad trace(s), " +
                             std::to_string(missing) + " missing)") +
                  "\n";
        md += "\n";
        if (!merged.empty()) {
            md += "### Aggregated span statistics\n\n";
            md += "| span | calls | total (us) | self (us) |\n";
            md += "|---|---:|---:|---:|\n";
            for (const auto &[key, stats] : merged)
                md += "| `" + key + "` | " +
                      std::to_string(stats.count) + " | " +
                      fmt("%.3f", stats.total_s * 1e6) + " | " +
                      fmt("%.3f", stats.self_s * 1e6) + " |\n";
            md += "\n";
        }
    }

    // --- Heartbeat join (opt-in, non-canonical) -------------------
    if (!opts.heartbeat_path.empty()) {
        md += "## Throughput (heartbeat stream)\n\n";
        const std::vector<Heartbeat> beats =
            readHeartbeats(opts.heartbeat_path);
        if (beats.empty()) {
            md += "No heartbeat samples in `" + opts.heartbeat_path +
                  "`.\n\n";
        } else {
            md += renderHeartbeatSummary(beats);
            const Heartbeat &last = beats.back();
            const uint64_t recorded =
                total - by_status[static_cast<size_t>(TrialStatus::Skipped)];
            md += "Final sample vs sweep result: " +
                  std::to_string(last.completed) + " completed in "
                  "heartbeats, " + std::to_string(recorded) +
                  " recorded in the sweep (" +
                  (last.completed == recorded
                       ? std::string("exact match")
                       : "within one snapshot interval of a killed "
                         "run") +
                  ").\n\n";
        }
    }

    // --- Wall clock (opt-in, non-canonical) -----------------------
    if (sweep.has_timing) {
        md += "## Wall clock\n\n";
        md += "- wall time: " + fmt("%.3f", sweep.wall_seconds) +
              " s at " + std::to_string(sweep.jobs) + " job(s)\n";
        md += "- throughput: " + fmt("%.1f", sweep.trials_per_second) +
              " trials/s\n";
        md += "- timed out: " + std::to_string(sweep.trials_timed_out) +
              "\n\n";
        if (!sweep.metrics.histograms.empty()) {
            md += "| metric | count | mean | p50 | p90 | p99 | max |\n";
            md += "|---|---:|---:|---:|---:|---:|---:|\n";
            for (const auto &[name, h] : sweep.metrics.histograms) {
                md += "| `" + name + "` | " + std::to_string(h.count) +
                      " | " + fmt("%.6f", h.mean) + " | " +
                      fmt("%.6f", h.p50) + " | " + fmt("%.6f", h.p90) +
                      " | " + fmt("%.6f", h.p99) + " | " +
                      fmt("%.6f", h.max) + " |\n";
            }
            md += "\n";
        }
    }

    return report;
}

} // namespace report
} // namespace voltboot
