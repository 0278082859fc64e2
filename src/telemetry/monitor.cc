#include "telemetry/monitor.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "trace/trace.hh"

namespace voltboot
{
namespace telemetry
{

namespace
{

/** EWMA smoothing factor for the trial rate (per sample). */
constexpr double kRateAlpha = 0.3;

uint64_t
unixMillis()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** Per-axis grid coordinates of completed-trial count @p done over
 * @p axes (slowest-varying first): the position the sweep's enumeration
 * cursor would be at had trials finished in index order. Chunked
 * scheduling makes this approximate mid-axis, exact at boundaries. */
std::vector<uint64_t>
axisPositions(const std::vector<AxisDesc> &axes, uint64_t done,
              uint64_t total)
{
    std::vector<uint64_t> pos(axes.size(), 0);
    if (axes.empty())
        return pos;
    if (total > 0 && done >= total) {
        for (size_t i = 0; i < axes.size(); ++i)
            pos[i] = axes[i].size;
        return pos;
    }
    uint64_t stride = 1;
    for (size_t i = axes.size(); i-- > 0;) {
        const uint64_t size = std::max<uint64_t>(1, axes[i].size);
        pos[i] = (done / stride) % size;
        stride *= size;
    }
    return pos;
}

} // namespace

CampaignMonitor::CampaignMonitor(MonitorConfig config)
    : config_(std::move(config))
{
    if (config_.interval_s <= 0.0)
        config_.interval_s = 1.0;
}

CampaignMonitor::~CampaignMonitor()
{
    stop();
}

void
CampaignMonitor::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_)
        return;
    started_ = true;
    stopping_ = false;
    t0_ = std::chrono::steady_clock::now();
    latest_ = {};
    thread_ = std::thread([this] { sampleLoop(); });
}

void
CampaignMonitor::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_ || stopping_)
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    sample(/*final_sample=*/true);
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
}

void
CampaignMonitor::sampleLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        const auto interval = std::chrono::duration<double>(
            config_.interval_s);
        if (cv_.wait_for(lock, interval, [this] { return stopping_; }))
            break;
        lock.unlock();
        sample(/*final_sample=*/false);
        lock.lock();
    }
}

void
CampaignMonitor::sample(bool final_sample)
{
    const CounterTotals now = totals();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0_)
            .count();

    TelemetrySnapshot snap;
    std::string line;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const TelemetrySnapshot &prev = latest_;
        snap.seq = prev.seq + 1;
        snap.final_sample = final_sample;
        snap.elapsed_s = elapsed;
        snap.totals = now;

        const double dt = elapsed - prev.elapsed_s;
        const uint64_t done = now.get(Counter::TrialsCompleted);
        const uint64_t prev_done =
            prev.totals.get(Counter::TrialsCompleted);
        snap.trials_per_sec =
            dt > 0.0 ? static_cast<double>(done - prev_done) / dt : 0.0;
        snap.trials_per_sec_ewma =
            prev.seq == 0
                ? snap.trials_per_sec
                : kRateAlpha * snap.trials_per_sec +
                      (1.0 - kRateAlpha) * prev.trials_per_sec_ewma;
        const uint64_t skipped = now.get(Counter::TrialsSkipped);
        if (config_.total_trials > done + skipped &&
            snap.trials_per_sec_ewma > 0.0)
            snap.eta_s = static_cast<double>(config_.total_trials -
                                             done - skipped) /
                         snap.trials_per_sec_ewma;
        latest_ = snap;
        if (!config_.heartbeat_path.empty())
            line = heartbeatLine(snap);
    }

    if (!line.empty()) {
        // Append + flush per line: a SIGKILLed sweep keeps every
        // completed sample. Opened per write so the path stays valid
        // even if the file is rotated away mid-campaign.
        if (std::FILE *f =
                std::fopen(config_.heartbeat_path.c_str(), "a")) {
            std::fwrite(line.data(), 1, line.size(), f);
            std::fclose(f);
        }
    }
    if (config_.on_sample)
        config_.on_sample(snap);
}

TelemetrySnapshot
CampaignMonitor::latest() const
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (latest_.seq > 0)
            return latest_;
    }
    // No sample yet: serve live totals so early scrapes see zeroes
    // rather than stale garbage.
    TelemetrySnapshot snap;
    snap.totals = totals();
    return snap;
}

trace::MetricsSnapshot
CampaignMonitor::metricsSnapshot() const
{
    const TelemetrySnapshot snap = latest();
    trace::MetricsSnapshot out;
    for (unsigned i = 0; i < kCounterCount; ++i)
        out.counters[std::string("telemetry.") +
                     counterName(static_cast<Counter>(i))] =
            static_cast<double>(snap.totals.v[i]);
    out.counters["telemetry.heartbeats"] =
        static_cast<double>(snap.seq);
    out.gauges["telemetry.elapsed_seconds"] = snap.elapsed_s;
    out.gauges["telemetry.trials_total"] =
        static_cast<double>(config_.total_trials);
    out.gauges["telemetry.trials_per_second"] = snap.trials_per_sec;
    out.gauges["telemetry.trials_per_second_ewma"] =
        snap.trials_per_sec_ewma;
    out.gauges["telemetry.eta_seconds"] = snap.eta_s;
    return out;
}

std::string
CampaignMonitor::progressJson() const
{
    const TelemetrySnapshot snap = latest();
    const uint64_t done = snap.totals.get(Counter::TrialsCompleted);
    const uint64_t skipped = snap.totals.get(Counter::TrialsSkipped);
    const uint64_t total = config_.total_trials;

    std::string out = "{";
    out += "\"total\": " + std::to_string(total);
    out += ", \"done\": " + std::to_string(done);
    out += ", \"started\": " +
           std::to_string(snap.totals.get(Counter::TrialsStarted));
    out += ", \"won\": " +
           std::to_string(snap.totals.get(Counter::TrialsWon));
    out += ", \"failed\": " +
           std::to_string(snap.totals.get(Counter::TrialsFailed));
    out += ", \"skipped\": " + std::to_string(skipped);
    out += ", \"complete\": " +
           trace::jsonNumber(
               total > 0 ? static_cast<double>(done + skipped) /
                               static_cast<double>(total)
                         : 0.0);
    out += ", \"elapsed_s\": " + trace::jsonNumber(snap.elapsed_s);
    out += ", \"trials_per_sec\": " +
           trace::jsonNumber(snap.trials_per_sec);
    out += ", \"trials_per_sec_ewma\": " +
           trace::jsonNumber(snap.trials_per_sec_ewma);
    out += ", \"eta_s\": " + trace::jsonNumber(snap.eta_s);
    out += ", \"axes\": [";
    const std::vector<uint64_t> pos =
        axisPositions(config_.axes, done + skipped, total);
    for (size_t i = 0; i < config_.axes.size(); ++i) {
        const AxisDesc &axis = config_.axes[i];
        out += i ? ", {" : "{";
        out += "\"name\": " + trace::jsonQuote(axis.name);
        out += ", \"size\": " + std::to_string(axis.size);
        out += ", \"position\": " + std::to_string(pos[i]);
        out += ", \"complete\": " +
               trace::jsonNumber(
                   axis.size > 0 ? static_cast<double>(pos[i]) /
                                       static_cast<double>(axis.size)
                                 : 0.0);
        out += "}";
    }
    out += "]}\n";
    return out;
}

std::string
CampaignMonitor::heartbeatLine(const TelemetrySnapshot &snap) const
{
    // Field blocks are segregated by provenance: `campaign` is the
    // deterministic sweep identity, `progress`/`counters` depend on
    // scheduling but not on the clock, `wall` is wall-clock only.
    std::string out = "{\"schema\": \"voltboot-heartbeat-v1\"";
    out += ", \"seq\": " + std::to_string(snap.seq);
    out += std::string(", \"final\": ") +
           (snap.final_sample ? "true" : "false");
    out += ", \"campaign\": {\"seed\": " +
           std::to_string(config_.campaign_seed);
    out += ", \"grid\": " + trace::jsonQuote(config_.grid_spec);
    out += ", \"total_trials\": " +
           std::to_string(config_.total_trials) + "}";
    out += ", \"progress\": {\"started\": " +
           std::to_string(snap.totals.get(Counter::TrialsStarted));
    out += ", \"completed\": " +
           std::to_string(snap.totals.get(Counter::TrialsCompleted));
    out += ", \"won\": " +
           std::to_string(snap.totals.get(Counter::TrialsWon));
    out += ", \"failed\": " +
           std::to_string(snap.totals.get(Counter::TrialsFailed));
    out += ", \"skipped\": " +
           std::to_string(snap.totals.get(Counter::TrialsSkipped)) +
           "}";
    out += ", \"counters\": {";
    for (unsigned i = 0; i < kCounterCount; ++i) {
        if (i)
            out += ", ";
        out += std::string("\"") +
               counterName(static_cast<Counter>(i)) +
               "\": " + std::to_string(snap.totals.v[i]);
    }
    out += "}";
    out += ", \"wall\": {\"unix_ms\": " + std::to_string(unixMillis());
    out += ", \"elapsed_s\": " + trace::jsonNumber(snap.elapsed_s);
    out += ", \"trials_per_sec\": " +
           trace::jsonNumber(snap.trials_per_sec);
    out += ", \"trials_per_sec_ewma\": " +
           trace::jsonNumber(snap.trials_per_sec_ewma);
    out += ", \"eta_s\": " + trace::jsonNumber(snap.eta_s) + "}}\n";
    return out;
}

void
addPhaseHistograms(trace::MetricsSnapshot &out,
                   const std::vector<std::array<double, kPhaseCount>> &runs)
{
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        std::vector<double> samples;
        for (const std::array<double, kPhaseCount> &run : runs)
            if (run[p] > 0.0)
                samples.push_back(run[p]);
        if (!samples.empty())
            out.histograms[std::string("core.wall_s.") +
                           phaseName(static_cast<Phase>(p))] =
                trace::summarize(std::move(samples));
    }
}

} // namespace telemetry
} // namespace voltboot
