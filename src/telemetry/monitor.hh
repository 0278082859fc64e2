/**
 * @file
 * The campaign telemetry monitor: a sampler thread that aggregates the
 * lock-free worker counters into periodic snapshots, derives the
 * progress model (trial rate, EWMA, ETA, per-axis grid completion),
 * appends the heartbeat JSONL stream, hands mutex-guarded copies to
 * the /metrics + /progress endpoints, and passes each sample to an
 * optional callback (the CLI's progress line).
 *
 * Layering: the monitor knows nothing about Campaign or SweepGrid —
 * the caller describes the sweep as a total trial count plus an
 * ordered list of (axis name, size) pairs, slowest-varying first, the
 * same enumeration contract SweepGrid::at() documents. That keeps
 * voltboot_telemetry below voltboot_campaign in the library graph, so
 * future runners (the daemon mode of ROADMAP.md) can reuse it.
 *
 * Determinism contract: everything here is wall-clock derived and
 * **non-canonical** — heartbeats, /metrics and /progress never feed
 * back into trace files or campaign JSON/CSV. Heartbeat lines keep the
 * deterministic campaign identity fields (seed, grid, totals from the
 * counter deltas) separate from the wall-clock block (`wall`), so a
 * consumer diffing two runs can ignore the latter wholesale. Schema:
 * docs/TELEMETRY.md.
 */

#ifndef VOLTBOOT_TELEMETRY_MONITOR_HH
#define VOLTBOOT_TELEMETRY_MONITOR_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/counters.hh"
#include "trace/metrics.hh"

namespace voltboot
{
namespace telemetry
{

/** One sweep axis as the monitor sees it: a name and its length, in
 * slowest-varying-first enumeration order. */
struct AxisDesc
{
    std::string name;
    uint64_t size = 1;
};

/** One aggregated sample of the campaign's counters + rate model. */
struct TelemetrySnapshot
{
    uint64_t seq = 0;        ///< Sample number, starting at 1.
    bool final_sample = false; ///< Emitted by stop(), not the timer.
    double elapsed_s = 0.0;  ///< Wall seconds since start().
    CounterTotals totals;    ///< Relaxed sum over every worker block.
    double trials_per_sec = 0.0;      ///< Rate over the last interval.
    double trials_per_sec_ewma = 0.0; ///< Smoothed rate.
    double eta_s = 0.0; ///< Remaining / EWMA; 0 when unknowable.
};

/** Monitor knobs. */
struct MonitorConfig
{
    /** Seconds between samples (heartbeat lines, snapshot refresh). */
    double interval_s = 1.0;
    /** Total trials of the sweep (0 = unknown; no ETA / axes). */
    uint64_t total_trials = 0;
    /** Campaign identity echoed into every heartbeat line. */
    uint64_t campaign_seed = 0;
    std::string grid_spec;
    /** Axes, slowest-varying first (SweepGrid enumeration order). */
    std::vector<AxisDesc> axes;
    /** Append one heartbeat JSONL line per sample; empty = off. */
    std::string heartbeat_path;
    /** Called with every sample, the final one included: from the
     * sampler thread, then from the thread calling stop(). Calls never
     * overlap. Unset = off. */
    std::function<void(const TelemetrySnapshot &)> on_sample;
};

/**
 * The sampler. start() launches the thread; stop() (or destruction)
 * takes one final sample — flushing the last heartbeat line with
 * `"final": true` — and joins. All accessors are safe from any
 * thread.
 */
class CampaignMonitor
{
  public:
    explicit CampaignMonitor(MonitorConfig config);
    ~CampaignMonitor();
    CampaignMonitor(const CampaignMonitor &) = delete;
    CampaignMonitor &operator=(const CampaignMonitor &) = delete;

    void start();
    /** Final sample + heartbeat, then join. Idempotent. */
    void stop();

    /** Copy of the most recent sample (or a fresh sample when none
     * has been taken yet). */
    TelemetrySnapshot latest() const;

    /**
     * The latest sample as a metrics snapshot — counters
     * named `telemetry.<counter>`, the rate model as gauges — which
     * report::toPrometheus renders directly; this is the /metrics
     * payload.
     */
    trace::MetricsSnapshot metricsSnapshot() const;

    /** The /progress JSON document: counts, rate model, ETA, and
     * per-axis grid position/completion. */
    std::string progressJson() const;

    /** One heartbeat line for @p snap (exposed for tests). */
    std::string heartbeatLine(const TelemetrySnapshot &snap) const;

    const MonitorConfig &config() const { return config_; }

  private:
    void sampleLoop();
    /** Take a sample, update the rate model, append the heartbeat,
     * then hand the sample to on_sample. */
    void sample(bool final_sample);

    MonitorConfig config_;
    std::thread thread_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    bool started_ = false;
    std::chrono::steady_clock::time_point t0_;
    TelemetrySnapshot latest_;
};

/** Add to @p out one exact `core.wall_s.<phase>` histogram per phase:
 * one sample per run in @p runs that entered it (its seconds there). */
void addPhaseHistograms(
    trace::MetricsSnapshot &out,
    const std::vector<std::array<double, kPhaseCount>> &runs);

} // namespace telemetry
} // namespace voltboot

#endif // VOLTBOOT_TELEMETRY_MONITOR_HH
