#include "campaign/campaign.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "report/report.hh"
#include "telemetry/counters.hh"
#include "telemetry/monitor.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace voltboot
{

namespace
{

/**
 * The engine's timing metrics, built from the finished records: exact
 * histograms of trial wall time and of each phase's per-trial total,
 * plus the pool's shape.
 */
trace::MetricsSnapshot
timingMetrics(const std::vector<TrialRecord> &records, unsigned jobs,
              uint64_t chunk)
{
    std::vector<double> trial_wall;
    std::vector<std::array<double, telemetry::kPhaseCount>> phase_wall;
    for (const TrialRecord &rec : records) {
        if (rec.status == TrialStatus::Skipped)
            continue;
        trial_wall.push_back(rec.duration_s);
        phase_wall.push_back(rec.phase_wall_s);
    }

    trace::MetricsSnapshot m;
    m.gauges["campaign.jobs"] = static_cast<double>(jobs);
    m.gauges["campaign.chunk"] = static_cast<double>(chunk);
    // Every grab of the chunked cursor below the total hands out work.
    const uint64_t n = records.size();
    m.counters["campaign.queue_grabs"] =
        static_cast<double>(n / chunk + (n % chunk != 0));
    if (!trial_wall.empty())
        m.histograms["campaign.trial_wall_s"] =
            trace::summarize(std::move(trial_wall));
    telemetry::addPhaseHistograms(m, phase_wall);
    return m;
}

} // namespace

Campaign::Campaign(SweepGrid grid, CampaignConfig config)
    : grid_(std::move(grid)), config_(std::move(config))
{
    if (!config_.runner)
        config_.runner = [](const TrialSpec &spec, uint64_t seed) {
            return runTrial(spec, seed);
        };
}

CampaignResult
Campaign::run()
{
    using clock = std::chrono::steady_clock;

    const uint64_t total = grid_.size();
    unsigned jobs = config_.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(
        std::min<uint64_t>(jobs, std::max<uint64_t>(total, 1)));

    CampaignResult result;
    result.campaign_seed = config_.seed;
    result.grid_spec = grid_.describe();
    result.jobs = jobs;
    result.records.resize(total);

    // Small chunks keep the pool balanced when per-trial cost varies
    // wildly across the grid (e.g. imx53 iRAM vs pi4 register trials);
    // the atomic grab is nanoseconds against millisecond trials.
    uint64_t chunk = config_.chunk;
    if (chunk == 0)
        chunk = std::max<uint64_t>(
            1, total / (static_cast<uint64_t>(jobs) * 8));

    const bool tracing = !config_.trace_dir.empty();
    if (tracing)
        std::filesystem::create_directories(config_.trace_dir);

    std::atomic<uint64_t> cursor{0};
    const auto t0 = clock::now();

    auto elapsedSince = [](clock::time_point start) {
        return std::chrono::duration<double>(clock::now() - start)
            .count();
    };

    auto worker = [&]() {
        // Every hot-path counter this worker touches lands in its own
        // cache-line-padded block; the telemetry monitor sums them.
        telemetry::WorkerScope telemetry_scope;
        for (;;) {
            const uint64_t begin = cursor.fetch_add(chunk);
            if (begin >= total)
                break;
            const uint64_t end = std::min(begin + chunk, total);
            for (uint64_t i = begin; i < end; ++i) {
                TrialRecord rec;
                if (aborted()) {
                    rec.spec = grid_.at(i);
                    rec.status = TrialStatus::Skipped;
                    rec.detail = "campaign aborted";
                    telemetry::add(telemetry::Counter::TrialsSkipped);
                } else {
                    telemetry::add(telemetry::Counter::TrialsStarted);
                    const auto start = clock::now();
                    const telemetry::PhaseTimes phases_before =
                        telemetry::tl_phase_times;
                    trace::MemoryTraceSink sink;
                    {
                        // The Scope resets this thread's sim clock, so
                        // each trial's trace starts its own timeline;
                        // the Span's Complete event closes (and lands
                        // in the sink) before the Scope uninstalls it.
                        std::optional<trace::Scope> scope;
                        std::optional<trace::Span> span;
                        if (tracing) {
                            scope.emplace(sink);
                            span.emplace("campaign", "trial");
                        }
                        try {
                            rec = config_.runner(grid_.at(i),
                                                 config_.seed);
                        } catch (const std::exception &e) {
                            rec = TrialRecord{};
                            rec.spec = grid_.at(i);
                            rec.status = TrialStatus::Error;
                            rec.detail = e.what();
                        } catch (...) {
                            rec = TrialRecord{};
                            rec.spec = grid_.at(i);
                            rec.status = TrialStatus::Error;
                            rec.detail = "unknown exception";
                        }
                        if (span) {
                            span->arg({"index", i});
                            span->arg({"board", rec.spec.board});
                            span->arg({"target",
                                       toString(rec.spec.target)});
                            span->arg({"attack",
                                       toString(rec.spec.attack)});
                            span->arg({"status",
                                       toString(rec.status)});
                        }
                    }
                    rec.duration_s = elapsedSince(start);
                    rec.phase_wall_s =
                        telemetry::phaseSecondsSince(phases_before);
                    if (tracing)
                        CampaignResult::writeFile(
                            report::trialTracePath(config_.trace_dir, i),
                            trace::toJsonl(sink.events()));
                    if (config_.trial_timeout.seconds() > 0.0 &&
                        rec.duration_s >
                            config_.trial_timeout.seconds()) {
                        rec.timed_out = true;
                        if (config_.abort_on_timeout)
                            requestAbort();
                    }
                    telemetry::add(telemetry::Counter::TrialsCompleted);
                    if (rec.status == TrialStatus::Ok)
                        telemetry::add(telemetry::Counter::TrialsWon);
                    else if (rec.status == TrialStatus::Error ||
                             rec.status == TrialStatus::AttackFailed)
                        telemetry::add(telemetry::Counter::TrialsFailed);
                }
                result.records[i] = std::move(rec);
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    result.wall_seconds = elapsedSince(t0);
    result.metrics = timingMetrics(result.records, jobs, chunk);
    return result;
}

} // namespace voltboot
