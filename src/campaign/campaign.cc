#include "campaign/campaign.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "report/report.hh"
#include "telemetry/counters.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace voltboot
{

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

    // Engine metrics (queue behaviour, per-trial wall-clock). All
    // wall-clock derived, so they end up in CampaignResult::metrics and
    // only ever render inside the opt-in timing section.
    trace::Metrics metrics;
    metrics.set("campaign.jobs", static_cast<double>(jobs));
    metrics.set("campaign.chunk", static_cast<double>(chunk));

    std::atomic<uint64_t> cursor{0};
    std::atomic<uint64_t> done{0};
    std::mutex progress_mutex;
    // Wall time of the last progress report. The relaxed pre-check
    // keeps the common no-report path mutex-free; the real decision is
    // re-taken under progress_mutex.
    std::atomic<double> last_progress_s{0.0};
    const auto t0 = clock::now();

    auto elapsedSince = [](clock::time_point start) {
        return std::chrono::duration<double>(clock::now() - start)
            .count();
    };

    auto worker = [&]() {
        // Metrics is thread-safe; the registry is shared by all
        // workers. The trace sink below is per-trial, never shared.
        trace::MetricsScope metrics_scope(&metrics);
        // Every hot-path counter this worker touches lands in its own
        // cache-line-padded block; the telemetry monitor sums them.
        telemetry::WorkerScope telemetry_scope;
        for (;;) {
            const uint64_t begin = cursor.fetch_add(chunk);
            if (begin >= total)
                break;
            metrics.add("campaign.queue_grabs");
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
                    metrics.observe("campaign.trial_wall_s",
                                    rec.duration_s);
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

                const uint64_t d =
                    done.fetch_add(1, std::memory_order_relaxed) + 1;
                if (config_.progress) {
                    const double interval =
                        config_.progress_interval.seconds();
                    const bool count_due =
                        d % std::max<uint64_t>(
                                1, config_.progress_every) == 0 ||
                        d == total;
                    const bool maybe_time_due =
                        interval > 0.0 &&
                        elapsedSince(t0) -
                                last_progress_s.load(
                                    std::memory_order_relaxed) >=
                            interval;
                    if (count_due || maybe_time_due) {
                        std::lock_guard<std::mutex> lock(progress_mutex);
                        const double now_s = elapsedSince(t0);
                        const bool time_due =
                            interval > 0.0 &&
                            now_s - last_progress_s.load(
                                        std::memory_order_relaxed) >=
                                interval;
                        if (count_due || time_due) {
                            last_progress_s.store(
                                now_s, std::memory_order_relaxed);
                            CampaignProgress p;
                            p.done = d;
                            p.total = total;
                            p.elapsed_s = now_s;
                            p.trials_per_sec =
                                p.elapsed_s > 0.0
                                    ? static_cast<double>(d) /
                                          p.elapsed_s
                                    : 0.0;
                            p.eta_s =
                                p.trials_per_sec > 0.0
                                    ? static_cast<double>(total - d) /
                                          p.trials_per_sec
                                    : 0.0;
                            config_.progress(p);
                        }
                    }
                }
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
    result.metrics = metrics.snapshot();
    return result;
}

} // namespace voltboot
