/**
 * @file
 * Structured campaign results.
 *
 * Every trial produces one TrialRecord (campaign/schema.hh) — parameters
 * echoed back, a status, and the extraction metrics the paper reports
 * (retention accuracy / bit-error rate, key-recovery outcome). A
 * CampaignResult is the ordered vector of records (indexed by trial
 * index, so the layout is schedule-independent) plus merged summaries,
 * and renders to JSON and CSV, one kRecordFields field per key/column.
 *
 * The canonical JSON/CSV output is bit-identical for a given
 * (grid, campaign seed) regardless of worker count: wall-clock
 * measurements are segregated into an optional "timing" section that is
 * omitted by default.
 */

#ifndef VOLTBOOT_CAMPAIGN_CAMPAIGN_RESULT_HH
#define VOLTBOOT_CAMPAIGN_CAMPAIGN_RESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/sweep_grid.hh"
#include "sim/stats.hh"
#include "trace/metrics.hh"

namespace voltboot
{

/** Quote @p field per RFC 4180 when it contains a comma, quote, or
 * newline (embedded quotes doubled); otherwise returned unchanged. */
std::string csvEscape(const std::string &field);

/** Split one CSV row (without its trailing newline) into unescaped
 * fields — the inverse of the quoting csvEscape() applies. */
std::vector<std::string> splitCsvRow(const std::string &line);

/** Merged per-campaign statistics. */
struct CampaignSummary
{
    uint64_t trials = 0;
    uint64_t ok = 0;
    uint64_t attack_failed = 0;
    uint64_t errors = 0;
    uint64_t skipped = 0;

    RunningStats accuracy;       ///< Over Ok trials.
    RunningStats bit_error_rate; ///< Over Ok trials.
    uint64_t keys_planted = 0;
    uint64_t keys_found = 0;
    uint64_t keys_exact = 0;

    /** Attack success = Ok trials that booted attacker code. */
    uint64_t booted = 0;

    /** One attack family's trials, and its tally's successes summed
     * over them (see AttackFamily in campaign/trial_runner.hh). */
    struct FamilyCount
    {
        uint64_t trials = 0;
        uint64_t successes = 0;
    };
    std::array<FamilyCount, std::size(kAttackNames)> families{};

    const FamilyCount &
    family(AttackKind kind) const
    {
        return families[static_cast<size_t>(kind)];
    }
};

/** Everything a campaign produced. */
struct CampaignResult
{
    uint64_t campaign_seed = 0;
    std::string grid_spec; ///< Canonical SweepGrid::describe().
    /** One record per trial, at its trial index. */
    std::vector<TrialRecord> records;

    /** Wall-clock of the whole run (timing only). */
    double wall_seconds = 0.0;
    unsigned jobs = 1;

    /** Engine metrics captured at the end of the run: worker-queue
     * counters and the per-trial wall-clock histogram (count, mean,
     * p50/p90/p99). Wall-clock derived, so rendered only inside the
     * opt-in timing section of toJson(). */
    trace::MetricsSnapshot metrics;

    CampaignSummary summary() const;

    /** Trials per second over the whole campaign. */
    double
    trialsPerSecond() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(records.size()) / wall_seconds
                   : 0.0;
    }

    /**
     * Render to JSON. With @p include_timing false (the default) the
     * output is a pure function of (grid, campaign seed) — byte-equal
     * across job counts and machines.
     */
    std::string toJson(bool include_timing = false) const;

    /** Render to CSV (one record per row; canonical, no timing). */
    std::string toCsv() const;

    /** Write @p content to @p path; fatal() on I/O failure. */
    static void writeFile(const std::string &path,
                          const std::string &content);
};

} // namespace voltboot

#endif // VOLTBOOT_CAMPAIGN_CAMPAIGN_RESULT_HH
