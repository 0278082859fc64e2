/**
 * @file
 * Parser for the campaign result JSON (`CampaignResult::toJson`),
 * feeding the report generator.
 *
 * Loading a sweep back through this reader is the inverse of
 * `CampaignResult::toJson()`: every record field in kRecordFields
 * always, and the opt-in `timing` section (wall clock, throughput,
 * metrics snapshot) when the sweep was run with `--timing`. Schema
 * violations — missing required keys, wrong kinds, unknown enum
 * spellings, unsigned values that are fractional, negative or out of
 * range — are reported as JsonParseError with the offending value's
 * line/column, same as the trace reader.
 */

#ifndef VOLTBOOT_REPORT_CAMPAIGN_JSON_HH
#define VOLTBOOT_REPORT_CAMPAIGN_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/schema.hh"
#include "trace/metrics.hh"

namespace voltboot
{
namespace report
{

/** A whole sweep document. */
struct SweepDoc
{
    std::string schema; ///< "voltboot-campaign-v1"
    uint64_t campaign_seed = 0;
    std::string grid;
    /** The records, filled through kRecordFields: fields a record
     * lacks (sweeps written before they existed) keep their defaults;
     * timing-only members and spec.plant_key stay default. */
    std::vector<TrialRecord> records;

    /** Opt-in timing section (non-canonical); valid iff has_timing. */
    bool has_timing = false;
    double wall_seconds = 0.0;
    uint64_t jobs = 0;
    double trials_per_second = 0.0;
    uint64_t trials_timed_out = 0;
    trace::MetricsSnapshot metrics;
};

/** Parse a campaign result document; throws JsonParseError. */
SweepDoc parseSweepJson(std::string_view text,
                        const std::string &source = "<string>");

/** Load and parse a sweep JSON file; fatal() if unreadable. */
SweepDoc readSweepFile(const std::string &path);

} // namespace report
} // namespace voltboot

#endif // VOLTBOOT_REPORT_CAMPAIGN_JSON_HH
