#include "campaign/campaign_result.hh"

#include <fstream>

#include "campaign/trial_runner.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace voltboot
{

CampaignSummary
CampaignResult::summary() const
{
    CampaignSummary s;
    s.trials = records.size();
    for (const TrialRecord &r : records) {
        switch (r.status) {
          case TrialStatus::Ok:
            ++s.ok;
            s.accuracy.add(r.accuracy);
            s.bit_error_rate.add(r.bit_error_rate);
            break;
          case TrialStatus::AttackFailed:
            ++s.attack_failed;
            break;
          case TrialStatus::Error:
            ++s.errors;
            break;
          case TrialStatus::Skipped:
            ++s.skipped;
            break;
        }
        s.booted += r.booted;
        s.keys_planted += r.key_planted;
        s.keys_found += r.key_found;
        s.keys_exact += r.key_exact;
        const AttackFamily &family = attackFamily(r.spec.attack);
        auto &count = s.families[static_cast<size_t>(family.kind)];
        ++count.trials;
        if (family.successes)
            count.successes += family.successes(r);
    }
    return s;
}

std::string
csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string out = "\"";
    for (const char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::vector<std::string>
splitCsvRow(const std::string &line)
{
    std::vector<std::string> fields;
    std::string cur;
    bool quoted = false;
    for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"' && cur.empty()) {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(std::move(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    fields.push_back(std::move(cur));
    return fields;
}

std::string
CampaignResult::toJson(bool include_timing) const
{
    const CampaignSummary s = summary();
    std::string out;
    out.reserve(256 + records.size() * 320);
    out += "{\n";
    out += "  \"schema\": \"voltboot-campaign-v1\",\n";
    out += "  \"campaign_seed\": " + std::to_string(campaign_seed) + ",\n";
    out += "  \"grid\": " + trace::jsonQuote(grid_spec) + ",\n";
    out += "  \"trials\": " + std::to_string(s.trials) + ",\n";
    out += "  \"summary\": {\n";
    std::vector<std::pair<const char *, FieldValue>> totals = {
        {"ok", s.ok},
        {"attack_failed", s.attack_failed},
        {"errors", s.errors},
        {"skipped", s.skipped},
        {"booted", s.booted},
        {"mean_accuracy", s.accuracy.mean()},
        {"mean_bit_error_rate", s.bit_error_rate.mean()},
        {"keys_planted", s.keys_planted},
        {"keys_found", s.keys_found},
        {"keys_exact", s.keys_exact},
    };
    for (const AttackFamily &family : kAttackFamilies)
        if (family.trials_key) {
            const auto &count = s.family(family.kind);
            totals.emplace_back(family.trials_key, count.trials);
            totals.emplace_back(family.successes_key, count.successes);
        }
    for (size_t i = 0; i < totals.size(); ++i)
        out += std::string("    \"") + totals[i].first +
               "\": " + jsonText(totals[i].second) +
               (i + 1 < totals.size() ? ",\n" : "\n");
    out += "  },\n";
    out += "  \"records\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
        for (const RecordField &field : kRecordFields) {
            out += &field == kRecordFields ? "    {\"" : ", \"";
            out += field.name;
            out += "\": " + jsonText(readMember(field.member, records[i]));
        }
        out += "}";
        out += (i + 1 < records.size()) ? ",\n" : "\n";
    }
    out += "  ]";
    if (include_timing) {
        out += ",\n  \"timing\": {\n";
        out += "    \"wall_seconds\": " + trace::jsonNumber(wall_seconds) +
               ",\n";
        out += "    \"jobs\": " + std::to_string(jobs) + ",\n";
        out += "    \"trials_per_second\": " +
               trace::jsonNumber(trialsPerSecond()) + ",\n";
        uint64_t timed_out = 0;
        for (const TrialRecord &r : records)
            timed_out += r.timed_out;
        out += "    \"trials_timed_out\": " + std::to_string(timed_out);
        if (!metrics.empty())
            out += ",\n    \"metrics\": " + metrics.toJson(4);
        out += "\n  }";
    }
    out += "\n}\n";
    return out;
}

std::string
CampaignResult::toCsv() const
{
    // Table order, with the csv_last column moved to the end.
    std::vector<const RecordField *> columns;
    for (const bool last : {false, true})
        for (const RecordField &field : kRecordFields)
            if (field.csv_last == last)
                columns.push_back(&field);
    std::string out;
    for (const RecordField *field : columns)
        out += std::string(field == columns.front() ? "" : ",") +
               field->name;
    out += '\n';
    for (const TrialRecord &r : records) {
        // Free-text cells (effect lists join with commas, failure
        // details may say anything) are RFC 4180 quoted, so each trial
        // stays one row and round-trips through splitCsvRow().
        for (const RecordField *field : columns)
            out += std::string(field == columns.front() ? "" : ",") +
                   csvEscape(plainText(readMember(field->member, r)));
        out += '\n';
    }
    return out;
}

void
CampaignResult::writeFile(const std::string &path,
                          const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    out << content;
    if (!out)
        fatal("write to '", path, "' failed");
}

} // namespace voltboot
