#include "report/campaign_json.hh"

#include <fstream>
#include <optional>
#include <sstream>
#include <type_traits>
#include <variant>

#include "report/json.hh"
#include "sim/logging.hh"

namespace voltboot
{
namespace report
{

namespace
{

[[noreturn]] void
schemaFail(const std::string &source, const JsonValue &at,
           const std::string &detail)
{
    throw JsonParseError(source, at.line, at.column, detail);
}

/** Check that @p v (the value of @p key) is of @p kind. */
const JsonValue &
ofKind(const JsonValue &v, const char *key, JsonValue::Kind kind,
       const std::string &source)
{
    if (v.kind != kind)
        schemaFail(source, v,
                   std::string("key \"") + key + "\" must be a " +
                       JsonValue::kindName(kind) + ", got " +
                       JsonValue::kindName(v.kind));
    return v;
}

const JsonValue &
required(const JsonValue &object, const char *key,
         const std::string &source)
{
    const JsonValue *v = object.find(key);
    if (v == nullptr)
        schemaFail(source, object,
                   std::string("missing required key \"") + key + "\"");
    return *v;
}

const JsonValue &
member(const JsonValue &object, const char *key, JsonValue::Kind kind,
       const std::string &source)
{
    return ofKind(required(object, key, source), key, kind, source);
}

/** @p v, the value of @p key, read as a @p T: unsigned integers
 * exactly from their source text, enums by name. */
template <class T>
T
read(const JsonValue &v, const char *key, const std::string &source)
{
    using Kind = JsonValue::Kind;
    const Kind kind = std::is_same_v<T, bool>   ? Kind::Bool
                      : std::is_arithmetic_v<T> ? Kind::Number
                                                : Kind::String;
    ofKind(v, key, kind, source);
    if constexpr (std::is_same_v<T, uint64_t>) {
        if (const std::optional<uint64_t> u = v.asUint64())
            return *u;
        schemaFail(source, v,
                   std::string("key \"") + key +
                       "\" must be an unsigned integer, got " + v.text);
    } else if constexpr (std::is_same_v<T, double>) {
        return v.number;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v.boolean;
    } else if constexpr (std::is_same_v<T, std::string>) {
        return v.text;
    } else {
        if (const std::optional<T> e = enumFromName<T>(v.text))
            return *e;
        schemaFail(source, v,
                   std::string("unknown ") + key + " \"" + v.text +
                       "\" (" + enumNameList<T>() + ")");
    }
}

/** Required key @p key of @p object, read as a @p T. */
template <class T>
T
get(const JsonValue &object, const char *key, const std::string &source)
{
    return read<T>(required(object, key, source), key, source);
}

std::string
readFileOrFatal(const std::string &path, const char *what)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open ", what, " '", path, "'");
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

trace::MetricsSnapshot
parseMetrics(const JsonValue &obj, const std::string &source)
{
    trace::MetricsSnapshot snap;
    for (const auto &[name, value] :
         member(obj, "counters", JsonValue::Kind::Object, source)
             .members) {
        if (!value.isNumber())
            schemaFail(source, value, "counter values must be numbers");
        snap.counters[name] = value.number;
    }
    for (const auto &[name, value] :
         member(obj, "gauges", JsonValue::Kind::Object, source)
             .members) {
        if (!value.isNumber())
            schemaFail(source, value, "gauge values must be numbers");
        snap.gauges[name] = value.number;
    }
    for (const auto &[name, value] :
         member(obj, "histograms", JsonValue::Kind::Object, source)
             .members) {
        if (!value.isObject())
            schemaFail(source, value,
                       "histogram entries must be objects");
        trace::HistogramSummary h;
        h.count = get<uint64_t>(value, "count", source);
        h.mean = get<double>(value, "mean", source);
        h.min = get<double>(value, "min", source);
        h.max = get<double>(value, "max", source);
        h.p50 = get<double>(value, "p50", source);
        h.p90 = get<double>(value, "p90", source);
        h.p99 = get<double>(value, "p99", source);
        snap.histograms[name] = h;
    }
    return snap;
}

} // namespace

SweepDoc
parseSweepJson(std::string_view text, const std::string &source)
{
    const JsonValue doc = parseJson(text, source);
    if (!doc.isObject())
        schemaFail(source, doc, "campaign document must be an object");

    SweepDoc sweep;
    sweep.schema = get<std::string>(doc, "schema", source);
    if (sweep.schema != "voltboot-campaign-v1")
        schemaFail(source, *doc.find("schema"),
                   "unsupported schema \"" + sweep.schema +
                       "\" (expected voltboot-campaign-v1)");
    sweep.campaign_seed = get<uint64_t>(doc, "campaign_seed", source);
    sweep.grid = get<std::string>(doc, "grid", source);

    const JsonValue &records =
        member(doc, "records", JsonValue::Kind::Array, source);
    const uint64_t trials = get<uint64_t>(doc, "trials", source);
    if (trials != records.items.size())
        schemaFail(source, records,
                   "\"trials\" (" + std::to_string(trials) +
                       ") does not match the record count (" +
                       std::to_string(records.items.size()) + ")");

    sweep.records.reserve(records.items.size());
    for (const JsonValue &r : records.items) {
        if (!r.isObject())
            schemaFail(source, r, "records must be objects");
        TrialRecord rec;
        for (const RecordField &field : kRecordFields) {
            const JsonValue *v = field.since == Since::V1
                                     ? &required(r, field.name, source)
                                     : r.find(field.name);
            if (v != nullptr)
                std::visit(
                    [&]<class T>(T &(*ref)(TrialRecord &)) {
                        ref(rec) = read<T>(*v, field.name, source);
                    },
                    field.member);
        }
        sweep.records.push_back(std::move(rec));
    }

    if (const JsonValue *timing = doc.find("timing")) {
        if (!timing->isObject())
            schemaFail(source, *timing, "\"timing\" must be an object");
        sweep.has_timing = true;
        sweep.wall_seconds =
            get<double>(*timing, "wall_seconds", source);
        sweep.jobs = get<uint64_t>(*timing, "jobs", source);
        sweep.trials_per_second =
            get<double>(*timing, "trials_per_second", source);
        sweep.trials_timed_out =
            get<uint64_t>(*timing, "trials_timed_out", source);
        if (const JsonValue *metrics = timing->find("metrics"))
            sweep.metrics = parseMetrics(*metrics, source);
    }
    return sweep;
}

SweepDoc
readSweepFile(const std::string &path)
{
    return parseSweepJson(readFileOrFatal(path, "sweep result"), path);
}

} // namespace report
} // namespace voltboot
