#include "report/heartbeat.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "report/json.hh"
#include "sim/logging.hh"

namespace voltboot
{
namespace report
{

namespace
{

double
numberOr(const JsonValue *v, double fallback)
{
    return v && v->isNumber() ? v->number : fallback;
}

uint64_t
countOr(const JsonValue *v, uint64_t fallback)
{
    return v ? v->asUint64().value_or(fallback) : fallback;
}

/** Parse one heartbeat line; false when it is not a heartbeat. */
bool
parseHeartbeatLine(const std::string &line, const std::string &source,
                   size_t line_no, Heartbeat *out)
{
    JsonValue v;
    try {
        v = parseJson(line, source, line_no);
    } catch (const JsonParseError &) {
        return false; // torn tail write or foreign line
    }
    const JsonValue *schema = v.find("schema");
    if (!schema || !schema->isString() ||
        schema->text != "voltboot-heartbeat-v1")
        return false;

    Heartbeat hb;
    hb.seq = countOr(v.find("seq"), 0);
    if (const JsonValue *f = v.find("final"); f && f->isBool())
        hb.final_sample = f->boolean;
    if (const JsonValue *c = v.find("campaign"); c && c->isObject()) {
        hb.campaign_seed = countOr(c->find("seed"), 0);
        if (const JsonValue *g = c->find("grid"); g && g->isString())
            hb.grid_spec = g->text;
        hb.total_trials = countOr(c->find("total_trials"), 0);
    }
    if (const JsonValue *p = v.find("progress"); p && p->isObject()) {
        hb.started = countOr(p->find("started"), 0);
        hb.completed = countOr(p->find("completed"), 0);
        hb.won = countOr(p->find("won"), 0);
        hb.failed = countOr(p->find("failed"), 0);
        hb.skipped = countOr(p->find("skipped"), 0);
    }
    if (const JsonValue *c = v.find("counters"); c && c->isObject())
        for (const auto &[name, value] : c->members)
            if (const auto count = value.asUint64())
                hb.counters[name] = *count;
    if (const JsonValue *w = v.find("wall"); w && w->isObject()) {
        hb.unix_ms = countOr(w->find("unix_ms"), 0);
        hb.elapsed_s = numberOr(w->find("elapsed_s"), 0.0);
        hb.trials_per_sec = numberOr(w->find("trials_per_sec"), 0.0);
        hb.trials_per_sec_ewma =
            numberOr(w->find("trials_per_sec_ewma"), 0.0);
        hb.eta_s = numberOr(w->find("eta_s"), 0.0);
    }
    *out = std::move(hb);
    return true;
}

std::string
fmtRate(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

} // namespace

std::vector<Heartbeat>
readHeartbeats(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open heartbeat stream '", path, "'");
    std::vector<Heartbeat> beats;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        Heartbeat hb;
        if (parseHeartbeatLine(line, path, line_no, &hb))
            beats.push_back(std::move(hb));
    }
    return beats;
}

std::string
renderHeartbeatSummary(const std::vector<Heartbeat> &beats)
{
    if (beats.empty())
        return "";
    const Heartbeat &last = beats.back();
    double peak = 0.0;
    for (const Heartbeat &hb : beats)
        peak = std::max(peak, hb.trials_per_sec);

    std::ostringstream out;
    out << "Heartbeat stream: " << beats.size() << " sample"
        << (beats.size() == 1 ? "" : "s") << " over "
        << fmtRate(last.elapsed_s) << " s ("
        << (last.final_sample ? "clean shutdown"
                              : "no final sample — interrupted run")
        << ").\n\n";
    out << "| sample | trials done | rate (trials/s) | EWMA | ETA (s) "
           "|\n";
    out << "|---|---:|---:|---:|---:|\n";
    auto row = [&](const char *tag, const Heartbeat &hb) {
        out << "| " << tag << " (seq " << hb.seq << ") | "
            << hb.completed + hb.skipped << "/" << hb.total_trials
            << " | " << fmtRate(hb.trials_per_sec) << " | "
            << fmtRate(hb.trials_per_sec_ewma) << " | "
            << fmtRate(hb.eta_s) << " |\n";
    };
    row("first", beats.front());
    if (beats.size() > 2)
        row("mid", beats[beats.size() / 2]);
    if (beats.size() > 1)
        row("last", last);
    out << "\nPeak sampled rate: " << fmtRate(peak) << " trials/s.\n";
    return out.str();
}

} // namespace report
} // namespace voltboot
