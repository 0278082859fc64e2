#include "trace/trace.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "sim/logging.hh"

namespace voltboot
{
namespace trace
{

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    if (ec != std::errc())
        panic("trace::jsonNumber: to_chars failed");
    return {buf, ptr};
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

const char *
phaseLetter(Phase phase)
{
    switch (phase) {
      case Phase::Instant: return "i";
      case Phase::Complete: return "X";
      case Phase::Counter: return "C";
    }
    panic("bad trace::Phase");
}

namespace
{

/**
 * Microsecond timestamps as JSON. Whole microseconds render as plain
 * integers (shortest-round-trip would pick "5e+05" over "500000");
 * fractional values fall back to jsonNumber.
 */
std::string
jsonMicros(double us)
{
    constexpr double exact = 9007199254740992.0; // 2^53
    if (std::isfinite(us) && us == std::floor(us) && std::fabs(us) < exact)
        return std::to_string(static_cast<long long>(us));
    return jsonNumber(us);
}

void
appendArgsObject(std::string &out, const std::vector<Arg> &args)
{
    out += "{";
    for (size_t i = 0; i < args.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(args[i].key) + ": " + args[i].json;
    }
    out += "}";
}

/** The rendered value of @p event's first argument named @p key. */
const std::string *
argJson(const TraceEvent &event, std::string_view key)
{
    for (const Arg &arg : event.args)
        if (arg.key == key)
            return &arg.json;
    return nullptr;
}

} // namespace

std::optional<double>
argNumber(const TraceEvent &event, std::string_view key)
{
    const std::string *j = argJson(event, key);
    if (!j)
        return std::nullopt;
    const char *end = j->data() + j->size();
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(j->data(), end, v);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

std::optional<std::string>
argString(const TraceEvent &event, std::string_view key)
{
    const std::string *j = argJson(event, key);
    if (!j || j->size() < 2 || j->front() != '"' || j->back() != '"' ||
        j->find('\\') != std::string::npos)
        return std::nullopt;
    return j->substr(1, j->size() - 2);
}

std::string
voltageCounter(std::string_view domain)
{
    return std::string(kVoltageCounterPrefix).append(domain);
}

std::optional<std::string_view>
voltageCounterDomain(std::string_view counter_name)
{
    if (!counter_name.starts_with(kVoltageCounterPrefix))
        return std::nullopt;
    return counter_name.substr(kVoltageCounterPrefix.size());
}

std::string
toJsonlLine(const TraceEvent &ev)
{
    std::string out = "{\"ts_us\": " + jsonMicros(ev.ts.microseconds());
    out += ", \"cat\": " + jsonQuote(ev.category);
    out += ", \"ph\": \"";
    out += phaseLetter(ev.phase);
    out += "\", \"name\": " + jsonQuote(ev.name);
    if (ev.phase == Phase::Complete)
        out += ", \"dur_us\": " + jsonMicros(ev.dur.microseconds());
    out += ", \"args\": ";
    appendArgsObject(out, ev.args);
    out += "}";
    return out;
}

std::string
toJsonl(std::span<const TraceEvent> events)
{
    std::string out;
    out.reserve(events.size() * 160);
    for (const TraceEvent &ev : events) {
        out += toJsonlLine(ev);
        out += '\n';
    }
    return out;
}

std::string
toChromeTrace(std::span<const TraceEvent> events)
{
    std::string out = "{\"traceEvents\": [\n";
    for (size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &ev = events[i];
        out += "  {\"name\": " + jsonQuote(ev.name);
        out += ", \"cat\": " + jsonQuote(ev.category);
        out += ", \"ph\": \"";
        out += phaseLetter(ev.phase);
        out += "\", \"ts\": " + jsonMicros(ev.ts.microseconds());
        if (ev.phase == Phase::Complete)
            out += ", \"dur\": " + jsonMicros(ev.dur.microseconds());
        // Process-scoped instants render as full-height vertical lines.
        if (ev.phase == Phase::Instant)
            out += ", \"s\": \"p\"";
        out += ", \"pid\": 0, \"tid\": 0, \"args\": ";
        appendArgsObject(out, ev.args);
        out += "}";
        out += (i + 1 < events.size()) ? ",\n" : "\n";
    }
    out += "], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

struct JsonlFileSink::Impl
{
    std::ofstream stream;
};

JsonlFileSink::JsonlFileSink(const std::string &path)
    : impl_(new Impl{std::ofstream(path, std::ios::binary)})
{
    if (!impl_->stream)
        fatal("JsonlFileSink: cannot open '", path, "' for writing");
}

JsonlFileSink::~JsonlFileSink()
{
    delete impl_;
}

void
JsonlFileSink::record(const TraceEvent &event)
{
    impl_->stream << toJsonlLine(event) << '\n';
}

void
JsonlFileSink::flush()
{
    impl_->stream.flush();
}

namespace
{

struct ThreadTracer
{
    TraceSink *sink = nullptr;
    Seconds sim_now{0.0};
};

ThreadTracer &
tracer()
{
    thread_local ThreadTracer t;
    return t;
}

} // namespace

bool
enabled()
{
    return tracer().sink != nullptr;
}

void
emit(TraceEvent event)
{
    if (TraceSink *sink = tracer().sink)
        sink->record(event);
}

Seconds
simTime()
{
    return tracer().sim_now;
}

void
setSimTime(Seconds now)
{
    tracer().sim_now = now;
}

Scope::Scope(TraceSink &sink)
    : prev_sink_(tracer().sink), prev_time_(tracer().sim_now)
{
    tracer().sink = &sink;
    tracer().sim_now = Seconds(0.0);
}

Scope::~Scope()
{
    if (tracer().sink)
        tracer().sink->flush();
    tracer().sink = prev_sink_;
    tracer().sim_now = prev_time_;
}

void
instant(const char *category, std::string name, std::vector<Arg> args)
{
    if (!enabled())
        return;
    TraceEvent ev;
    ev.phase = Phase::Instant;
    ev.category = category;
    ev.name = std::move(name);
    ev.ts = simTime();
    ev.args = std::move(args);
    emit(std::move(ev));
}

TraceEvent
counterEvent(const char *category, std::string name, Seconds ts,
             double value)
{
    TraceEvent ev;
    ev.phase = Phase::Counter;
    ev.category = category;
    ev.name = std::move(name);
    ev.ts = ts;
    ev.args.emplace_back("v", value);
    return ev;
}

void
counter(const char *category, std::string name, double value)
{
    if (enabled())
        emit(counterEvent(category, std::move(name), simTime(), value));
}

Span::Span(const char *category, std::string name) : live_(enabled())
{
    if (!live_)
        return;
    event_.phase = Phase::Complete;
    event_.category = category;
    event_.name = std::move(name);
    event_.ts = simTime();
}

Span::~Span()
{
    end();
}

void
Span::arg(Arg a)
{
    if (live_)
        event_.args.push_back(std::move(a));
}

void
Span::end()
{
    if (!live_)
        return;
    live_ = false;
    event_.dur = simTime() - event_.ts;
    emit(std::move(event_));
}

} // namespace trace
} // namespace voltboot
