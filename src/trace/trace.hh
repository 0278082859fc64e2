/**
 * @file
 * Structured tracing for the attack stack.
 *
 * The simulator's interesting behaviour is *temporal* — probe attach,
 * domain collapse, per-cell decay past DRV, reboot, RAMINDEX dump — so
 * every layer can emit typed TraceEvents onto a per-thread TraceSink.
 * The paper's evaluation (and the undervolting literature it sits in)
 * explains outcomes with precisely-timestamped voltage/state traces;
 * this module is the simulated equivalent of that bench oscilloscope.
 *
 * Design rules:
 *
 *  - **Off by default, near-zero when off.** No sink is installed until
 *    a trace::Scope is entered; every emission site guards on
 *    trace::enabled() (one thread-local pointer test) before building
 *    an event, so the untraced hot path stays untouched.
 *  - **Deterministic.** Event timestamps are *simulation* time (the
 *    Soc's EventQueue clock), never wall clock, and sinks are
 *    thread-local, so a trial's trace is a pure function of its inputs:
 *    a campaign traced at `--jobs 1` and `--jobs 4` produces
 *    byte-identical per-trial trace files. Wall-clock cost lives in the
 *    telemetry layer (telemetry/counters.hh), which is explicitly
 *    non-canonical.
 *  - **Two wire formats.** JSONL (one self-describing object per line,
 *    greppable, streamable) and the Chrome trace-event format
 *    (`chrome://tracing` / Perfetto "legacy JSON"), both rendered from
 *    the same TraceEvent values. See docs/TRACING.md for the full event
 *    schema and a worked example.
 *
 * Event categories map to the emitting layers: "power" (domain voltage
 * transitions, probe attach/detach, droop/surge transients), "sram"
 * (array state-machine transitions and decay-sweep summaries), "soc"
 * (boot-ROM phases), "core" (the four Volt Boot attack steps) and
 * "campaign" (per-trial spans).
 */

#ifndef VOLTBOOT_TRACE_TRACE_HH
#define VOLTBOOT_TRACE_TRACE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/units.hh"

namespace voltboot
{
namespace trace
{

/** Render @p value as a shortest-round-trip JSON number (locale-free,
 * byte-stable across platforms; nan/inf render as null). */
std::string jsonNumber(double value);

/** Quote and escape @p s as a JSON string literal. */
std::string jsonQuote(const std::string &s);

/**
 * One named event argument, pre-rendered to JSON.
 *
 * Rendering at construction keeps TraceEvent a plain value type: sinks
 * and serializers never need type dispatch, and the JSONL/Chrome
 * writers stay trivially byte-deterministic.
 */
struct Arg
{
    std::string key;
    std::string json; ///< Rendered JSON value (number/string/bool).

    Arg(std::string k, const char *v) : key(std::move(k)), json(jsonQuote(v))
    {}
    Arg(std::string k, const std::string &v)
        : key(std::move(k)), json(jsonQuote(v))
    {}
    template <typename T,
              std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
    Arg(std::string k, T v) : key(std::move(k))
    {
        if constexpr (std::is_same_v<T, bool>)
            json = v ? "true" : "false";
        else if constexpr (std::is_floating_point_v<T>)
            json = jsonNumber(static_cast<double>(v));
        else
            json = std::to_string(v);
    }
};

/** Trace-event phase, mirroring the Chrome trace-event format. */
enum class Phase
{
    Instant,  ///< A point in time ("i").
    Complete, ///< A span with a duration ("X").
    Counter,  ///< A sampled counter value ("C").
};

/** Chrome phase letter for @p phase. */
const char *phaseLetter(Phase phase);

/** One structured event. Timestamps are simulation time. */
struct TraceEvent
{
    Phase phase = Phase::Instant;
    /** Emitting layer: "power" | "sram" | "soc" | "core" | "campaign".
     * Must point at a string literal (events outlive call sites). */
    const char *category = "core";
    std::string name;
    Seconds ts{0.0};  ///< Simulation time of the event (span start).
    Seconds dur{0.0}; ///< Span length; meaningful for Complete only.
    std::vector<Arg> args;
};

/** @name Argument readers (the consumer side of Arg)
 *
 * Both look at the first argument named @p key only.
 */
///@{
/** The argument as a number; nullopt when absent, `null` (a nan/inf
 * at emission) or anything but a complete JSON number. */
std::optional<double> argNumber(const TraceEvent &event,
                                std::string_view key);
/** The argument as a string; nullopt when absent, not a string, or a
 * string that needed escaping (names and hex blobs never do). */
std::optional<std::string> argString(const TraceEvent &event,
                                     std::string_view key);
///@}

/** Every supply-rail sample is a "power" Counter named
 * `voltage.<domain>` carrying the rail voltage as `v`. */
inline constexpr std::string_view kVoltageCounterPrefix = "voltage.";

/** The Counter name sampling @p domain's rail. */
std::string voltageCounter(std::string_view domain);

/** The domain a `voltage.<domain>` Counter samples; nullopt for any
 * other name. */
std::optional<std::string_view> voltageCounterDomain(
    std::string_view counter_name);

/**
 * Destination for emitted events.
 *
 * Implementations must tolerate record() from exactly one thread at a
 * time (sinks are installed per-thread; the engine never shares one
 * sink across concurrently running threads).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    /** Consume one event. */
    virtual void record(const TraceEvent &event) = 0;
    /** Push any buffered output to its final destination. */
    virtual void flush() {}
};

/** Collects events in memory, in emission order (tests, serializers,
 * per-trial campaign buffers). */
class MemoryTraceSink : public TraceSink
{
  public:
    void record(const TraceEvent &event) override
    { events_.push_back(event); }

    const std::vector<TraceEvent> &events() const { return events_; }
    void clear() { events_.clear(); }

  private:
    std::vector<TraceEvent> events_;
};

/** Streams events to a file as JSONL, one line per record() call. */
class JsonlFileSink : public TraceSink
{
  public:
    /** Opens @p path for writing; fatal() on failure. */
    explicit JsonlFileSink(const std::string &path);
    ~JsonlFileSink() override;

    void record(const TraceEvent &event) override;
    void flush() override;

  private:
    struct Impl;
    Impl *impl_;
};

/** @name Serializers (shared by the sinks and the CLI writers) */
///@{
/** One JSONL line (no trailing newline). */
std::string toJsonlLine(const TraceEvent &event);
/** Newline-terminated JSONL document for a whole event sequence. */
std::string toJsonl(std::span<const TraceEvent> events);
/** A `{"traceEvents":[...]}` document for chrome://tracing / Perfetto.
 * Timestamps are emitted in microseconds of simulation time. */
std::string toChromeTrace(std::span<const TraceEvent> events);
///@}

/** @name Per-thread tracer state
 *
 * The installed sink and the simulation clock mirror are both
 * thread-local, which is what keeps campaign workers
 * (one hermetic trial per thread at a time) from interleaving events.
 */
///@{

/** True when a sink is installed on this thread. Emission sites guard
 * on this before building events. */
bool enabled();

/** Deliver @p event to this thread's sink; no-op when disabled. */
void emit(TraceEvent event);

/** This thread's view of simulation time. Updated by the Soc/power
 * layers as their event queue advances; emitters without their own
 * clock (e.g. MemoryArray) stamp events with it. */
Seconds simTime();
void setSimTime(Seconds now);

/**
 * RAII installation of a sink on the current thread.
 *
 * Entering a Scope resets the thread's simulation clock to zero (each
 * traced unit of work — an attack run, a campaign trial — starts its
 * own timeline); leaving it flushes the sink and restores the previous
 * sink and clock, so scopes nest.
 */
class Scope
{
  public:
    explicit Scope(TraceSink &sink);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    TraceSink *prev_sink_;
    Seconds prev_time_;
};

/** Emit an Instant event at the current simulation time. */
void instant(const char *category, std::string name,
             std::vector<Arg> args = {});

/** A Counter event sampling @p value at @p ts, for emitters that
 * stamp a batch of samples themselves. */
TraceEvent counterEvent(const char *category, std::string name, Seconds ts,
                        double value);

/**
 * Emit a Counter event sampling @p value at the current simulation
 * time. The value travels as the single numeric argument `v`, which is
 * what Perfetto's counter-track rendering and the report layer's
 * waveform extraction both expect. The power layer samples each
 * domain's supply as `counter("power", voltageCounter(domain), volts)`.
 */
void counter(const char *category, std::string name, double value);

/**
 * A simulation-time span: captures simTime() at construction and emits
 * one Complete event covering [start, simTime()] at end() (or at
 * destruction). Args may be attached as results become known. Cheap
 * and inert when tracing is off.
 */
class Span
{
  public:
    Span(const char *category, std::string name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach an argument to the eventual Complete event. */
    void arg(Arg a);

    /** Close the span and emit it. Idempotent. */
    void end();

  private:
    bool live_;
    TraceEvent event_;
};

///@}

} // namespace trace
} // namespace voltboot

#endif // VOLTBOOT_TRACE_TRACE_HH
