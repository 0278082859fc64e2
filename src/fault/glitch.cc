#include "fault/glitch.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace voltboot
{
namespace fault
{

GlitchWaveform::GlitchWaveform(Volt nominal, GlitchParams params,
                               Ohm crowbar, Farad decap)
    : nominal_(nominal), params_(params)
{
    if (nominal.volts() < 0.0)
        fatal("GlitchWaveform: negative nominal voltage");
    if (params.offset.seconds() < 0.0)
        fatal("GlitchWaveform: negative glitch offset");
    if (params.degenerate())
        return; // identically nominal; edge_/floor_ unused

    // Both edges slew with the crowbar-RC product; clamp so that the
    // fall and the recovery always fit inside the pulse (a very wide
    // pulse gets the full RC edge, a very narrow one degrades towards
    // a triangle).
    const double tau = crowbar.ohms() * decap.farads();
    edge_ = Seconds(std::min(tau, params.width.seconds() / 2.0));
    floor_ = Volt(std::max(nominal.volts() - params.depth.volts(), 0.0));
}

Volt
GlitchWaveform::at(Seconds t) const
{
    if (params_.degenerate())
        return nominal_;
    const double rel = t.seconds() - params_.offset.seconds();
    const double width = params_.width.seconds();
    if (rel <= 0.0 || rel >= width)
        return nominal_;
    const double edge = edge_.seconds();
    const double drop = nominal_.volts() - floor_.volts();
    if (edge > 0.0 && rel < edge) // falling edge
        return Volt(nominal_.volts() - drop * rel / edge);
    if (edge > 0.0 && rel > width - edge) // recovery edge
        return Volt(nominal_.volts() - drop * (width - rel) / edge);
    return floor_;
}

void
emitExcursionTrace(const GlitchWaveform &wave, const char *span_name,
                   const std::string &domain, Seconds anchor, Seconds cycle)
{
    if (!trace::enabled())
        return;
    const std::string counter_name = trace::voltageCounter(domain);
    auto sample = [&](double t_rel, double v) {
        trace::emit(trace::counterEvent(
            "power", counter_name, Seconds(anchor.seconds() + t_rel), v));
    };
    const double t0 = wave.start().seconds();
    const double t3 = wave.end().seconds();
    const double cyc = cycle.seconds();
    double last_v = wave.nominal().volts();
    for (double t = (std::floor(t0 / cyc) + 1.0) * cyc; t < t3;
         t += cyc) {
        const double v = wave.at(Seconds(t)).volts();
        if (v != last_v) {
            sample(t, v);
            last_v = v;
        }
    }
    sample(t3, wave.nominal().volts());

    trace::TraceEvent span;
    span.phase = trace::Phase::Complete;
    span.category = "power";
    span.name = span_name;
    span.ts = Seconds(anchor.seconds() + t0);
    span.dur = wave.params().width;
    span.args.push_back({"domain", domain});
    span.args.push_back({"nominal_v", wave.nominal().volts()});
    span.args.push_back({"depth_v", wave.params().depth.volts()});
    span.args.push_back({"offset_s", t0});
    span.args.push_back({"width_s", wave.params().width.seconds()});
    trace::emit(std::move(span));
}

} // namespace fault
} // namespace voltboot
