/**
 * @file
 * Per-attack-step observability for every attack family: a "core"
 * span in simulation time (deterministic, lands in the trace) plus the
 * step's wall-clock time added to its telemetry phase (non-canonical).
 * Construction and destruction sync the trace clock with the Soc's
 * event queue so the span brackets the simulated time the step took.
 */

#ifndef VOLTBOOT_SOC_STEP_SCOPE_HH
#define VOLTBOOT_SOC_STEP_SCOPE_HH

#include <chrono>

#include "soc/soc.hh"
#include "telemetry/counters.hh"
#include "trace/trace.hh"

namespace voltboot
{

class StepScope
{
  public:
    StepScope(Soc &soc, telemetry::Phase phase)
        : sync_(soc), soc_(soc),
          span_("core", telemetry::phaseName(phase)), phase_(phase),
          t0_(std::chrono::steady_clock::now())
    {
    }

    ~StepScope()
    {
        trace::setSimTime(soc_.eventQueue().now());
        span_.end();
        telemetry::tl_phase_times[static_cast<unsigned>(phase_)] +=
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0_)
                    .count());
    }

    void arg(trace::Arg a) { span_.arg(std::move(a)); }

  private:
    struct ClockSync
    {
        explicit ClockSync(Soc &soc)
        {
            trace::setSimTime(soc.eventQueue().now());
        }
    };

    ClockSync sync_; ///< Must precede span_: syncs the clock it reads.
    Soc &soc_;
    trace::Span span_;
    telemetry::Phase phase_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace voltboot

#endif // VOLTBOOT_SOC_STEP_SCOPE_HH
