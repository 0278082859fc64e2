#include "power/transient.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace voltboot
{

ProbeTransient
TransientSolver::solve(const VoltageProbe &probe, Amp surge_current,
                       Amp retention_current, Farad decap,
                       Seconds surge_duration)
{
    if (probe.source_impedance.ohms() < 0.0)
        fatal("TransientSolver: negative source impedance");
    if (decap.farads() <= 0.0)
        fatal("TransientSolver: decoupling capacitance must be positive");

    ProbeTransient out;
    out.current_limited = surge_current > probe.max_current;

    const double r = std::max(probe.source_impedance.ohms(), 1e-6);
    const double c = decap.farads();
    const double tau = r * c;

    if (!out.current_limited) {
        // Ohmic droop with RC smoothing; worst case at end of surge.
        const double ir = surge_current.amps() * r;
        const double droop =
            ir * (1.0 - std::exp(-surge_duration.seconds() / tau));
        out.v_min = Volt(std::max(0.0, probe.voltage.volts() - droop));
    } else {
        // Probe saturates at its current limit. The decap only delays
        // the collapse: the starved domain keeps demanding the surge
        // current until it fully resets, so the rail falls to the
        // voltage at which the (roughly resistive) load's draw matches
        // what the probe can source.
        const double collapse = probe.voltage.volts() *
                                probe.max_current.amps() /
                                surge_current.amps();
        const double ohmic = probe.max_current.amps() * r;
        out.v_min = Volt(std::max(0.0, collapse - ohmic));
    }

    out.v_settled = Volt(std::max(
        0.0, probe.voltage.volts() - retention_current.amps() * r));
    return out;
}

} // namespace voltboot
