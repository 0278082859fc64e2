/**
 * @file
 * First-order analytic transients for the power-delivery network.
 *
 * When the PMIC's main input is cut while a Volt Boot probe holds a
 * domain, the compute elements in that domain momentarily draw a current
 * surge from the probe (the paper measures 400-600 mA spikes settling to
 * 8 mA on a Raspberry Pi 4). The probe's source impedance and the domain
 * decoupling capacitance determine how far the rail droops during that
 * surge; any cell whose DRV sits above the droop minimum loses its bit.
 * This is why the paper requires a bench supply with ">3 A current driving
 * capability".
 */

#ifndef VOLTBOOT_POWER_TRANSIENT_HH
#define VOLTBOOT_POWER_TRANSIENT_HH

#include "sim/units.hh"

namespace voltboot
{

/** An external voltage source attached to a board test pad. */
struct VoltageProbe
{
    /** Regulated output voltage. */
    Volt voltage{0.8};
    /** Current limit of the supply. */
    Amp max_current{3.0};
    /** Source impedance including probe leads and pad contact. */
    Ohm source_impedance{0.05};
};

/** Result of solving the supply-disconnect surge transient. */
struct ProbeTransient
{
    /** Minimum rail voltage reached during the surge window. */
    Volt v_min;
    /** Steady rail voltage once the domain settles to retention current. */
    Volt v_settled;
    /** True if the probe hit its current limit during the surge. */
    bool current_limited;
};

/**
 * Analytic solver for the probe-held rail during a power cycle.
 *
 * Within the probe's current limit the rail follows the classic RC droop
 *   V(t) = V_p - I_surge * R * (1 - exp(-t / (R * C)))
 * and the minimum lands at the end of the surge window. Beyond the limit
 * the probe degenerates to a constant-current source and the deficit
 * discharges the decoupling capacitance linearly.
 */
class TransientSolver
{
  public:
    /**
     * @param probe              External supply parameters.
     * @param surge_current      Peak current the domain draws at disconnect.
     * @param retention_current  Steady current once the domain is idle.
     * @param decap              Total decoupling capacitance on the rail.
     * @param surge_duration     Length of the surge window.
     */
    static ProbeTransient solve(const VoltageProbe &probe, Amp surge_current,
                                Amp retention_current, Farad decap,
                                Seconds surge_duration);
};

} // namespace voltboot

#endif // VOLTBOOT_POWER_TRANSIENT_HH
