/**
 * @file
 * PMIC and board-level power wiring.
 *
 * The Pmic owns the power domains and sequences them from a single main
 * input (USB-C / barrel jack). The Board adds the attack-relevant
 * board-level artefacts: test pads and exposed passive-component leads
 * wired to each domain's supply pin, which is where a Volt Boot probe
 * lands (TP15 on a Raspberry Pi 4, PP58 on a Pi 3, SH13 on an i.MX53 QSB).
 */

#ifndef VOLTBOOT_POWER_BOARD_HH
#define VOLTBOOT_POWER_BOARD_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "power/power_domain.hh"
#include "sim/units.hh"

namespace voltboot
{

/** Power-management IC: owns domains and sequences them. */
class Pmic
{
  public:
    explicit Pmic(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Create and own a new domain; returns a stable pointer. */
    PowerDomain *addDomain(std::string name, Volt nominal,
                           RegulatorKind kind,
                           DomainLoadProfile profile = {});

    /** Look up a domain by name; nullptr if absent. */
    PowerDomain *domain(const std::string &name);

    const std::vector<std::unique_ptr<PowerDomain>> &domains() const
    { return domains_; }

    bool mainSupplyOn() const { return main_on_; }

    /**
     * Apply main input power at time @p now: every domain powers up in
     * registration order (the bring-up sequence).
     */
    void connectMainSupply(Seconds now, Temperature temp);

    /**
     * Cut main input power at time @p now: every domain powers down.
     * Probed domains ride through in retention.
     */
    void disconnectMainSupply(Seconds now);

  private:
    std::string name_;
    std::vector<std::unique_ptr<PowerDomain>> domains_;
    bool main_on_ = false;
};

/** A labelled probe point on the PCB wired to one power domain. */
struct TestPad
{
    std::string label;       ///< Silkscreen / schematic name, e.g. "TP15".
    std::string domain_name; ///< Domain whose supply pin it reaches.
    Volt nominal;            ///< Voltage an attacker measures there.
};

/**
 * The circuit board: a PMIC plus the test pads an attacker can reach.
 */
class Board
{
  public:
    Board(std::string name, std::string pmic_name)
        : name_(std::move(name)), pmic_(std::move(pmic_name))
    {}

    const std::string &name() const { return name_; }
    Pmic &pmic() { return pmic_; }
    const Pmic &pmic() const { return pmic_; }

    /** Expose a test pad for @p domain_name. */
    void addTestPad(const std::string &label,
                    const std::string &domain_name);

    const std::vector<TestPad> &testPads() const { return pads_; }

    /** Find the pad with silkscreen label @p label; nullptr if absent. */
    const TestPad *findPad(const std::string &label) const;

    /**
     * Attach an external probe at pad @p label. The probe's voltage must
     * match the pad's nominal voltage within @p tolerance, mirroring the
     * attack procedure of measuring the pad first and matching it —
     * overdriving a rail resets or damages the part.
     */
    PowerDomain *attachProbeAtPad(const std::string &label,
                                  const VoltageProbe &probe,
                                  Volt tolerance = Volt::millivolts(50));

  private:
    std::string name_;
    Pmic pmic_;
    std::vector<TestPad> pads_;
};

} // namespace voltboot

#endif // VOLTBOOT_POWER_BOARD_HH
