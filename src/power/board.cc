#include "power/board.hh"

#include <cmath>

#include "sim/logging.hh"

namespace voltboot
{

PowerDomain *
Pmic::addDomain(std::string name, Volt nominal, RegulatorKind kind,
                DomainLoadProfile profile)
{
    if (domain(name) != nullptr)
        fatal("Pmic ", name_, ": duplicate domain ", name);
    domains_.push_back(std::make_unique<PowerDomain>(std::move(name),
                                                     nominal, kind,
                                                     profile));
    return domains_.back().get();
}

PowerDomain *
Pmic::domain(const std::string &name)
{
    for (auto &d : domains_)
        if (d->name() == name)
            return d.get();
    return nullptr;
}

void
Pmic::connectMainSupply(Seconds now, Temperature temp)
{
    if (main_on_)
        return;
    main_on_ = true;
    for (auto &d : domains_)
        d->powerUp(now, temp);
}

void
Pmic::disconnectMainSupply(Seconds now)
{
    if (!main_on_)
        return;
    main_on_ = false;
    for (auto &d : domains_)
        d->powerDown(now);
}

void
Board::addTestPad(const std::string &label, const std::string &domain_name)
{
    const PowerDomain *d = pmic_.domain(domain_name);
    if (d == nullptr)
        fatal("Board ", name_, ": test pad ", label,
              " references unknown domain ", domain_name);
    pads_.push_back(TestPad{label, domain_name, d->nominalVoltage()});
}

const TestPad *
Board::findPad(const std::string &label) const
{
    for (const auto &p : pads_)
        if (p.label == label)
            return &p;
    return nullptr;
}

PowerDomain *
Board::attachProbeAtPad(const std::string &label, const VoltageProbe &probe,
                        Volt tolerance)
{
    const TestPad *pad = findPad(label);
    if (pad == nullptr)
        fatal("Board ", name_, ": no test pad labelled ", label);
    const double dv =
        std::abs(probe.voltage.volts() - pad->nominal.volts());
    if (dv > tolerance.volts())
        fatal("Board ", name_, ": probe at ", label, " set to ",
              probe.voltage.volts(), " V but the pad sits at ",
              pad->nominal.volts(), " V; match the rail before attaching");
    PowerDomain *d = pmic_.domain(pad->domain_name);
    d->attachProbe(probe);
    return d;
}

} // namespace voltboot
