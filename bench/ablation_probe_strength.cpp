/**
 * @file
 * Ablation A1 — probe strength vs data retention.
 *
 * The paper specifies a bench supply with ">3 A current driving
 * capability" because the core-domain disconnect surge (400-600 mA on a
 * Pi 4) must not droop the rail below the cells' data retention voltage.
 * This ablation sweeps the probe's current limit and source impedance
 * and reports the droop minimum and the resulting retention accuracy,
 * locating the cliff.
 *
 * The current-limit and impedance sweeps run as campaigns through the
 * parallel sweep engine (two chips per grid point, mean accuracy
 * reported); the decoupling-capacitance sweep stays hand-rolled since
 * board decap is not a grid axis.
 */

#include <iostream>
#include <map>

#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "core/analysis.hh"
#include "core/attack.hh"
#include "os/baremetal.hh"
#include "os/workloads.hh"
#include "soc/soc.hh"

using namespace voltboot;

namespace
{

/** Mean Ok-trial accuracy per value of @p axis ("n/a" if all failed). */
std::map<double, RunningStats>
accuracyByAxis(const CampaignResult &result, double TrialSpec::*axis)
{
    std::map<double, RunningStats> by_value;
    for (const TrialRecord &r : result.records)
        if (r.status == TrialStatus::Ok)
            by_value[r.spec.*axis].add(r.accuracy);
    return by_value;
}

ProbeTransient
solveTransient(Amp limit, Ohm impedance, Farad decap)
{
    const SocConfig cfg = SocConfig::bcm2711();
    return TransientSolver::solve(
        VoltageProbe{cfg.core_domain.nominal, limit, impedance},
        cfg.core_domain.surge_current, cfg.core_domain.retention_current,
        decap, Seconds::microseconds(5));
}

double
retentionWithProbe(Amp max_current, Ohm impedance, Farad decap)
{
    SocConfig soc_cfg = SocConfig::bcm2711();
    soc_cfg.core_domain.decap = decap;
    Soc soc(soc_cfg);
    soc.powerOn();
    BareMetalRunner runner(soc);
    const uint64_t base = soc.config().dram_base + 0x40000;
    runner.runOn(0, workloads::patternStore(base, 8192, 0xAA));
    const MemoryImage before = soc.memory().l1d(0).dumpAll();

    AttackConfig cfg;
    cfg.probe_max_current = max_current;
    cfg.probe_impedance = impedance;
    VoltBootAttack attack(soc, cfg);
    if (!attack.execute().rebooted_into_attacker_code)
        return -1.0;
    const MemoryImage dump = attack.dumpL1(0, L1Ram::DData);
    return compareImages(dump, before).accuracy();
}

} // namespace

int
main()
{
    bench::banner("Ablation A1",
                  "probe current capability / impedance vs retention");

    const std::vector<double> amps{0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 3.0};
    const std::vector<double> mohms{10.0, 50.0, 200.0, 500.0, 900.0,
                                    1300.0};

    std::cout << "\n(a) current-limit sweep at 50 mOhm source "
                 "impedance (campaign, 2 chips/point):\n";
    const SweepGrid grid_a = SweepGrid::parse(
        "board=pi4;attack=voltboot;current=" + bench::specList(amps) +
        ";seeds=2");
    CampaignConfig cfg_a;
    cfg_a.seed = 0xa1a;
    const CampaignResult res_a = Campaign(grid_a, cfg_a).run();
    const auto acc_a = accuracyByAxis(res_a, &TrialSpec::current_a);

    TextTable ta({"Probe limit", "Droop minimum", "Current-limited",
                  "Retention accuracy"});
    for (double a : amps) {
        const ProbeTransient tr =
            solveTransient(Amp(a), Ohm(0.05),
                           SocConfig::bcm2711().core_domain.decap);
        const auto hit = acc_a.find(a);
        ta.addRow({TextTable::num(a, 2) + " A",
                   TextTable::num(tr.v_min.volts(), 3) + " V",
                   tr.current_limited ? "yes" : "no",
                   hit != acc_a.end() && hit->second.count()
                       ? TextTable::pct(hit->second.mean())
                       : "n/a"});
    }
    std::cout << ta.render();

    std::cout << "\n(b) source-impedance sweep at 3 A limit (campaign, "
                 "2 chips/point, stock 220 uF decap):\n";
    const SweepGrid grid_b = SweepGrid::parse(
        "board=pi4;attack=voltboot;impedance-mohm=" +
        bench::specList(mohms) + ";seeds=2");
    CampaignConfig cfg_b;
    cfg_b.seed = 0xa1b;
    const CampaignResult res_b = Campaign(grid_b, cfg_b).run();
    const auto acc_b = accuracyByAxis(res_b, &TrialSpec::impedance_mohm);

    TextTable tb({"Source impedance", "Droop minimum",
                  "Retention accuracy"});
    for (double mo : mohms) {
        const ProbeTransient tr =
            solveTransient(Amp(3.0), Ohm::milliohms(mo),
                           SocConfig::bcm2711().core_domain.decap);
        const auto hit = acc_b.find(mo);
        tb.addRow({TextTable::num(mo, 0) + " mOhm",
                   TextTable::num(tr.v_min.volts(), 3) + " V",
                   hit != acc_b.end() && hit->second.count()
                       ? TextTable::pct(hit->second.mean())
                       : "n/a"});
    }
    std::cout << tb.render();
    std::cout << "(flat: the rail decoupling capacitance absorbs the "
                 "microsecond surge, so probe\nimpedance barely matters "
                 "while the current limit is not hit)\n";

    std::cout << "\n(c) decoupling-capacitance sweep with a long lead "
                 "probe (3 A limit, 1 Ohm):\n";
    TextTable tc({"Rail decap", "Droop minimum", "Retention accuracy"});
    for (double uf : {220.0, 47.0, 10.0, 4.7, 1.0, 0.1}) {
        const ProbeTransient tr = solveTransient(
            Amp(3.0), Ohm::milliohms(1000), Farad::microfarads(uf));
        const double acc = retentionWithProbe(
            Amp(3.0), Ohm::milliohms(1000), Farad::microfarads(uf));
        tc.addRow({TextTable::num(uf, 1) + " uF",
                   TextTable::num(tr.v_min.volts(), 3) + " V",
                   TextTable::pct(acc)});
    }
    std::cout << tc.render();
    std::cout << "(boards with small decoupling caps punish sloppy "
                 "probing: with little capacitance,\nthe full ohmic "
                 "droop I*R develops and marginal cells flip)\n";

    std::cout << "\npaper: a probe at the rail voltage draws only a few "
                 "mA in steady state, but the\nabrupt disconnect spikes "
                 "the current; an insufficient supply drops the rail "
                 "below the\ndata retention voltage and corrupts the "
                 "extraction — hence the >3 A bench supply.\n";
    return 0;
}
