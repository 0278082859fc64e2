/**
 * @file
 * Execution of one campaign trial.
 *
 * A trial is hermetic: it builds its own Soc from the TrialSpec, stages
 * the standard victim for the chosen target memory, captures the
 * ground-truth image, mounts the chosen attack, extracts, and scores
 * the dump. Nothing is shared between trials, which is what makes the
 * campaign engine embarrassingly parallel.
 *
 * kAttackFamilies holds one row per AttackKind: the family's run
 * function, which runTrial() calls, and its sweep-summary tally, which
 * CampaignResult's summary and JSON and the CLI's sweep output loop
 * over. Adding a family is one enum value, one name and one row.
 *
 * Determinism contract (see docs/CAMPAIGN.md):
 *  - the simulated silicon of a trial is a pure function of
 *    (campaign seed, chip-seed index) — the same die is reused across
 *    the temperature/off-time/probe axes, as it would be on a real
 *    bench;
 *  - any trial-local randomness (e.g. the planted AES key) derives from
 *    (campaign seed, trial index) via the counter-based hash in
 *    sim/rng.hh, independent of thread count and schedule.
 */

#ifndef VOLTBOOT_CAMPAIGN_TRIAL_RUNNER_HH
#define VOLTBOOT_CAMPAIGN_TRIAL_RUNNER_HH

#include <cstdint>
#include <vector>

#include "campaign/campaign_result.hh"
#include "campaign/sweep_grid.hh"
#include "soc/soc_config.hh"
#include "sram/memory_image.hh"

namespace voltboot
{

class Rng;
class Soc;
class VoltBootAttack;

/** Board name to platform config ("pi3"|"pi4"|"imx53"); fatal() else. */
SocConfig socConfigFor(const std::string &board);

/** The silicon seed used by every trial with this chip-seed index. */
uint64_t deriveChipSeed(uint64_t campaign_seed, uint64_t seed_index);

/** The per-trial random stream seed. */
uint64_t deriveTrialSeed(uint64_t campaign_seed, uint64_t trial_index);

/** A staged victim: what the attacker should recover. */
struct StagedVictim
{
    MemoryImage truth;
    std::vector<uint8_t> planted_key; ///< Empty unless a key was staged.
};

/** Stage the standard victim for @p spec's target on the powered @p soc
 * and capture its ground truth (@p rng draws a planted key). */
StagedVictim stageTrialVictim(Soc &soc, const TrialSpec &spec, Rng &rng);

/** Dump @p target through an attack that has booted attacker code. */
MemoryImage dumpTarget(VoltBootAttack &attack, TargetRam target);

struct TrialRun;

/** One attack family: how a trial of it runs and how the sweep summary
 * counts it. */
struct AttackFamily
{
    AttackKind kind;
    /** Stage, attack, extract and score one trial into its record;
     * throws on a parameter combination the family rejects. */
    void (TrialRun::*run)();
    /** The summary's keys for the family's trial count and success
     * count; null for a family without a tally of its own. */
    const char *trials_key = nullptr;
    const char *successes_key = nullptr;
    /** One record's contribution to the success count. */
    uint64_t (*successes)(const TrialRecord &) = nullptr;
    /** `sweep` prints "<label>: <n> trials, <m> <successes_label>". */
    const char *label = nullptr;
    const char *successes_label = nullptr;
};

/** Every attack family, one row per AttackKind, in enum order. */
extern const AttackFamily kAttackFamilies[std::size(kAttackNames)];

/** The row of @p kind. */
inline const AttackFamily &
attackFamily(AttackKind kind)
{
    return kAttackFamilies[static_cast<size_t>(kind)];
}

/**
 * Run one trial to completion and score it. Throws (FatalError etc.) on
 * invalid parameter combinations — the campaign engine records a throw
 * as TrialStatus::Error without stopping the sweep.
 */
TrialRecord runTrial(const TrialSpec &spec, uint64_t campaign_seed);

} // namespace voltboot

#endif // VOLTBOOT_CAMPAIGN_TRIAL_RUNNER_HH
