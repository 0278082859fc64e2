/**
 * @file
 * Error-correcting AES key reconstruction from decayed key schedules.
 *
 * The original cold boot work recovers keys from partially decayed DRAM
 * by exploiting the key schedule's ~11x redundancy: even when bits of
 * the master key itself have flipped, the surviving derived round-key
 * bits over-constrain it. This module implements a local-search
 * corrector: starting from the observed (possibly corrupted) master-key
 * bytes, greedily flip key bits while the regenerated schedule's
 * disagreement with the observed window shrinks.
 *
 * Two asymmetries matter for the paper's argument:
 *  - DRAM decays toward a known ground state, so low error rates are
 *    correctable and classic cold boot succeeds on DRAM;
 *  - SRAM is bistable (errors in both polarities, toward a per-cell
 *    random fingerprint), and a realistic SRAM cold boot leaves ~50%
 *    error — far beyond any corrector. Volt Boot sidesteps the question
 *    by producing error-free dumps.
 *
 * The ~50% regime is recognised *before* any local search runs: most of
 * the schedule satisfies XOR-only word relations (w[i] = w[i-Nk] ^
 * w[i-1] whenever no S-box is applied), so the fraction of violated
 * relation bits estimates the channel noise without knowing the key. A
 * window whose residual fraction exceeds give_up_residual is abandoned
 * deterministically with a structured gave-up reason instead of
 * burning max_iterations of schedule expansions on garbage.
 *
 * attempt() additionally accepts per-key-bit flip priors (the keyfind
 * engine derives them from the SRAM model's per-cell DRV/retention
 * parameters): candidate flips are then tried in descending prior
 * order with first-improvement acceptance, which reaches the same
 * corrected keys while evaluating far fewer candidate schedules than
 * the uniform steepest-descent sweep.
 */

#ifndef VOLTBOOT_CRYPTO_KEY_CORRECTOR_HH
#define VOLTBOOT_CRYPTO_KEY_CORRECTOR_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sram/memory_image.hh"

namespace voltboot
{

/** Result of a correction attempt. */
struct CorrectedKey
{
    std::vector<uint8_t> key;  ///< Reconstructed master key.
    size_t residual_bit_errors; ///< Schedule disagreement after repair.
    size_t key_bits_flipped;    ///< Corrections applied to the key bytes.
    size_t iterations;          ///< Local-search steps taken.
};

/** Why a correction attempt stopped without an accepted key. */
enum class GiveUpReason
{
    None,          ///< An accepted key was produced.
    Residual,      ///< Search stalled just above the acceptance bar.
    ErrorFloor,    ///< Noise estimate / stall far beyond correctability
                   ///< (the ~50% bistable-SRAM cold-boot regime).
    MaxIterations, ///< Hit the iteration cap before converging.
};

/**
 * Schedule word indices i for which w[i] = w[i-Nk] ^ w[i-1] holds
 * exactly in an ideal schedule (no S-box / Rcon on that row), chosen so
 * no schedule word appears in more than one relation. Shared by the
 * corrector's noise gate and the keyfind scan's early-reject filter:
 * because the supports are disjoint and key-word terms cancel, the
 * summed violated-bit count of these relations never exceeds the
 * window's derived-bit error count — rejecting on it is conservative.
 */
std::span<const unsigned> scheduleResidualWords(size_t key_bytes);

/** Full outcome of one correction attempt: the accepted key when the
 * search converged, and a structured reason plus search-cost counters
 * when it did not. */
struct CorrectionAttempt
{
    /** The accepted key; nullopt when the attempt gave up. */
    std::optional<CorrectedKey> key;
    GiveUpReason gave_up = GiveUpReason::None;
    /** Local-search iterations actually taken. */
    size_t iterations = 0;
    /** Candidate schedules expanded and scored (the search cost). */
    size_t distance_evals = 0;
    /** Best whole-window bit disagreement reached. */
    size_t residual_bit_errors = 0;
};

/** Tunables for the local search. */
struct KeyCorrectorConfig
{
    /** Give up when the residual disagreement exceeds this fraction of
     * the derived-schedule bits (the window is then not a schedule). */
    double accept_threshold = 0.05;
    /** Hard cap on local-search iterations. */
    size_t max_iterations = 512;
    /**
     * Bail out *before* searching when the key-independent linear
     * residual fraction (see linearResidualFraction) exceeds this. A
     * true schedule at bit-error rate p violates ~3p of its relation
     * bits, so 0.30 corresponds to p ~ 0.10 — already beyond what the
     * local search can repair — while the ~50% SRAM cold-boot regime
     * sits at ~0.5 and is rejected deterministically in one pass.
     */
    double give_up_residual = 0.30;
    /**
     * Pairwise (two-bit) lookahead is only attempted while the best
     * distance fraction is at or below this; stalling above it ends
     * the attempt with GiveUpReason::ErrorFloor instead of an O(bits^2)
     * sweep over a window that is already hopeless.
     */
    double lookahead_threshold = 0.35;
};

/**
 * Reconstructs AES master keys from corrupted schedule windows.
 */
class KeyCorrector
{
  public:
    explicit KeyCorrector(KeyCorrectorConfig config = {})
        : config_(config)
    {}

    /**
     * Attempt to reconstruct the AES key whose schedule (of
     * @p key_bytes-byte keys) best explains @p window. Returns nullopt
     * when the residual stays above the acceptance threshold.
     */
    std::optional<CorrectedKey> correct(std::span<const uint8_t> window,
                                        size_t key_bytes) const;

    /**
     * Full-outcome variant of correct(). When @p bit_priors is
     * non-empty it must hold one flip likelihood per key bit
     * (key_bytes * 8 entries, bit b of key byte i at index i * 8 + b);
     * candidate flips are then tried in descending-prior order with
     * first-improvement acceptance instead of the uniform
     * steepest-descent sweep. Both orders are deterministic.
     */
    CorrectionAttempt attempt(std::span<const uint8_t> window,
                              size_t key_bytes,
                              std::span<const float> bit_priors = {}) const;

    /**
     * Key-independent channel-noise estimate for @p window: the
     * fraction of violated bits over a fixed set of XOR-only schedule
     * word relations (w[i] ^ w[i-Nk] ^ w[i-1] for non-S-box rows,
     * chosen with disjoint word supports). ~0 for a clean schedule,
     * ~3p at bit-error rate p, ~0.5 for random data.
     */
    static double linearResidualFraction(std::span<const uint8_t> window,
                                         size_t key_bytes);

    const KeyCorrectorConfig &config() const { return config_; }

  private:
    KeyCorrectorConfig config_;
};

/** A correction-scan hit. */
struct RobustScanHit
{
    size_t offset;
    CorrectedKey corrected;
};

/**
 * Slide over a memory image looking for *decayed* key schedules: windows
 * are pre-filtered by their first-round consistency (cheap; one key-bit
 * error perturbs only a few first-round bits, while random data
 * disagrees on ~50%), then handed to the KeyCorrector. This is what
 * recovers disk keys from a chilled, transplanted DRAM image — the
 * attack the paper's on-chip crypto schemes were designed to stop.
 */
class RobustKeyScanner
{
  public:
    RobustKeyScanner(KeyCorrector corrector, size_t stride = 4,
                     double prefilter_threshold = 0.375)
        : corrector_(corrector), stride_(stride),
          prefilter_(prefilter_threshold)
    {}

    /** All correctable schedules in @p image, best first. */
    std::vector<RobustScanHit> scan(const MemoryImage &image,
                                    size_t key_bytes) const;

    /** The single best hit, if any. */
    std::optional<RobustScanHit> best(const MemoryImage &image,
                                      size_t key_bytes) const;

    /** Fraction of first-round bits disagreeing for @p window. */
    static double firstRoundMismatch(std::span<const uint8_t> window,
                                     size_t key_bytes);

  private:
    KeyCorrector corrector_;
    size_t stride_;
    double prefilter_;
};

} // namespace voltboot

#endif // VOLTBOOT_CRYPTO_KEY_CORRECTOR_HH
