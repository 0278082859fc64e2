#include "crypto/key_corrector.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>

#include "crypto/aes.hh"
#include "sim/logging.hh"

namespace voltboot
{

namespace
{

/** Bit disagreement between the schedule of @p key and @p window,
 * counted over the WHOLE window (key bytes included, since the observed
 * key bytes may themselves be corrupted). */
size_t
scheduleDistance(std::span<const uint8_t> key,
                 std::span<const uint8_t> window)
{
    const std::vector<uint8_t> ideal = Aes::expandKey(key);
    size_t errors = 0;
    for (size_t i = 0; i < ideal.size(); ++i)
        errors += std::popcount(static_cast<uint8_t>(window[i] ^ ideal[i]));
    return errors;
}

inline uint32_t
load32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace

std::span<const unsigned>
scheduleResidualWords(size_t key_bytes)
{
    // Violated-bit counts over disjoint-support relations are
    // independent, so their sum is an unbiased noise estimate: each
    // relation bit is the XOR of three independently-corrupted schedule
    // bits and flips with probability 3p(1-p)^2 + p^3 (~3p for small p,
    // 1/2 for random data). Indices avoid the S-box rows (i % Nk == 0,
    // plus i % 8 == 4 for AES-256's extra SubWord).
    static constexpr unsigned k128[] = {5, 7, 13, 15, 21, 23, 29, 31,
                                        37, 39};
    static constexpr unsigned k192[] = {7, 9, 11, 19, 21, 23, 31, 33,
                                        35, 43, 45, 47};
    static constexpr unsigned k256[] = {9, 11, 13, 15, 25, 27, 29, 31,
                                        41, 43, 45, 47, 57, 59};
    switch (key_bytes) {
      case 16: return k128;
      case 24: return k192;
      default: return k256;
    }
}

double
KeyCorrector::linearResidualFraction(std::span<const uint8_t> window,
                                     size_t key_bytes)
{
    if (key_bytes != 16 && key_bytes != 24 && key_bytes != 32)
        fatal("KeyCorrector: unsupported key size ", key_bytes);
    const unsigned nk = static_cast<unsigned>(key_bytes / 4);
    const auto words = scheduleResidualWords(key_bytes);
    size_t violated = 0;
    for (unsigned i : words)
        violated += std::popcount(
            load32(window.data() + size_t{i} * 4) ^
            load32(window.data() + size_t{i - 1} * 4) ^
            load32(window.data() + size_t{i - nk} * 4));
    return static_cast<double>(violated) /
           static_cast<double>(words.size() * 32);
}

CorrectionAttempt
KeyCorrector::attempt(std::span<const uint8_t> window, size_t key_bytes,
                      std::span<const float> bit_priors) const
{
    if (key_bytes != 16 && key_bytes != 24 && key_bytes != 32)
        fatal("KeyCorrector: unsupported key size ", key_bytes);
    const size_t schedule_bytes = Aes::expandKey(
        std::vector<uint8_t>(key_bytes, 0)).size();
    if (window.size() < schedule_bytes)
        fatal("KeyCorrector: window smaller than a schedule");
    if (!bit_priors.empty() && bit_priors.size() != key_bytes * 8)
        fatal("KeyCorrector: bit_priors must hold one entry per key "
              "bit, got ", bit_priors.size());

    CorrectionAttempt out;
    const size_t key_bits = key_bytes * 8;
    const double schedule_bits = static_cast<double>(schedule_bytes * 8);

    std::vector<uint8_t> key(window.begin(), window.begin() + key_bytes);

    // Key-independent noise gate: a window whose linear residual says
    // the channel is far beyond correctable — the bistable-SRAM ~50%
    // cold-boot regime, or plain non-schedule data — is abandoned
    // before any schedule search starts. One distance eval for the
    // report, then out.
    if (linearResidualFraction(window, key_bytes) >
        config_.give_up_residual) {
        out.gave_up = GiveUpReason::ErrorFloor;
        out.residual_bit_errors = scheduleDistance(key, window);
        out.distance_evals = 1;
        return out;
    }

    size_t best = scheduleDistance(key, window);
    size_t evals = 1;
    size_t flips = 0;
    size_t iterations = 0;
    GiveUpReason stalled = GiveUpReason::None;

    // Candidate order: uniform sweep by default; when per-bit flip
    // priors are supplied, descending likelihood (stable, so equal
    // priors fall back to bit order and the search stays deterministic).
    std::vector<size_t> order;
    if (!bit_priors.empty()) {
        order.resize(key_bits);
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return bit_priors[a] > bit_priors[b];
                         });
    }

    // Greedy descent over single key-bit flips. The schedule's
    // avalanche makes wrong bits highly visible: flipping an incorrect
    // key bit removes its entire error cascade at once. Without priors
    // this is steepest-descent (score every bit, take the best); with
    // priors it is first-improvement in likelihood order, which usually
    // finds the flip within the first few candidates. When single flips
    // stall (interacting errors within one word), escalate to a two-bit
    // lookahead before giving up — but only while the best distance is
    // close enough that the O(bits^2) sweep can plausibly pay off.
    bool improved = true;
    while (improved && iterations < config_.max_iterations && best > 0) {
        improved = false;
        size_t best_after = best;
        if (order.empty()) {
            size_t best_bit = SIZE_MAX;
            for (size_t bit = 0; bit < key_bits; ++bit) {
                key[bit / 8] ^= 1u << (bit % 8);
                const size_t d = scheduleDistance(key, window);
                key[bit / 8] ^= 1u << (bit % 8);
                ++evals;
                if (d < best_after) {
                    best_after = d;
                    best_bit = bit;
                }
            }
            ++iterations;
            if (best_bit != SIZE_MAX) {
                key[best_bit / 8] ^= 1u << (best_bit % 8);
                best = best_after;
                ++flips;
                improved = true;
                continue;
            }
        } else {
            size_t hit = SIZE_MAX;
            for (size_t bit : order) {
                key[bit / 8] ^= 1u << (bit % 8);
                const size_t d = scheduleDistance(key, window);
                ++evals;
                if (d < best) {
                    best = d;
                    hit = bit;
                    break; // keep the flip applied
                }
                key[bit / 8] ^= 1u << (bit % 8);
            }
            ++iterations;
            if (hit != SIZE_MAX) {
                ++flips;
                improved = true;
                continue;
            }
            best_after = best;
        }
        // Stalled. Below the acceptance bar we are done; far above the
        // lookahead bar the window is hopeless and the pairwise sweep
        // would only burn schedule expansions.
        if (static_cast<double>(best) / schedule_bits <=
            config_.accept_threshold)
            break;
        if (static_cast<double>(best) / schedule_bits >
            config_.lookahead_threshold) {
            stalled = GiveUpReason::ErrorFloor;
            break;
        }
        size_t best_i = SIZE_MAX, best_j = SIZE_MAX;
        for (size_t i = 0; i + 1 < key_bits; ++i) {
            key[i / 8] ^= 1u << (i % 8);
            for (size_t j = i + 1; j < key_bits; ++j) {
                key[j / 8] ^= 1u << (j % 8);
                const size_t d = scheduleDistance(key, window);
                key[j / 8] ^= 1u << (j % 8);
                ++evals;
                if (d < best_after) {
                    best_after = d;
                    best_i = i;
                    best_j = j;
                }
            }
            key[i / 8] ^= 1u << (i % 8);
        }
        if (best_i != SIZE_MAX) {
            key[best_i / 8] ^= 1u << (best_i % 8);
            key[best_j / 8] ^= 1u << (best_j % 8);
            best = best_after;
            flips += 2;
            improved = true;
        }
    }

    out.iterations = iterations;
    out.distance_evals = evals;
    out.residual_bit_errors = best;
    if (static_cast<double>(best) / schedule_bits <=
        config_.accept_threshold) {
        CorrectedKey fixed;
        fixed.key = std::move(key);
        fixed.residual_bit_errors = best;
        fixed.key_bits_flipped = flips;
        fixed.iterations = iterations;
        out.key = std::move(fixed);
    } else if (stalled != GiveUpReason::None) {
        out.gave_up = stalled;
    } else if (iterations >= config_.max_iterations) {
        out.gave_up = GiveUpReason::MaxIterations;
    } else {
        out.gave_up = GiveUpReason::Residual;
    }
    return out;
}

std::optional<CorrectedKey>
KeyCorrector::correct(std::span<const uint8_t> window,
                      size_t key_bytes) const
{
    return attempt(window, key_bytes).key;
}

double
RobustKeyScanner::firstRoundMismatch(std::span<const uint8_t> window,
                                     size_t key_bytes)
{
    // Derive only the first round past the key (schedule words Nk..Nk+3)
    // and compare. Key-bit errors perturb a handful of these bits;
    // random data disagrees on about half.
    if (key_bytes != 16 && key_bytes != 24 && key_bytes != 32)
        fatal("Aes: key must be 16, 24 or 32 bytes, got ", key_bytes);
    const auto &sbox = Aes::sbox();
    const uint8_t *key = window.data();
    const uint8_t *last = key + key_bytes - 4;
    // w[Nk] = w[0] ^ SubWord(RotWord(w[Nk-1])) ^ Rcon[1]; the next three
    // words are w[i-Nk] ^ w[i-1] for every key size (AES-256's extra
    // SubWord first applies at w[12]).
    std::array<uint8_t, 16> ideal{};
    ideal[0] = key[0] ^ sbox[last[1]] ^ 0x01;
    ideal[1] = key[1] ^ sbox[last[2]];
    ideal[2] = key[2] ^ sbox[last[3]];
    ideal[3] = key[3] ^ sbox[last[0]];
    for (size_t i = 4; i < 16; ++i)
        ideal[i] = key[i] ^ ideal[i - 4];
    size_t errors = 0;
    for (size_t i = 0; i < 16; ++i)
        errors += std::popcount(
            static_cast<uint8_t>(window[key_bytes + i] ^ ideal[i]));
    return static_cast<double>(errors) / (16.0 * 8.0);
}

std::vector<RobustScanHit>
RobustKeyScanner::scan(const MemoryImage &image, size_t key_bytes) const
{
    std::vector<RobustScanHit> hits;
    const size_t schedule_bytes =
        Aes::expandKey(std::vector<uint8_t>(key_bytes, 0)).size();
    const auto &bytes = image.bytes();
    if (bytes.size() < schedule_bytes)
        return hits;
    for (size_t off = 0; off + schedule_bytes <= bytes.size();
         off += stride_) {
        std::span<const uint8_t> window(bytes.data() + off,
                                        schedule_bytes);
        // Constant windows are never schedules (Rcon forbids them).
        bool all_same = true;
        for (size_t i = 1; i < key_bytes && all_same; ++i)
            all_same = window[i] == window[0];
        if (all_same)
            continue;
        if (firstRoundMismatch(window, key_bytes) > prefilter_)
            continue;
        if (auto fixed = corrector_.correct(window, key_bytes))
            hits.push_back(RobustScanHit{off, std::move(*fixed)});
    }
    std::sort(hits.begin(), hits.end(),
              [](const RobustScanHit &a, const RobustScanHit &b) {
                  return a.corrected.residual_bit_errors <
                         b.corrected.residual_bit_errors;
              });
    return hits;
}

std::optional<RobustScanHit>
RobustKeyScanner::best(const MemoryImage &image, size_t key_bytes) const
{
    auto hits = scan(image, key_bytes);
    if (hits.empty())
        return std::nullopt;
    return std::move(hits.front());
}

} // namespace voltboot
