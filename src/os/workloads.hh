/**
 * @file
 * Victim-program generators: the bare-metal software the paper loads onto
 * its targets, written in vb64 assembly.
 *
 * Each generator returns assembly text so tests and examples can show the
 * exact victim source; assemble with Assembler::assemble.
 */

#ifndef VOLTBOOT_OS_WORKLOADS_HH
#define VOLTBOOT_OS_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.hh"

namespace voltboot
{
namespace workloads
{

/**
 * Section 7.1.1's victim: enable the caches, then execute a long NOP
 * slide so the i-cache fills with known machine code. @p nop_words NOPs
 * after the prologue, then hlt.
 */
std::string nopFiller(size_t nop_words);

/**
 * Section 7.1.2-style victim: enable the d-cache and store @p pattern to
 * every 8-byte word of [@p base, @p base + @p bytes), then read it all
 * back, then hlt. The stores land in the d-cache (write-back, dirty).
 */
std::string patternStore(uint64_t base, size_t bytes, uint8_t pattern);

/**
 * Section 7.2's victim: fill the vector registers v0..v31 with
 * distinguishable patterns (0xFF in even registers, 0xAA in odd ones by
 * default), then hlt. Register contents never touch memory.
 */
std::string vectorFill(uint8_t even_pattern = 0xff,
                       uint8_t odd_pattern = 0xaa);

/**
 * The glitch target: a secure-boot-style signature check. The victim
 * MACs @p fw_words 8-byte words of firmware at @p fw_base (multiply-xor
 * compression, one round per word), compares the digest against the
 * embedded @p expected_tag, and stores a verdict word to
 * @p result_addr: 1 if the image verified ("pass"), 0 otherwise
 * ("fail"). The attacker's tampered image never matches, so reaching
 * the pass path without a valid tag requires faulting the
 * compare-and-branch — the classic voltage-glitch win condition.
 */
std::string signatureCheck(uint64_t fw_base, size_t fw_words,
                           uint64_t expected_tag, uint64_t result_addr);

/**
 * The digest signatureCheck() computes over @p words — for staging a
 * *valid* image (expected_tag = signatureCheckTag(words)) or a broken
 * one (any other tag).
 */
uint64_t signatureCheckTag(const std::vector<uint64_t> &words);

/**
 * Expected ground-truth bytes for patternStore: what the victim's memory
 * region holds after the program ran.
 */
std::vector<uint8_t> patternStoreGroundTruth(size_t bytes, uint8_t pattern);

/** Emit "movz/movk" sequence loading a full 64-bit constant into @p reg. */
std::string loadImm64(const std::string &reg, uint64_t value);

} // namespace workloads
} // namespace voltboot

#endif // VOLTBOOT_OS_WORKLOADS_HH
