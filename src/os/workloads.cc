#include "os/workloads.hh"

#include <sstream>

#include "sim/logging.hh"

namespace voltboot
{
namespace workloads
{

std::string
loadImm64(const std::string &reg, uint64_t value)
{
    std::ostringstream os;
    os << "    movz " << reg << ", #" << (value & 0xffff) << "\n";
    for (int part = 1; part < 4; ++part) {
        const uint64_t chunk = (value >> (16 * part)) & 0xffff;
        if (chunk)
            os << "    movk " << reg << ", #" << chunk << ", lsl #"
               << 16 * part << "\n";
    }
    return os.str();
}

std::string
nopFiller(size_t nop_words)
{
    std::ostringstream os;
    os << "// Section 7.1.1 victim: i-cache NOP filler\n";
    // Enable both caches: SCTLR.C | SCTLR.I = (1<<2)|(1<<12) = 0x1004.
    os << "    movz x0, #0x1004\n";
    os << "    msr sctlr_el1, x0\n";
    for (size_t i = 0; i < nop_words; ++i)
        os << "    nop\n";
    os << "    hlt\n";
    return os.str();
}

std::string
patternStore(uint64_t base, size_t bytes, uint8_t pattern)
{
    if (bytes % 8)
        fatal("patternStore: size must be 8-byte aligned");
    uint64_t word = 0;
    for (int i = 0; i < 8; ++i)
        word |= static_cast<uint64_t>(pattern) << (8 * i);

    std::ostringstream os;
    os << "// Section 7.1.2 victim: store pattern 0x" << std::hex
       << static_cast<int>(pattern) << std::dec << " over " << bytes
       << " bytes\n";
    os << "    movz x0, #0x1004\n";
    os << "    msr sctlr_el1, x0\n";
    os << loadImm64("x1", base);      // cursor
    os << loadImm64("x2", word);      // pattern word
    os << loadImm64("x3", bytes / 8); // remaining words
    os << "store_loop:\n";
    os << "    str x2, [x1]\n";
    os << "    add x1, x1, #8\n";
    os << "    sub x3, x3, #1\n";
    os << "    cbnz x3, store_loop\n";
    // Read everything back (keeps lines resident and exercised).
    os << loadImm64("x1", base);
    os << loadImm64("x3", bytes / 8);
    os << "read_loop:\n";
    os << "    ldr x4, [x1]\n";
    os << "    add x1, x1, #8\n";
    os << "    sub x3, x3, #1\n";
    os << "    cbnz x3, read_loop\n";
    os << "    hlt\n";
    return os.str();
}

std::string
vectorFill(uint8_t even_pattern, uint8_t odd_pattern)
{
    std::ostringstream os;
    os << "// Section 7.2 victim: fill v0..v31 with patterns\n";
    for (unsigned v = 0; v < 32; ++v) {
        const unsigned p = (v % 2 == 0) ? even_pattern : odd_pattern;
        os << "    vdup v" << v << ", #" << p << "\n";
    }
    os << "    hlt\n";
    return os.str();
}

std::vector<uint8_t>
patternStoreGroundTruth(size_t bytes, uint8_t pattern)
{
    return std::vector<uint8_t>(bytes, pattern);
}

namespace
{
// The MAC's multiply constant (odd, so invertible mod 2^64).
constexpr uint64_t kSigCheckMultiplier = 0x9e3779b97f4a7c15ULL;
} // namespace

uint64_t
signatureCheckTag(const std::vector<uint64_t> &words)
{
    uint64_t acc = 0;
    for (const uint64_t w : words)
        acc = (acc ^ w) * kSigCheckMultiplier;
    return acc;
}

std::string
signatureCheck(uint64_t fw_base, size_t fw_words, uint64_t expected_tag,
               uint64_t result_addr)
{
    if (fw_words == 0)
        fatal("signatureCheck: firmware must be at least one word");
    std::ostringstream os;
    os << "// Glitch victim: secure-boot signature check over "
       << fw_words << " firmware words\n";
    os << "    movz x9, #0\n"; // verdict defaults to fail
    os << loadImm64("x10", result_addr);
    os << "    movz x0, #0\n"; // MAC accumulator
    os << loadImm64("x1", fw_base);
    os << loadImm64("x2", fw_words);
    os << loadImm64("x5", kSigCheckMultiplier);
    os << "mac_loop:\n";
    os << "    ldr x3, [x1]\n";
    os << "    eor x0, x0, x3\n";
    os << "    mul x0, x0, x5\n";
    os << "    add x1, x1, #8\n";
    os << "    sub x2, x2, #1\n";
    os << "    cbnz x2, mac_loop\n";
    os << loadImm64("x6", expected_tag);
    os << "    cmp x0, x6\n";
    os << "    b.ne reject\n";
    os << "pass:\n";
    os << "    movz x9, #1\n";
    os << "reject:\n";
    os << "    str x9, [x10]\n";
    os << "    hlt\n";
    return os.str();
}

} // namespace workloads
} // namespace voltboot
