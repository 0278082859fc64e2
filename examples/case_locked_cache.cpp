/**
 * @file
 * Defeating CaSE-style locked-cache execution.
 *
 * Cache-assisted Secure Execution keeps a *plaintext* crypto binary and
 * its round keys in locked L1 lines: DRAM holds only ciphertext, the
 * kernel cannot evict the lines, and cold boot finds nothing off-chip.
 * Volt Boot holds the core power domain through a power cycle and reads
 * the locked lines out through the RAMINDEX debug interface — plaintext
 * binary, round keys and all.
 */

#include <cstdio>
#include <iostream>

#include "core/attack.hh"
#include "crypto/onchip_crypto.hh"
#include "keyfind/schedule_scan.hh"
#include "soc/soc.hh"

using namespace voltboot;

int
main()
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();

    // --- victim: stage the CaSE environment ---
    Cache &l1d = soc.memory().l1d(0);
    l1d.invalidateAll();
    l1d.setEnabled(true);

    const std::vector<uint8_t> key = {0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca,
                                      0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0,
                                      0x85, 0x7d, 0x77, 0x81};
    // A recognisable "decrypted binary": a marker string + filler.
    std::vector<uint8_t> plaintext_binary;
    const std::string marker = "CASE-PLAINTEXT-CRYPTO-BINARY";
    for (int rep = 0; rep < 8; ++rep)
        plaintext_binary.insert(plaintext_binary.end(), marker.begin(),
                                marker.end());
    plaintext_binary.resize(512, 0xC3);

    const uint64_t enclave = soc.config().dram_base + 0x40000;
    CaseExecution cas(l1d, enclave, plaintext_binary, key);
    std::cout << "victim: " << plaintext_binary.size()
              << "-byte plaintext binary + AES schedule locked into L1 "
                 "lines at 0x"
              << std::hex << enclave << std::dec << "\n";

    std::array<uint8_t, 16> block{};
    cas.encryptBlock(block);
    std::cout << "victim: crypto runs from the locked cache\n";

    // DRAM view: neither the marker nor the schedule is off-chip.
    std::vector<uint8_t> dram(soc.dramArray().sizeBytes());
    soc.dramArray().read(0, dram);
    const MemoryImage dram_img(std::move(dram));
    const std::vector<uint8_t> marker_bytes(marker.begin(), marker.end());
    std::cout << "marker in DRAM: "
              << (dram_img.contains(marker_bytes) ? "YES" : "no")
              << " -> off-chip attacks find only ciphertext\n\n";

    // --- attacker ---
    VoltBootAttack attack(soc);
    if (!attack.execute().rebooted_into_attacker_code)
        return 1;
    const MemoryImage dump = attack.dumpL1(0, L1Ram::DData);

    const auto hits = dump.findAll(marker_bytes);
    std::cout << "attacker: L1D dump contains the plaintext binary at "
              << hits.size() << " offsets\n";

    const auto schedules = keyfind::scheduleScan(dump, KeyFinderConfig{});
    const KeyCandidate *cand =
        schedules.empty() ? nullptr : &schedules.front();
    if (cand) {
        std::cout << "attacker: AES schedule found; key = ";
        for (uint8_t b : cand->key)
            std::printf("%02x", b);
        std::cout << (cand->key == key ? " (victim's key)" : " (??)")
                  << "\n";
    }
    std::cout << "\nCaSE's guarantee holds off-chip but the locked lines"
                 " sit in VDD_CORE — Volt Boot\nreads the whole enclave "
                 "across the power cycle with 100% accuracy.\n";
    return (cand && cand->key == key && !hits.empty()) ? 0 : 1;
}
