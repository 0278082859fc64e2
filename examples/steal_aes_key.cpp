/**
 * @file
 * Stealing a TRESOR-style register-resident AES key.
 *
 * TRESOR/PRIME-class systems keep the AES key schedule exclusively in
 * CPU registers so that no cold boot attack on RAM can reach it. This
 * example shows the scheme working as designed against DRAM attacks —
 * and then being defeated end-to-end by Volt Boot:
 *
 *   1. the victim installs an AES-128 schedule in v0..v10 and encrypts
 *      disk blocks with it; DRAM never sees key material;
 *   2. the attacker probes VDD_CORE, power cycles, reboots their own
 *      image, extracts the vector registers with vread/str;
 *   3. an aeskeyfind-style scan of the 512-byte register dump recovers
 *      the master key, which decrypts the stolen ciphertext.
 *
 * Pass a file name to also write a JSONL trace of the whole run — this
 * is the worked example walked through in docs/TRACING.md:
 *
 *   ./steal_aes_key trace.jsonl
 */

#include <cstdio>
#include <iostream>
#include <optional>

#include "core/attack.hh"
#include "crypto/onchip_crypto.hh"
#include "keyfind/schedule_scan.hh"
#include "soc/soc.hh"
#include "trace/trace.hh"

using namespace voltboot;

int
main(int argc, char **argv)
{
    // Optional observability: stream every power/sram/soc/core event of
    // the run to argv[1] as JSONL.
    std::optional<trace::JsonlFileSink> sink;
    std::optional<trace::Scope> scope;
    if (argc > 1) {
        sink.emplace(argv[1]);
        scope.emplace(*sink);
    }

    Soc soc(SocConfig::bcm2837());
    soc.powerOn();

    // --- victim side ---
    const std::vector<uint8_t> disk_key = {
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
        0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    TresorCipher tresor(soc.cpu(0), disk_key);
    std::cout << "victim: AES-128 schedule ("
              << tresor.scheduleBytes()
              << " bytes) installed in v0..v10; key never in RAM\n";

    std::array<uint8_t, 16> sector{};
    const char *plaintext = "TOP-SECRET-DATA";
    for (int i = 0; i < 15; ++i)
        sector[i] = static_cast<uint8_t>(plaintext[i]);
    auto ciphertext = sector;
    tresor.encryptBlock(ciphertext);
    std::cout << "victim: encrypted a disk sector\n";

    // Sanity: the key schedule is nowhere in DRAM.
    const auto schedule = Aes::expandKey(disk_key);
    std::vector<uint8_t> dram(soc.dramArray().sizeBytes());
    soc.dramArray().read(0, dram);
    const bool leaked =
        MemoryImage(dram).contains(
            std::span<const uint8_t>(schedule.data(), 32));
    std::cout << "key material in DRAM: " << (leaked ? "YES" : "no")
              << "  -> classic cold boot on DRAM finds nothing\n\n";

    // --- attacker side ---
    VoltBootAttack attack(soc);
    const AttackOutcome out = attack.execute();
    for (const auto &line : attack.trace())
        std::cout << line << "\n";
    if (!out.rebooted_into_attacker_code)
        return 1;

    const MemoryImage regs = attack.dumpVectorRegisters(0);
    std::cout << "\nattacker: 512-byte vector register dump in hand\n";

    const auto hits = keyfind::scheduleScan(regs, KeyFinderConfig{});
    if (hits.empty()) {
        std::cout << "no key schedule found\n";
        return 1;
    }
    const KeyCandidate &hit = hits.front();
    std::cout << "aeskeyfind: AES-" << hit.key_bytes * 8
              << " schedule at register-file offset " << hit.offset
              << " with " << hit.bit_errors << " bit errors\n";
    std::cout << "recovered key: ";
    for (uint8_t b : hit.key)
        std::printf("%02x", b);
    std::cout << (hit.key == disk_key ? "  (matches victim's key)"
                                       : "  (MISMATCH)")
              << "\n";

    // Decrypt the stolen sector with the recovered key.
    Aes aes(hit.key);
    auto recovered = ciphertext;
    aes.decryptBlock(recovered);
    std::cout << "decrypted sector: "
              << std::string(reinterpret_cast<char *>(recovered.data()),
                             15)
              << "\n";
    return hit.key == disk_key ? 0 : 1;
}
