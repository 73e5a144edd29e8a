/**
 * @file
 * Seeded random-mutation fuzz over every untrusted-input decoder:
 * the binary ISA decoder, the assembly parser, and the machine-JSON
 * ingest. 10,000 mutations each (bit flips, byte stomps, and
 * truncations of a valid seed input, from a fixed-seed PRNG so
 * failures replay exactly): every mutation must either decode or be
 * rejected with a diagnostic — never crash, never read out of
 * bounds. Run under the sanitize preset, these suites are the
 * memory-safety gate for the robustness layer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config_json.hh"
#include "arch/models.hh"
#include "core/experiment.hh"
#include "isa/disassembler.hh"
#include "isa/encoder.hh"
#include "support/random.hh"

using namespace vvsp;

namespace
{

constexpr int kMutations = 10000;

/**
 * The `vvsp asm --kernel` pipeline: lower, then schedule — a
 * realistic multi-section seed input for the fuzzers.
 */
IsaModule
seedModule()
{
    const KernelSpec &kernel =
        kernelByName("RGB:YCrCb converter/subsampler");
    const VariantSpec &variant = kernel.variant("List-scheduled");
    MachineModel machine(models::i4c8s4());

    Function fn = lowerVariant(kernel, variant, machine);
    return Composer(machine, variant.mode).schedule(fn).module;
}

/**
 * One deterministic mutation: mostly single-to-few bit flips, with
 * occasional byte stomps and truncations so framing fields (counts,
 * lengths, offsets) see wildly-wrong values too.
 */
template <typename Byte>
void
mutate(std::vector<Byte> &data, Rng &rng)
{
    if (data.empty())
        return;
    switch (rng.next() % 8) {
      case 0: // truncate to a random prefix.
        data.resize(rng.next() % data.size());
        break;
      case 1: { // stomp a whole byte.
        data[rng.next() % data.size()] =
            static_cast<Byte>(rng.next() & 0xff);
        break;
      }
      default: { // flip 1..4 bits.
        uint64_t flips = 1 + rng.next() % 4;
        for (uint64_t i = 0; i < flips; ++i) {
            data[rng.next() % data.size()] ^=
                static_cast<Byte>(1u << (rng.next() % 8));
        }
        break;
      }
    }
}

TEST(Fuzz, DecodeModuleNeverCrashesOnMutatedBinaries)
{
    const std::vector<uint8_t> base = encodeModule(seedModule());
    ASSERT_FALSE(base.empty());

    Rng rng(0xf00dfeedull);
    int decoded = 0, rejected = 0;
    for (int i = 0; i < kMutations; ++i) {
        std::vector<uint8_t> bytes = base;
        mutate(bytes, rng);
        IsaModule out;
        std::string error;
        if (decodeModule(bytes, out, &error)) {
            // A surviving mutation must stay internally consistent:
            // re-encoding it cannot crash either.
            encodeModule(out);
            ++decoded;
        } else {
            EXPECT_FALSE(error.empty())
                << "rejection " << i << " without a diagnostic";
            ++rejected;
        }
    }
    // The format is checksum-free by design, so some mutations
    // survive; the point is that both paths are exercised hard.
    EXPECT_EQ(decoded + rejected, kMutations);
    EXPECT_GT(rejected, 0);
}

TEST(Fuzz, ParseAsmNeverCrashesOnMutatedText)
{
    const std::string base_text = printAsm(seedModule());
    ASSERT_FALSE(base_text.empty());
    const std::vector<char> base(base_text.begin(), base_text.end());

    Rng rng(0xdecafbadull);
    int rejected = 0;
    for (int i = 0; i < kMutations; ++i) {
        std::vector<char> text = base;
        mutate(text, rng);
        IsaModule out;
        std::string error;
        if (!parseAsm(std::string(text.begin(), text.end()), out,
                      &error)) {
            EXPECT_FALSE(error.empty())
                << "rejection " << i << " without a diagnostic";
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0);
}

TEST(Fuzz, ConfigFromJsonNeverCrashesOnMutatedDocuments)
{
    const std::string base_text = configToJson(models::i4c8s4());
    ASSERT_FALSE(base_text.empty());
    const std::vector<char> base(base_text.begin(), base_text.end());

    Rng rng(0xba5eba11ull);
    int rejected = 0;
    for (int i = 0; i < kMutations; ++i) {
        std::vector<char> text = base;
        mutate(text, rng);
        std::string error;
        auto cfg = configFromJson(
            std::string(text.begin(), text.end()), &error, "fuzz");
        if (!cfg) {
            EXPECT_FALSE(error.empty())
                << "rejection " << i << " without a diagnostic";
            ++rejected;
        } else {
            // Accepted documents must have passed validation.
            EXPECT_TRUE(cfg->validationError().empty());
        }
    }
    EXPECT_GT(rejected, 0);
}

} // anonymous namespace
