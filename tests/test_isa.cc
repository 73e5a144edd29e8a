/**
 * @file
 * The ISA layer end to end: format derivation, binary and
 * textual encode/decode identity across models and kernels, a
 * cell's measured code size, decoded execution bit-identity in the
 * cycle simulator, and the assembler's error paths (every failure a
 * diagnostic, never a crash).
 *
 * Built as its own executable (vvsp_isa_tests) so `ctest -L isa`
 * runs exactly this layer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "isa/disassembler.hh"
#include "isa/encoder.hh"
#include "isa/format.hh"
#include "kernels/composer.hh"
#include "sim/cycle_sim.hh"

using namespace vvsp;

namespace
{

/** The `vvsp asm --kernel` pipeline: lower, then schedule. */
IsaModule
pipelineModule(const KernelSpec &kernel, const VariantSpec &variant,
               DatapathConfig cfg)
{
    if (variantConfig(variant, cfg).cluster.hasAbsDiff !=
        cfg.cluster.hasAbsDiff)
        cfg = models::withAbsDiff(std::move(cfg));
    MachineModel machine(cfg);

    Function fn = lowerVariant(kernel, variant, machine);
    return Composer(machine, variant.mode).schedule(fn).module;
}

/** encode -> decode -> re-encode must be byte-identical. */
void
expectBinaryRoundTrip(const IsaModule &module, const std::string &what)
{
    std::vector<uint8_t> bytes = encodeModule(module);
    ASSERT_FALSE(bytes.empty()) << what;

    IsaModule decoded;
    std::string error;
    ASSERT_TRUE(decodeModule(bytes, decoded, &error))
        << what << ": " << error;
    EXPECT_EQ(decoded.machine, module.machine) << what;
    EXPECT_EQ(decoded.fmt, module.fmt) << what;
    ASSERT_EQ(decoded.sections.size(), module.sections.size()) << what;

    std::vector<uint8_t> again = encodeModule(decoded);
    EXPECT_EQ(bytes, again) << what << ": re-encode diverged";
}

TEST(IsaFormat, DerivedFromConfig)
{
    for (const char *name :
         {"I4C8S4", "I4C8S4C", "I4C8S5", "I2C16S4", "I2C16S5",
          "I4C8S5M16", "I2C16S5M16"}) {
        DatapathConfig cfg = models::byName(name);
        IsaFormat fmt = isaFormatFor(cfg);
        EXPECT_EQ(fmt.clusters, cfg.clusters) << name;
        EXPECT_EQ(fmt.slotsPerCluster, cfg.cluster.issueSlots) << name;
        EXPECT_GT(fmt.archRegBits, 0) << name;
        // 8x4 word: 32 operation fields + control slot = 33 mask bits,
        // the paper's "operation 33".
        if (std::string(name) == "I4C8S4") {
            EXPECT_EQ(fmt.maskBits(), 33);
        }
    }
}

TEST(IsaRoundTrip, EveryModelEncodesColorConv)
{
    // One kernel across all seven registered models: the format
    // changes shape (8x4 vs 16x2 words, reg/cluster widths) but the
    // binary image must survive decode -> re-encode everywhere.
    const KernelSpec &k = kernelByName("RGB:YCrCb converter/subsampler");
    for (const char *name :
         {"I4C8S4", "I4C8S4C", "I4C8S5", "I2C16S4", "I2C16S5",
          "I4C8S5M16", "I2C16S5M16"}) {
        for (const VariantSpec &v : k.variants) {
            IsaModule module =
                pipelineModule(k, v, models::byName(name));
            EXPECT_FALSE(module.sections.empty());
            expectBinaryRoundTrip(module, std::string(name) + "/" +
                                              v.name);
        }
    }
}

TEST(IsaRoundTrip, EveryKernelEncodesOnI4C8S4)
{
    // Every kernel's first and last variant (sequential baseline and
    // the most aggressive schedule) on the initial model.
    for (const KernelSpec &k : allKernels()) {
        std::vector<const VariantSpec *> picks = {
            &k.variants.front(), &k.variants.back()};
        for (const VariantSpec *v : picks) {
            IsaModule module =
                pipelineModule(k, *v, models::i4c8s4());
            EXPECT_FALSE(module.sections.empty());
            expectBinaryRoundTrip(module, k.name + "/" + v->name);
        }
    }
}

TEST(IsaRoundTrip, TextualAsmParsesBackIdentically)
{
    // printAsm -> parseAsm -> encode must match the direct encoding,
    // for both an acyclic module and a software-pipelined one (whose
    // sections carry ii/stages and per-op stage fields).
    struct Cell
    {
        const char *kernel;
        const char *variant;
        const char *model;
    } cells[] = {
        {"RGB:YCrCb converter/subsampler", "List-scheduled", "I4C8S4"},
        {"RGB:YCrCb converter/subsampler", "SW Pipelined & predicated",
         "I2C16S5M16"},
    };
    for (const Cell &c : cells) {
        const KernelSpec &k = kernelByName(c.kernel);
        IsaModule module = pipelineModule(k, k.variant(c.variant),
                                          models::byName(c.model));
        std::vector<uint8_t> bytes = encodeModule(module);

        IsaModule parsed;
        std::string error;
        ASSERT_TRUE(parseAsm(printAsm(module), parsed, &error))
            << c.variant << ": " << error;
        EXPECT_EQ(encodeModule(parsed), bytes)
            << c.variant << ": text round trip diverged";
    }
}

TEST(IsaRoundTrip, AbsDiffMachineNameStaysResolvable)
{
    // "Add spec. op" rows run on a derived machine; the emitted
    // `.machine` name must carry the +AD suffix so the registry can
    // resolve it when the text is re-assembled.
    const KernelSpec &k = kernelByName("Full Motion Search");
    IsaModule module =
        pipelineModule(k, k.variant("Add spec. op (blocked)"),
                       models::i4c8s4());
    EXPECT_EQ(module.machine, "I4C8S4+AD");

    IsaModule parsed;
    std::string error;
    ASSERT_TRUE(parseAsm(printAsm(module), parsed, &error)) << error;
    EXPECT_EQ(encodeModule(parsed), encodeModule(module));
}

TEST(IsaEstimate, SchedulerEstimateEqualsEncoderGroundTruth)
{
    // Real table cells carry the encoder's measured code size, and
    // their regions' words add up to it. The scheduler keeps no word
    // estimate of its own: IsaSection::words() is the one count.
    struct Cell
    {
        const char *kernel;
        const char *variant;
        const char *model;
    } cells[] = {
        {"RGB:YCrCb converter/subsampler", "List-scheduled", "I4C8S4"},
        {"Three-step Search", "Blocking/Loop Exchange", "I2C16S4"},
        {"DCT - row/column", "SW pipelined & predicated",
         "I2C16S5M16"},
    };
    for (const Cell &c : cells) {
        const KernelSpec &k = kernelByName(c.kernel);
        ExperimentRequest req;
        req.kernel = &k;
        req.variant = &k.variant(c.variant);
        req.model = models::byName(c.model);
        req.profileUnits = 1;
        ExperimentResult res = runExperiment(req);

        EXPECT_TRUE(res.passed) << c.variant;
        EXPECT_GT(res.comp.codeWords, 0) << c.variant;
        EXPECT_GT(res.comp.codeBytes, res.comp.codeWords) << c.variant;
        int64_t region_words = 0;
        for (const RegionCost &r : res.comp.regions)
            region_words += r.instructions;
        EXPECT_EQ(region_words, res.comp.codeWords) << c.variant;
    }
}

TEST(IsaSim, DecodedExecutionIsBitIdentical)
{
    // Executing the sections decoded from the encoded module must not
    // change a single cycle or memory word relative to executing the
    // composer's in-memory sections. CycleSim verifies the placements
    // of the sections it runs, so the decoded ones are checked for
    // timing and resources too, and they equal the composer's.
    struct Cell
    {
        const char *kernel;
        const char *variant;
    } cells[] = {
        {"Full Motion Search", "Blocking/Loop Exchange"},
        {"RGB:YCrCb converter/subsampler",
         "SW Pipelined & predicated"},
    };
    for (const Cell &c : cells) {
        const KernelSpec &k = kernelByName(c.kernel);
        const VariantSpec &v = k.variant(c.variant);
        MachineModel machine(models::i4c8s4());
        FrameGeometry geom{48, 32};
        Function fn = lowerVariant(k, v, machine);
        KernelSchedule schedule = Composer(machine, v.mode).schedule(fn);

        KernelSchedule decoded = schedule;
        std::vector<uint8_t> bytes = encodeModule(schedule.module);
        std::string error;
        ASSERT_TRUE(decodeModule(bytes, decoded.module, &error))
            << c.variant << ": " << error;
        ASSERT_EQ(encodeModule(decoded.module), bytes) << c.variant;
        ASSERT_EQ(decoded.module.sections.size(),
                  schedule.module.sections.size());
        for (size_t s = 0; s < schedule.module.sections.size(); ++s) {
            EXPECT_EQ(decoded.module.sections[s].placed,
                      schedule.module.sections[s].placed)
                << c.variant << " section " << s;
        }

        auto execute = [&](const KernelSchedule &sched) {
            MemoryImage mem(fn);
            k.prepare(fn, mem, geom, 0);
            CycleSimReport rep =
                CycleSim(machine, v.mode).run(fn, sched, mem);
            return std::make_pair(rep, std::move(mem));
        };
        auto [direct, mem_direct] = execute(schedule);
        auto [from_words, mem_decoded] = execute(decoded);

        EXPECT_EQ(direct.cycles, from_words.cycles) << c.variant;
        EXPECT_EQ(direct.operations, from_words.operations)
            << c.variant;
        EXPECT_EQ(direct.nullified, from_words.nullified) << c.variant;
        EXPECT_EQ(direct.transfers, from_words.transfers) << c.variant;
        EXPECT_EQ(direct.instructions, from_words.instructions)
            << c.variant;
        ASSERT_EQ(mem_direct.numBuffers(), mem_decoded.numBuffers());
        for (size_t b = 0; b < mem_direct.numBuffers(); ++b) {
            EXPECT_EQ(mem_direct.bufferWords(int(b)),
                      mem_decoded.bufferWords(int(b)))
                << c.variant << " buffer " << b;
        }
    }
}

// ----------------------------------------------------------------
// Assembler error paths (S4): one actionable diagnostic per failure
// mode, never a crash. The skeletons are minimal hand-written
// modules; opshash/maxlive are optional section fields.
// ----------------------------------------------------------------

std::string
asmWithOp(const std::string &op_line)
{
    return ".machine I4C8S4\n"
           ".section \"b\" kind=acyclic length=1\n"
           ".w 0\n"
           "  " +
           op_line + "\n";
}

void
expectAsmError(const std::string &text, const std::string &needle)
{
    IsaModule module;
    std::string error;
    EXPECT_FALSE(parseAsm(text, module, &error));
    EXPECT_NE(error.find(needle), std::string::npos)
        << "diagnostic was: " << error;
}

TEST(IsaAsmErrors, UnknownMnemonic)
{
    expectAsmError(asmWithOp("c0.s1: frobnicate v1, v0 @0"),
                   "unknown mnemonic 'frobnicate'");
}

TEST(IsaAsmErrors, ImmediateOutOfRange)
{
    expectAsmError(asmWithOp("c0.s1: add v1, v0, #99999 @0"),
                   "immediate 99999 exceeds the 16-bit field");
}

TEST(IsaAsmErrors, SlotCannotExecuteOp)
{
    // Loads issue on the memory slot (c0.s2 on I4C8S4); slot 0 has
    // no load/store capability, so the assembler must name the slot
    // and the machine.
    expectAsmError(asmWithOp("c0.s0: load v1, v0, #0 b=0 @0"),
                   "slot c0.s0 cannot execute 'load' on I4C8S4");

    // The same op on the right slot assembles.
    IsaModule module;
    std::string error;
    EXPECT_TRUE(parseAsm(asmWithOp("c0.s2: load v1, v0, #0 b=0 @0"),
                         module, &error))
        << error;
}

TEST(IsaAsmErrors, SlotOutsideWord)
{
    expectAsmError(asmWithOp("c9.s0: add v1, v0, #1 @0"),
                   "slot c9.s0 outside the 8x4 word");
}

TEST(IsaAsmErrors, StructuralViolations)
{
    // An op before any section, and a section before any machine.
    expectAsmError("  c0.s1: add v1, v0, #1 @0\n",
                   "operation outside a section");
    expectAsmError(".section \"b\" kind=acyclic length=1\n",
                   ".section before .machine");

    // Memory ops must name their bank; every op needs its program
    // index; a slot holds one op per word.
    expectAsmError(asmWithOp("c0.s2: load v1, v0, #0 @0"),
                   "wants b=<buffer>");
    expectAsmError(asmWithOp("c0.s1: add v1, v0, #1"),
                   "missing @<program index>");
    expectAsmError(asmWithOp("c0.s1: add v1, v0, #1 @0\n"
                             "  c0.s1: add v2, v0, #2 @1"),
                   "slot already occupied");
}

TEST(IsaAsmErrors, DeclaredOpsHashMismatch)
{
    // A declared opshash that disagrees with the ops is the
    // section integrity check firing at the text layer.
    expectAsmError(".machine I4C8S4\n"
                   ".section \"b\" kind=acyclic length=1 "
                   "opshash=0xdeadbeefdeadbeef\n"
                   ".w 0\n"
                   "  c0.s1: add v1, v0, #1 @0\n",
                   "opshash mismatch");
}

TEST(IsaAsmErrors, TruncatedBinaryNeverCrashes)
{
    // Every prefix of a real image must decode to a diagnostic.
    const KernelSpec &k = kernelByName("RGB:YCrCb converter/subsampler");
    IsaModule module = pipelineModule(k, k.variant("List-scheduled"),
                                      models::i4c8s4());
    std::vector<uint8_t> bytes = encodeModule(module);
    ASSERT_GT(bytes.size(), 64u);

    // The final byte may hold only padding bits, so the shallowest
    // cut still has to remove real payload.
    for (size_t cut :
         {size_t{0}, size_t{3}, size_t{6}, size_t{21}, size_t{40},
          bytes.size() / 2, bytes.size() - 16}) {
        std::vector<uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
        IsaModule out;
        std::string error;
        EXPECT_FALSE(decodeModule(trunc, out, &error))
            << "cut=" << cut;
        EXPECT_FALSE(error.empty()) << "cut=" << cut;
    }

    // Flipping a payload byte must be caught (ops hash or operand
    // validation), not silently decoded into different code.
    std::vector<uint8_t> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x5a;
    IsaModule out;
    std::string error;
    std::vector<uint8_t> reenc;
    if (decodeModule(flipped, out, &error))
        reenc = encodeModule(out);
    EXPECT_NE(reenc, bytes);
}

} // namespace
