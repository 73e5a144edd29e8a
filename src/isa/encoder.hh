/**
 * @file
 * Packing scheduled code into long-instruction words.
 *
 * A scheduled group (acyclic block or modulo kernel) becomes an
 * IsaSection: its operations in program order plus one placement per
 * op, word-addressable by construction. The encoder serializes a
 * module of sections to canonical textual assembly (printAsm) and to
 * a binary image (encodeModule) whose per-word payload is exactly
 * the architectural bit budget of the IsaFormat: a slot-occupancy
 * mask (NOP compression) followed by the present operation fields.
 * Decode (isa/disassembler.hh) followed by re-encode is
 * byte-identical; the tests enforce it.
 *
 * Word geometry: an acyclic section occupies `length` words (word w
 * holds the ops issued at cycle w, the closing branch in its cycle's
 * control slot); a modulo section occupies `ii` words (word w holds
 * the ops whose cycle maps to modulo row w, each carrying its stage
 * number, which is how real software-pipelined hardware replays the
 * kernel). IsaSection::words() is the one code-size count, so
 * icache-fit checks run against encoder ground truth.
 *
 * The section is a scheduled group's only record: pricing, the cycle
 * simulator, telemetry and trace diagrams all read its placements,
 * word count and fill/drain cycles, never a second copy.
 */

#ifndef VVSP_ISA_ENCODER_HH
#define VVSP_ISA_ENCODER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/machine_model.hh"
#include "ir/operation.hh"
#include "isa/format.hh"
#include "sched/schedule.hh"

namespace vvsp
{

/** Maps a buffer id to its memory bank (from the function). */
using IsaBankOfFn = std::function<int(int buffer)>;

/** One encoded schedule region (acyclic block or modulo kernel). */
struct IsaSection
{
    std::string label;
    bool modulo = false;
    /** Sequential baseline: one operation per instruction word. */
    bool width1 = false;

    int length = 0;  ///< acyclic: cycles incl. branch shadow.
    int ii = 0;      ///< modulo: initiation interval (else 0).
    int stages = 0;  ///< modulo: overlapped stages (else 0).
    int maxLive = 0; ///< peak per-cluster register pressure.

    /** Semantic hash of `ops` (isaOpsHash); decode and assembly
     *  reject a section whose ops do not match it. */
    uint64_t opsHash = 0;

    /** Operations in program order, immediates canonicalized. */
    std::vector<Operation> ops;
    /** Placement per operation (parallel to `ops`): absolute issue
     *  cycle within the section, cluster, and issue slot (-1: the
     *  machine-wide control slot). */
    std::vector<PlacedOp> placed;

    /**
     * Long-instruction words this section occupies. Kernel-only code
     * for a modulo section: the machine's predicated execution fills
     * and drains the pipeline from the same II words (the ramp costs
     * cycles but no icache space).
     */
    int words() const { return modulo ? ii : length; }

    /** Modulo section: cycles one loop entry spends filling and
     *  draining the pipeline, (stages - 1) * ii each (else 0). */
    int rampCycles() const { return modulo ? 2 * (stages - 1) * ii : 0; }
};

/** An encodable unit: every scheduled section of one lowered fn. */
struct IsaModule
{
    /** Machine display name (registry-resolvable for `vvsp asm`). */
    std::string machine;
    std::string name;
    IsaFormat fmt;
    std::vector<IsaSection> sections;
};

/** Measured code size of one section under a format. */
struct SectionStats
{
    int64_t words = 0;
    int64_t bytes = 0;    ///< ceil(payloadBits / 8).
    int64_t nopSlots = 0; ///< empty issue+control slots over all words.
    int64_t payloadBits = 0;
};

/**
 * FNV-1a 64 over the canonical semantic fields of every op (opcode,
 * dst, sources, predicate, buffer, cluster, transfer target). Ids
 * and alias metadata are excluded, so the hash of freshly lowered
 * ops matches the hash stored when the section was first encoded.
 */
uint64_t isaOpsHash(const std::vector<Operation> &ops);

/**
 * Build a section from a scheduled group: the schedule's shape and
 * placements, with immediates canonicalized to their architectural
 * 16-bit value (sign-extended back to int32, matching simulator
 * truncation). Modulo schedules carry no slot assignment (the placer
 * leaves slot 0 everywhere), so a modulo section's slots are the
 * witness assignment (witnessSlots in sched/reservation_table.hh).
 */
IsaSection buildSection(const std::string &label,
                        const std::vector<Operation> &ops,
                        const BlockSchedule &sched, bool width1,
                        const MachineModel &machine,
                        const IsaBankOfFn &bank_of);

/** Code-size accounting for one section. */
SectionStats sectionStats(const IsaSection &sec, const IsaFormat &fmt);

/**
 * Serialize a module to its binary image (magic "VISA", version,
 * machine + format header, then per-section headers, packed words,
 * and the program-order side table).
 */
std::vector<uint8_t> encodeModule(const IsaModule &module);

/** Canonical textual assembly (parseAsm round-trips it). */
std::string printAsm(const IsaModule &module);

namespace isa_detail
{

/** Per-section field widths recomputed from the ops (see format). */
struct SectionWidths
{
    int regBits = 0;
    int bufBits = 0;
    int stageBits = 0;
    int seqBits = 0;
};

SectionWidths sectionWidths(const IsaSection &sec,
                            const IsaFormat &fmt);

/** Architectural payload bits of one operation field. */
int opPayloadBits(const Operation &op, const IsaFormat &fmt,
                  const SectionWidths &w, bool modulo);

/** Binary container version (bump on any layout change). */
constexpr int kIsaBinaryVersion = 1;

} // namespace isa_detail

} // namespace vvsp

#endif // VVSP_ISA_ENCODER_HH
