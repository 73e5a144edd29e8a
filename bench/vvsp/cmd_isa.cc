/**
 * @file
 * `vvsp asm` / `vvsp disasm`: the ISA tools.
 *
 *   vvsp asm FILE.s [--out=FILE.bin]
 *       Assemble canonical textual assembly (isa/disassembler.hh
 *       grammar) into the binary instruction-word image. Without
 *       --out the bytes go to stdout.
 *
 *   vvsp asm --kernel=NAME [--variant=NAME] [--machine=MODEL]
 *            [--out=FILE.bin]
 *       Lower a kernel variant and schedule it (Composer::schedule,
 *       the table cells' own scheduling path) and emit its encoded
 *       module: canonical assembly on stdout, or the binary image
 *       with --out. Code does not depend on a profile, so nothing is
 *       interpreted or priced. Kernels resolve by registered name or
 *       table alias (`vvsp list`); the machine defaults to I4C8S4.
 *
 *   vvsp disasm FILE.bin
 *       Decode a binary image back to canonical assembly. The decoder
 *       re-derives every field width and verifies the per-section
 *       semantic hash, so a corrupted image fails with a diagnostic
 *       instead of printing garbage.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "driver.hh"

#include "arch/models.hh"
#include "core/experiment.hh"
#include "isa/disassembler.hh"
#include "isa/encoder.hh"

namespace vvsp
{
namespace cli
{

namespace
{

bool
readFileBytes(const std::string &path, std::vector<uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string &s = ss.str();
    out.assign(s.begin(), s.end());
    return true;
}

bool
writeFileBytes(const std::string &path,
               const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

/** Resolve a kernel by registered name or table-section alias. */
const KernelSpec *
resolveKernel(const std::string &name)
{
    for (const KernelSpec &k : allKernels()) {
        if (k.name == name)
            return &k;
    }
    for (const ExperimentSpec &spec : experimentSpecs()) {
        for (const SpecSection &s : spec.sections) {
            if (s.alias == name)
                return &kernelByName(s.kernel);
        }
    }
    std::fprintf(stderr, "vvsp: no kernel '%s' (aliases:",
                 name.c_str());
    for (const SpecSection &s : findExperimentSpec("table1")->sections)
        std::fprintf(stderr, " %s", s.alias.c_str());
    std::fprintf(stderr, ")\n");
    std::exit(2);
}

const VariantSpec *
resolveVariant(const KernelSpec &kernel, const std::string &name)
{
    if (!name.empty()) {
        for (const VariantSpec &v : kernel.variants) {
            if (v.name == name)
                return &v;
        }
    }
    std::fprintf(stderr,
                 "vvsp: %s a --variant of '%s' (variants:",
                 name.empty() ? "pick" : "no such", kernel.name.c_str());
    for (const VariantSpec &v : kernel.variants)
        std::fprintf(stderr, " \"%s\"", v.name.c_str());
    std::fprintf(stderr, ")\n");
    std::exit(2);
}

/** A table cell's encoded module: lower, then schedule. */
IsaModule
encodeKernelModule(const KernelSpec &kernel, const VariantSpec &variant,
                   const DatapathConfig &cfg)
{
    DatapathConfig eff = variantConfig(variant, cfg);
    if (eff.cluster.hasAbsDiff != cfg.cluster.hasAbsDiff) {
        // The "+AD" derivation, so the emitted `.machine` name stays
        // registry-resolvable when the text is re-assembled.
        eff = models::withAbsDiff(cfg);
    }
    MachineModel machine(eff);

    Function fn = lowerVariant(kernel, variant, machine);
    return Composer(machine, variant.mode).schedule(fn).module;
}

int
emitModule(const IsaModule &module, const DriverOptions &opts)
{
    std::vector<uint8_t> bytes = encodeModule(module);
    int64_t words = 0;
    for (const IsaSection &s : module.sections)
        words += s.words();
    if (opts.outPath.empty()) {
        // Without --out the module prints as canonical assembly; the
        // binary spelling is one `vvsp asm` of that output away.
        std::fputs(printAsm(module).c_str(), stdout);
    } else if (!writeFileBytes(opts.outPath, bytes)) {
        std::fprintf(stderr, "vvsp: cannot write %s\n",
                     opts.outPath.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "asm: %s: %zu sections, %lld words, %zu bytes%s%s\n",
                 module.name.c_str(), module.sections.size(),
                 static_cast<long long>(words), bytes.size(),
                 opts.outPath.empty() ? "" : " -> ",
                 opts.outPath.c_str());
    return 0;
}

} // anonymous namespace

int
cmdAsm(const DriverOptions &opts)
{
    if (!opts.kernelName.empty()) {
        const KernelSpec *kernel = resolveKernel(opts.kernelName);
        const VariantSpec *variant =
            resolveVariant(*kernel, opts.variant);
        std::vector<DatapathConfig> machines =
            resolveMachines(opts, {models::i4c8s4()});

        Observability sinks(opts);
        sinks.setMachines(machines);
        IsaModule module =
            encodeKernelModule(*kernel, *variant, machines.front());
        return emitModule(module, opts);
    }

    if (opts.positional.size() != 1) {
        std::fprintf(stderr,
                     "usage: vvsp asm FILE.s [--out=FILE.bin]\n"
                     "       vvsp asm --kernel=NAME [--variant=NAME] "
                     "[--machine=MODEL] [--out=FILE.bin]\n");
        return 2;
    }
    std::vector<uint8_t> text;
    if (!readFileBytes(opts.positional.front(), text)) {
        std::fprintf(stderr, "vvsp: cannot read %s\n",
                     opts.positional.front().c_str());
        return 1;
    }
    // --machine overrides the `.machine` directive — required for
    // modules emitted against JSON machine files, whose names the
    // registry cannot resolve.
    const DatapathConfig *machine_override = nullptr;
    std::vector<DatapathConfig> machines = resolveMachines(opts);
    if (!machines.empty())
        machine_override = &machines.front();
    IsaModule module;
    std::string error;
    if (!parseAsm(std::string(text.begin(), text.end()), module,
                  &error, machine_override)) {
        std::fprintf(stderr, "vvsp asm: %s: %s\n",
                     opts.positional.front().c_str(), error.c_str());
        return 1;
    }
    std::vector<uint8_t> bytes = encodeModule(module);
    if (opts.outPath.empty()) {
        std::fwrite(bytes.data(), 1, bytes.size(), stdout);
        return 0;
    }
    if (!writeFileBytes(opts.outPath, bytes)) {
        std::fprintf(stderr, "vvsp: cannot write %s\n",
                     opts.outPath.c_str());
        return 1;
    }
    std::fprintf(stderr, "asm: %s -> %s (%zu bytes)\n",
                 opts.positional.front().c_str(), opts.outPath.c_str(),
                 bytes.size());
    return 0;
}

int
cmdDisasm(const DriverOptions &opts)
{
    if (opts.positional.size() != 1) {
        std::fprintf(stderr, "usage: vvsp disasm FILE.bin\n");
        return 2;
    }
    std::vector<uint8_t> bytes;
    if (!readFileBytes(opts.positional.front(), bytes)) {
        std::fprintf(stderr, "vvsp: cannot read %s\n",
                     opts.positional.front().c_str());
        return 1;
    }
    IsaModule module;
    std::string error;
    if (!decodeModule(bytes, module, &error)) {
        std::fprintf(stderr, "vvsp disasm: %s: %s\n",
                     opts.positional.front().c_str(), error.c_str());
        return 1;
    }
    std::fputs(printAsm(module).c_str(), stdout);
    return 0;
}

} // namespace cli
} // namespace vvsp
