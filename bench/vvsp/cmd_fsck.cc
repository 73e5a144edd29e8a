/**
 * @file
 * `vvsp fsck`: verify (and by default repair) the persistent cache
 * directory and the run ledger.
 *
 *   vvsp fsck [--cache-dir=DIR] [--ledger[=FILE]] [--no-quarantine]
 *
 * Scans every .entry file in the cache directory, verifying magic,
 * schema version, full-body structure, and that the filename matches
 * the FNV-1a hash of the embedded key; sweeps orphan temp files and
 * the .blob files older builds wrote; and validates the ledger
 * line-by-line, detecting a torn final line. In the default repair
 * mode damaged entries move to `<dir>/quarantine/` and the ledger is
 * rewritten without its malformed lines.
 *
 * Exit codes: 0 when the stores are clean or all damage was
 * repaired/quarantined (warnings on stdout), 1 when damage remains
 * in place (--no-quarantine, or a quarantine move failed), 2 on
 * usage errors.
 */

#include <cstdio>

#include "core/cache_fsck.hh"
#include "driver.hh"

namespace vvsp
{
namespace cli
{

int
cmdFsck(const DriverOptions &opts)
{
    if (!opts.positional.empty()) {
        std::fprintf(stderr,
                     "vvsp fsck: unexpected argument '%s' (flags: "
                     "--cache-dir=DIR --ledger[=FILE] "
                     "--no-quarantine)\n",
                     opts.positional.front().c_str());
        return kExitUsage;
    }
    std::string dir = opts.cacheDir.empty() ? DiskCache::defaultDir()
                                            : opts.cacheDir;
    std::string ledger = opts.ledgerPath.empty()
                             ? obs::defaultLedgerPath()
                             : opts.ledgerPath;
    bool repair = opts.fsckRepair;

    FsckReport report = fsckCacheDir(dir, repair);
    fsckLedger(ledger, repair, report);

    std::printf("fsck: %s (%s)\n", dir.c_str(),
                repair ? "repair mode"
                       : "check only (--no-quarantine)");
    std::printf("  entries ok: %llu\n"
                "  ledger ok:  %llu line(s) (%s)\n",
                static_cast<unsigned long long>(report.entriesOk),
                static_cast<unsigned long long>(report.ledgerOk),
                ledger.c_str());
    for (const FsckFinding &f : report.findings) {
        std::printf("  %s: %s [%s]\n", f.path.c_str(),
                    f.what.c_str(), f.action.c_str());
    }
    if (report.findings.empty()) {
        std::printf("clean\n");
        return kExitOk;
    }
    if (report.unrepaired > 0) {
        std::printf("%llu damaged file(s)/line(s) left in place\n",
                    static_cast<unsigned long long>(
                        report.unrepaired));
        return kExitRuntime;
    }
    std::printf("%zu finding(s), all repaired or quarantined\n",
                report.findings.size());
    return kExitOk;
}

} // namespace cli
} // namespace vvsp
