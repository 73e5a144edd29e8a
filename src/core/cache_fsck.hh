/**
 * @file
 * Cache-directory and ledger integrity checking (`vvsp fsck`).
 *
 * The disk cache publishes entries with atomic renames and the
 * ledger appends whole lines under flock, so under normal operation
 * neither can tear — but power loss, full disks, kill -9 mid-store,
 * or foreign writers can still leave damage behind: orphan temp
 * files that never got renamed, torn entries from fsync-less
 * crashes, entries from older schema versions, files whose name no
 * longer matches the FNV-1a hash of the key inside them, and a
 * ledger whose final line was cut mid-append. Older builds also
 * stored .blob files (encoded ISA modules) that no build reads now.
 *
 * fsckCacheDir() scans one cache directory, classifies every file,
 * and (in repair mode) moves damaged files into `<dir>/quarantine/`
 * and deletes orphan temp files and retired .blob files;
 * fsckLedger() validates a ledger line-by-line and (in repair mode)
 * truncates a torn final line and rewrites the file dropping
 * interior malformed lines. Both are read-only when `repair` is
 * false.
 *
 * The readers already treat damaged files as misses, so fsck is
 * about visibility and reclamation, not correctness: a dirty cache
 * works, it just silently recomputes. Exit-code policy (see
 * cmd_fsck.cc): damage that was repaired or quarantined is success
 * with warnings; damage left in place is failure.
 */

#ifndef VVSP_CORE_CACHE_FSCK_HH
#define VVSP_CORE_CACHE_FSCK_HH

#include <string>
#include <vector>

namespace vvsp
{

/** One damaged (or suspicious) file found by a scan. */
struct FsckFinding
{
    std::string path;   ///< file the finding is about.
    std::string what;   ///< damage class, e.g. "torn entry".
    std::string action; ///< "quarantined", "removed", "none".
};

/** Scan results for one cache directory / ledger. */
struct FsckReport
{
    uint64_t entriesOk = 0;    ///< healthy .entry files.
    uint64_t ledgerOk = 0;     ///< well-formed ledger lines.
    std::vector<FsckFinding> findings;

    /** Damage found but left in place (check-only mode or a failed
     *  quarantine move) — the nonzero-exit condition. */
    uint64_t unrepaired = 0;
};

/**
 * Scan every .entry/.blob/temp file directly inside `dir`
 * (non-recursive; the quarantine subdirectory is skipped). With
 * `repair`, damaged entries move to `dir`/quarantine/ (keeping their
 * names, a numeric suffix on collision) and orphan temp files and
 * retired .blob files are deleted; without it, findings are only
 * reported and count as unrepaired.
 */
FsckReport fsckCacheDir(const std::string &dir, bool repair);

/**
 * Validate the ledger at `path` line-by-line (missing file is
 * clean). A torn final line (no trailing newline or unparsable
 * JSON at EOF) and interior malformed lines are findings; with
 * `repair`, the file is rewritten under flock keeping only
 * well-formed lines. The report is merged into `out`.
 */
void fsckLedger(const std::string &path, bool repair,
                FsckReport &out);

} // namespace vvsp

#endif // VVSP_CORE_CACHE_FSCK_HH
