#include "core/cache_fsck.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "core/disk_cache.hh"
#include "obs/run_ledger.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace vvsp
{

namespace
{

namespace fs = std::filesystem;

/**
 * Move a damaged file into `dir`/quarantine/, keeping its name (a
 * numeric suffix resolves collisions). Returns false when the move
 * itself fails — the damage then stays in place and counts as
 * unrepaired.
 */
bool
quarantine(const fs::path &dir, const fs::path &file)
{
    std::error_code ec;
    fs::path qdir = dir / "quarantine";
    fs::create_directories(qdir, ec);
    if (ec)
        return false;
    fs::path target = qdir / file.filename();
    for (int i = 1; fs::exists(target, ec) && i < 1000; ++i) {
        target = qdir / (file.filename().string() + "." +
                         std::to_string(i));
    }
    fs::rename(file, target, ec);
    return !ec;
}

void
addFinding(FsckReport &report, const std::string &path,
           const std::string &what, const std::string &action,
           bool repaired)
{
    report.findings.push_back({path, what, action});
    if (!repaired)
        report.unrepaired++;
}

} // anonymous namespace

FsckReport
fsckCacheDir(const std::string &dir, bool repair)
{
    FsckReport report;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return report; // missing directory is vacuously clean.

    for (const fs::directory_entry &de : it) {
        if (!de.is_regular_file(ec))
            continue;
        const fs::path &p = de.path();
        std::string name = p.filename().string();
        std::string path = p.string();

        // Files no reader opens: orphan temp files (a writer died
        // between creating its unique temp and the publishing
        // rename) and .blob files (encoded ISA modules that older
        // builds stored beside the entries). Repair deletes them.
        const char *unread =
            name.find(".tmp.") != std::string::npos
                ? "orphan temp file"
                : p.extension() == ".blob" ? "retired .blob file"
                                           : nullptr;
        if (unread) {
            if (repair)
                fs::remove(p, ec);
            bool removed = repair && !ec;
            addFinding(report, path, unread,
                       removed ? "removed" : "none", removed);
            continue;
        }
        if (p.extension() != ".entry")
            continue; // ledger and friends; not cache records.

        std::string why, key;
        bool ok = DiskCache::validateEntryFile(path, &key, &why);
        if (ok && p.stem().string() != DiskCache::hashedStem(key)) {
            ok = false;
            why = "filename does not match key hash";
        }
        if (ok) {
            report.entriesOk++;
            continue;
        }
        if (repair) {
            bool moved = quarantine(dir, p);
            addFinding(report, path, why,
                       moved ? "quarantined" : "none", moved);
        } else {
            addFinding(report, path, why, "none", false);
        }
    }
    return report;
}

void
fsckLedger(const std::string &path, bool repair, FsckReport &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return; // no ledger is a clean ledger.
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string text = buf.str();
    is.close();

    std::vector<std::string> good;
    uint64_t bad = 0;
    bool torn_tail = false;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        bool has_newline = nl != std::string::npos;
        std::string line =
            text.substr(pos, (has_newline ? nl : text.size()) - pos);
        pos = has_newline ? nl + 1 : text.size();
        if (line.empty())
            continue;
        json::Value v;
        std::string error;
        obs::RunManifest m;
        bool parses = json::parse(line, v, error) &&
                      obs::parseManifest(v, m, error);
        if (parses && has_newline) {
            out.ledgerOk++;
            good.push_back(std::move(line));
        } else if (!has_newline) {
            // Cut mid-append: the flock'd whole-line write protocol
            // means only the final line can lack its newline.
            torn_tail = true;
            bad++;
        } else {
            bad++;
        }
    }
    if (bad == 0)
        return;

    std::string what = torn_tail
                           ? "torn final ledger line"
                           : "malformed ledger line(s)";
    if (bad > 1)
        what += " (" + std::to_string(bad) + " lines)";
    if (!repair) {
        addFinding(out, path, what, "none", false);
        return;
    }

    // Rewrite keeping only well-formed lines, under the same flock
    // the appenders take, so a concurrent append cannot interleave
    // with the rewrite. (Writers that raced ahead of the rename
    // append to the old inode and lose that line; fsck is a
    // maintenance tool, run it quiesced.)
    int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) {
        addFinding(out, path, what, "none", false);
        return;
    }
    ::flock(fd, LOCK_EX);
    std::string tmp = path + ".fsck.tmp." +
                      std::to_string(::getpid());
    bool ok = false;
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (os) {
            for (const std::string &line : good)
                os << line << '\n';
            os.flush();
            ok = static_cast<bool>(os);
        }
    }
    if (ok && std::rename(tmp.c_str(), path.c_str()) != 0)
        ok = false;
    if (!ok)
        std::remove(tmp.c_str());
    ::flock(fd, LOCK_UN);
    ::close(fd);
    addFinding(out, path, what, ok ? "repaired" : "none", ok);
}

} // namespace vvsp
