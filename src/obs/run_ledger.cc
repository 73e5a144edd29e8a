#include "obs/run_ledger.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "obs/stats_registry.hh"
#include "support/failpoint.hh"
#include "support/io_retry.hh"
#include "support/json.hh"

namespace vvsp
{
namespace obs
{

namespace
{

/** Non-finite doubles would produce invalid JSON; store 0 instead. */
double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

void
putNumber(std::ostringstream &os, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", finite(v));
    os << buf;
}

void
putQuantile(std::ostringstream &os, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", finite(v));
    os << buf;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    size_t n = std::strlen(suffix);
    return s.size() >= n &&
           s.compare(s.size() - n, n, suffix) == 0;
}

/** Higher-is-better metrics by naming convention. */
bool
higherIsBetter(const std::string &name)
{
    return endsWith(name, "_per_s") || endsWith(name, "_rate");
}

/** Hit counters growing is cache warm-up, never a regression. */
bool
isHitCounter(const std::string &path)
{
    size_t slash = path.rfind('/');
    std::string last =
        slash == std::string::npos ? path : path.substr(slash + 1);
    return last.find("hit") != std::string::npos;
}

uint64_t
asU64(const json::Value &v)
{
    double d = v.asNumber();
    return d <= 0 ? 0 : static_cast<uint64_t>(d);
}

} // anonymous namespace

void
snapshotStats(const StatsRegistry &stats, RunManifest &m)
{
    m.counters = stats.counters();
    m.distributions.clear();
    for (const auto &[path, hist] : stats.distributions()) {
        DistSummary d;
        d.path = path;
        d.count = hist.count();
        d.sum = hist.sum();
        d.min = hist.min();
        d.max = hist.max();
        d.p50 = hist.p50();
        d.p90 = hist.p90();
        d.p99 = hist.p99();
        m.distributions.push_back(std::move(d));
    }
}

double
manifestMetric(const RunManifest &m, const std::string &name,
               double fallback)
{
    for (const auto &[k, v] : m.metrics) {
        if (k == name)
            return v;
    }
    return fallback;
}

std::string
manifestJsonLine(const RunManifest &m)
{
    std::ostringstream os;
    os << "{\"schema\": " << m.schema << ", \"time\": " << m.unixTime
       << ", \"subcommand\": \"" << json::escape(m.subcommand)
       << "\", \"threads\": " << m.threads
       << ", \"cache\": {\"disk\": "
       << (m.diskCache ? "true" : "false")
       << ", \"dir\": \"" << json::escape(m.cacheDir) << "\"}"
       << ", \"machines\": [";
    for (size_t i = 0; i < m.machines.size(); ++i) {
        os << (i ? ", " : "") << "{\"name\": \""
           << json::escape(m.machines[i].first) << "\", \"key\": \""
           << json::escape(m.machines[i].second) << "\"}";
    }
    os << "], \"wall_us\": " << m.wallUs << ", \"metrics\": {";
    for (size_t i = 0; i < m.metrics.size(); ++i) {
        os << (i ? ", " : "") << "\""
           << json::escape(m.metrics[i].first) << "\": ";
        putNumber(os, m.metrics[i].second);
    }
    os << "}, \"counters\": {";
    for (size_t i = 0; i < m.counters.size(); ++i) {
        os << (i ? ", " : "") << "\""
           << json::escape(m.counters[i].first)
           << "\": " << m.counters[i].second;
    }
    os << "}, \"distributions\": {";
    for (size_t i = 0; i < m.distributions.size(); ++i) {
        const DistSummary &d = m.distributions[i];
        os << (i ? ", " : "") << "\"" << json::escape(d.path)
           << "\": {\"count\": " << d.count << ", \"sum\": " << d.sum
           << ", \"min\": " << d.min << ", \"max\": " << d.max
           << ", \"p50\": ";
        putQuantile(os, d.p50);
        os << ", \"p90\": ";
        putQuantile(os, d.p90);
        os << ", \"p99\": ";
        putQuantile(os, d.p99);
        os << "}";
    }
    os << "}}";
    return os.str();
}

bool
parseManifest(const json::Value &v, RunManifest &out, std::string &error)
{
    if (!v.isObject()) {
        error = "manifest is not an object";
        return false;
    }
    const json::Value *schema = v.find("schema");
    if (!schema || !schema->isNumber() ||
        static_cast<int>(schema->asNumber()) != RunManifest::kSchema) {
        error = "missing or mismatched schema";
        return false;
    }
    const json::Value *sub = v.find("subcommand");
    if (!sub || !sub->isString()) {
        error = "missing subcommand";
        return false;
    }
    RunManifest m;
    m.subcommand = sub->asString();
    if (const json::Value *t = v.find("time"); t && t->isNumber())
        m.unixTime = static_cast<int64_t>(t->asNumber());
    if (const json::Value *t = v.find("threads"); t && t->isNumber())
        m.threads = static_cast<int>(t->asNumber());
    if (const json::Value *c = v.find("cache"); c && c->isObject()) {
        if (const json::Value *x = c->find("disk"); x && x->isBool())
            m.diskCache = x->asBool();
        if (const json::Value *x = c->find("dir"); x && x->isString())
            m.cacheDir = x->asString();
    }
    if (const json::Value *ms = v.find("machines");
        ms && ms->isArray()) {
        for (const json::Value &e : ms->array()) {
            const json::Value *name = e.find("name");
            const json::Value *key = e.find("key");
            if (name && name->isString() && key && key->isString())
                m.machines.emplace_back(name->asString(),
                                        key->asString());
        }
    }
    if (const json::Value *w = v.find("wall_us"); w && w->isNumber())
        m.wallUs = asU64(*w);
    if (const json::Value *mm = v.find("metrics");
        mm && mm->isObject()) {
        for (const auto &[name, val] : mm->members()) {
            if (val.isNumber())
                m.metrics.emplace_back(name, val.asNumber());
        }
    }
    if (const json::Value *cs = v.find("counters");
        cs && cs->isObject()) {
        for (const auto &[name, val] : cs->members()) {
            if (val.isNumber())
                m.counters.emplace_back(name, asU64(val));
        }
    }
    if (const json::Value *ds = v.find("distributions");
        ds && ds->isObject()) {
        for (const auto &[name, val] : ds->members()) {
            if (!val.isObject())
                continue;
            DistSummary d;
            d.path = name;
            if (const json::Value *x = val.find("count"))
                d.count = asU64(*x);
            if (const json::Value *x = val.find("sum"))
                d.sum = asU64(*x);
            if (const json::Value *x = val.find("min"))
                d.min = asU64(*x);
            if (const json::Value *x = val.find("max"))
                d.max = asU64(*x);
            if (const json::Value *x = val.find("p50");
                x && x->isNumber())
                d.p50 = x->asNumber();
            if (const json::Value *x = val.find("p90");
                x && x->isNumber())
                d.p90 = x->asNumber();
            if (const json::Value *x = val.find("p99");
                x && x->isNumber())
                d.p99 = x->asNumber();
            m.distributions.push_back(std::move(d));
        }
    }
    out = std::move(m);
    return true;
}

std::string
defaultLedgerPath()
{
    if (const char *env = std::getenv("VVSP_LEDGER"))
        return env;
    std::string dir;
    if (const char *cache = std::getenv("VVSP_CACHE_DIR"))
        dir = cache;
    else if (const char *xdg = std::getenv("XDG_CACHE_HOME"))
        dir = std::string(xdg) + "/vvsp";
    else if (const char *home = std::getenv("HOME"))
        dir = std::string(home) + "/.cache/vvsp";
    else
        dir = ".vvsp-cache";
    return dir + "/ledger.jsonl";
}

bool
appendToLedger(const std::string &path, const RunManifest &m)
{
    std::string line = manifestJsonLine(m);
    line += '\n';

    std::error_code ec;
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);

    // The open can hit transient errno values (EINTR, EAGAIN on some
    // filesystems); retry with backoff before giving up. The
    // "ledger/append_open" failpoint simulates one transient failure
    // per fire.
    int fd = -1;
    IoStatus open_st = withRetry(defaultRetryPolicy(), [&] {
        if (failpoint::evaluate("ledger/append_open"))
            return IoStatus::Transient;
        errno = 0;
        fd = ::open(path.c_str(),
                    O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd < 0)
            return classifyErrno(errno != 0 ? errno : EIO);
        return IoStatus::Ok;
    });
    if (open_st != IoStatus::Ok || fd < 0)
        return false;
    // O_APPEND makes a single write atomic w.r.t. the file offset;
    // the flock additionally serializes the (rare) short-write retry
    // loop so a line can never interleave with another writer's.
    ::flock(fd, LOCK_EX);
    const char *data = line.data();
    size_t left = line.size();
    bool ok = true;
    if (failpoint::evaluate("ledger/append_torn")) {
        // Simulate a crash mid-append: half the line, no newline —
        // exactly the torn tail `vvsp fsck` must detect and repair.
        size_t n = line.size() / 2;
        ok = ::write(fd, data, n) == static_cast<ssize_t>(n) && false;
        left = 0;
    }
    while (left > 0) {
        ssize_t n = ::write(fd, data, left);
        if (n <= 0) {
            ok = false;
            break;
        }
        data += n;
        left -= static_cast<size_t>(n);
    }
    ::flock(fd, LOCK_UN);
    ::close(fd);
    return ok;
}

bool
readLedger(const std::string &path, std::vector<RunManifest> &out,
           size_t *malformed)
{
    if (malformed)
        *malformed = 0;
    std::ifstream is(path);
    if (!is)
        return false;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        json::Value v;
        std::string error;
        RunManifest m;
        if (json::parse(line, v, error) &&
            parseManifest(v, m, error)) {
            out.push_back(std::move(m));
        } else if (malformed) {
            ++*malformed;
        }
    }
    return true;
}

std::vector<Regression>
diffManifests(const RunManifest &a, const RunManifest &b,
              const DiffOptions &opts)
{
    std::vector<Regression> regs;

    for (const auto &[name, before] : a.metrics) {
        double after = manifestMetric(b, name,
                                      std::nan(""));
        if (!std::isfinite(after) || before <= 0)
            continue;
        // Absolute noise gate scaled to the metric's unit.
        double floor = endsWith(name, "_us") ? opts.latencyFloorUs
                       : endsWith(name, "_s")
                           ? opts.latencyFloorUs / 1e6
                           : 0.0;
        if (higherIsBetter(name)) {
            if (after * opts.ratio < before)
                regs.push_back({name, before, after});
        } else if (after > before * opts.ratio &&
                   after - before > floor) {
            regs.push_back({name, before, after});
        }
    }

    for (const auto &[path, before] : a.counters) {
        if (before == 0 || isHitCounter(path))
            continue;
        uint64_t after = 0;
        bool found = false;
        for (const auto &[bp, bv] : b.counters) {
            if (bp == path) {
                after = bv;
                found = true;
                break;
            }
        }
        if (!found)
            continue;
        if (static_cast<double>(after) >
                static_cast<double>(before) * opts.ratio &&
            after - before >= opts.counterFloor) {
            regs.push_back({path, static_cast<double>(before),
                            static_cast<double>(after)});
        }
    }

    for (const DistSummary &da : a.distributions) {
        if (!endsWith(da.path, "_us") || da.count == 0)
            continue;
        const DistSummary *db = nullptr;
        for (const DistSummary &d : b.distributions) {
            if (d.path == da.path) {
                db = &d;
                break;
            }
        }
        if (!db || db->count == 0)
            continue;
        double sum_a = static_cast<double>(da.sum);
        double sum_b = static_cast<double>(db->sum);
        if (sum_b > sum_a * opts.ratio &&
            sum_b - sum_a > opts.latencyFloorUs)
            regs.push_back({da.path + "/sum", sum_a, sum_b});
        if (db->p99 > da.p99 * opts.ratio &&
            db->p99 - da.p99 > opts.latencyFloorUs)
            regs.push_back({da.path + "/p99", da.p99, db->p99});
    }

    return regs;
}

} // namespace obs
} // namespace vvsp
