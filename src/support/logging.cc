#include "support/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace vvsp
{

namespace
{

/**
 * Serializes diagnostic lines. Each message is formatted into a
 * string first and written with a single fprintf under this lock, so
 * concurrent sweep workers never interleave partial lines. The fatal
 * paths stay lock-free: they must not deadlock when reporting from a
 * thread that died while logging.
 */
std::mutex log_mutex;

} // anonymous namespace

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    return s;
}

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    std::lock_guard<std::mutex> lock(log_mutex);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    std::lock_guard<std::mutex> lock(log_mutex);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", s.c_str(), file, line);
    // A pool worker may be the caller while the other workers still
    // run, and std::exit() would run static destructors under them.
    // Flush what was printed and leave without running any.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
assertFail(const char *file, int line, const char *cond,
           const std::string &msg)
{
    std::fprintf(stderr, "panic: assertion '%s' failed: %s (%s:%d)\n",
                 cond, msg.c_str(), file, line);
    std::abort();
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", s.c_str(), file, line);
    std::abort();
}

} // namespace vvsp
