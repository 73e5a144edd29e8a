/**
 * @file
 * Logging and error-reporting helpers for the vvsp library.
 *
 * Follows the gem5 convention: panic() flags an internal library bug and
 * aborts; fatal() flags a user/configuration error and exits cleanly;
 * warn() and inform() report conditions without stopping.
 */

#ifndef VVSP_SUPPORT_LOGGING_HH
#define VVSP_SUPPORT_LOGGING_HH

#include <cstdarg>
#include <string>

namespace vvsp
{

/** Print an informational message to stderr (prefixed "info:"). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning message to stderr (prefixed "warn:"). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-level error (bad configuration, invalid
 * arguments), flush stdio and _Exit(1) without running static
 * destructors, so a caller on a pool worker cannot race them. Not a
 * library bug.
 */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/**
 * Report an internal invariant violation (a vvsp bug) and abort().
 */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Format a printf-style message into a std::string. */
std::string vformat(const char *fmt, va_list ap);

/** Format a printf-style message into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Backend for vvsp_assert: report the failed condition and abort. */
[[noreturn]] void assertFail(const char *file, int line, const char *cond,
                             const std::string &msg);

} // namespace vvsp

#define vvsp_fatal(...) ::vvsp::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define vvsp_panic(...) ::vvsp::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; active in all build types. */
#define vvsp_assert(cond, ...)                                             \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::vvsp::assertFail(__FILE__, __LINE__, #cond,                  \
                               ::vvsp::format(__VA_ARGS__));               \
        }                                                                  \
    } while (0)

#endif // VVSP_SUPPORT_LOGGING_HH
