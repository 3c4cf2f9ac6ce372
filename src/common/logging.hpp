/**
 * @file
 * Status and error reporting helpers, following the gem5 convention:
 * fatal() for user errors (bad configuration, malformed input),
 * panic() for internal invariant violations (simulator bugs), and
 * warn() for non-fatal notices.
 */

#ifndef CESP_COMMON_LOGGING_HPP
#define CESP_COMMON_LOGGING_HPP

#include <cstdarg>
#include <string>

namespace cesp {

/**
 * Report an unrecoverable user-level error (bad config, bad input)
 * and exit(1). Printf-style formatting.
 */
[[noreturn]] void fatal(const char *fmt, ...);

/**
 * Report an internal invariant violation (a cesp bug) and abort().
 * Printf-style formatting.
 */
[[noreturn]] void panic(const char *fmt, ...);

/** Report a suspicious but survivable condition to stderr. */
void warn(const char *fmt, ...);

/**
 * Flush stdout and, unless everything printed to it arrived, report
 * "short write to '-'" as fatal() does but exit with @p status: a
 * tool calls this before a successful exit, so text it could not
 * write is an error, as a "-" export's is.
 */
void checkStdout(int status = 1);

/** Printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...);

} // namespace cesp

#endif // CESP_COMMON_LOGGING_HPP
