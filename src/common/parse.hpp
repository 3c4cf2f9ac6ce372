/**
 * @file
 * Checked string-to-number parsing for the command-line tools.
 * std::atoi silently maps typos ("x4", "4x", "") to 0, which for
 * flags like --jobs means "use a nonsense value without a word of
 * complaint"; parseInt instead accepts exactly one base-10 integer
 * spanning the whole string and reports anything else as a failure
 * the caller can turn into a usage error.
 */

#ifndef CESP_COMMON_PARSE_HPP
#define CESP_COMMON_PARSE_HPP

#include <cstdint>
#include <optional>
#include <string>

namespace cesp {

/**
 * Parse @p s as a base-10 integer in [@p min, @p max]. The entire
 * string must be consumed: leading/trailing whitespace, trailing
 * junk ("4x"), empty strings, and out-of-range values (including
 * values that overflow long long) all return nullopt.
 */
std::optional<long long> parseInt(const std::string &s,
                                  long long min, long long max);

/**
 * The integer value @p value of the command-line flag @p flag, in
 * [@p min, @p max]: parseInt, with anything it rejects a fatal
 * "invalid value" error that names the flag and the range.
 */
long long intArg(const std::string &flag, const std::string &value,
                 long long min, long long max);

} // namespace cesp

#endif // CESP_COMMON_PARSE_HPP
