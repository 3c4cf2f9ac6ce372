/**
 * @file
 * Implementation of checked integer parsing.
 */

#include "common/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hpp"

namespace cesp {

std::optional<long long>
parseInt(const std::string &s, long long min, long long max)
{
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (errno == ERANGE || end != s.c_str() + s.size())
        return std::nullopt;
    if (v < min || v > max)
        return std::nullopt;
    return v;
}

long long
intArg(const std::string &flag, const std::string &value, long long min,
       long long max)
{
    auto v = parseInt(value, min, max);
    if (!v)
        fatal("invalid value '%s' for %s (expected integer in "
              "[%lld, %lld])", value.c_str(), flag.c_str(), min, max);
    return *v;
}

} // namespace cesp
