#include "env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "logging.hh"

namespace react {
namespace env {

std::optional<std::string>
raw(const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return std::nullopt;
    return std::string(v);
}

std::optional<long long>
intVar(const char *name, long long min, long long max)
{
    const auto v = raw(name);
    if (!v)
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const long long n = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE ||
        n < min || n > max) {
        react_warn("ignoring %s='%s' (want an integer in [%lld, %lld])",
                   name, v->c_str(), min, max);
        return std::nullopt;
    }
    return n;
}

std::optional<uint64_t>
u64Var(const char *name, uint64_t min, uint64_t max)
{
    const auto v = raw(name);
    if (!v)
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    // strtoull accepts a leading '-' by wrapping; reject it explicitly.
    const char *p = v->c_str();
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    const bool negative = (*p == '-');
    const unsigned long long n = std::strtoull(v->c_str(), &end, 10);
    if (negative || end == v->c_str() || *end != '\0' || errno == ERANGE ||
        n < min || n > max) {
        react_warn("ignoring %s='%s' (want an integer in [%llu, %llu])",
                   name, v->c_str(), static_cast<unsigned long long>(min),
                   static_cast<unsigned long long>(max));
        return std::nullopt;
    }
    return n;
}

std::optional<std::string>
stringVar(const char *name)
{
    auto v = raw(name);
    if (!v || v->empty())
        return std::nullopt;
    return v;
}

} // namespace env
} // namespace react
