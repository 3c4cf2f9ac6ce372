#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

namespace perfbench {

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
        static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
perSecond(double count, double seconds)
{
    return seconds > 0.0 ? count / seconds : 0.0;
}

double
nsPerOp(double seconds, uint64_t ops)
{
    return ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
}

} // namespace perfbench
