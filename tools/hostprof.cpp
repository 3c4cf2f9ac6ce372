/**
 * @file
 * hostprof: a sampling profiler that needs no build knob. Preload it
 * into the process to measure (tools/hostprof.py does):
 *
 *   LD_PRELOAD=libhostprof.so HOSTPROF_OUT=/tmp/prof cesp-sim ...
 *
 * At load it arms a CLOCK_MONOTONIC POSIX timer that sends SIGPROF
 * to the loading (main) thread every 100 microseconds. The handler
 * records the interrupted program counter and the return addresses
 * above it, unwound through the signal frame from the unwind tables
 * every build carries, so an optimised binary needs no frame pointers
 * and no probes between its stages. At exit it writes the samples,
 * with the process's memory map to relocate them, to
 * HOSTPROF_OUT.<pid>. tools/hostprof.py resolves the addresses with
 * addr2line and attributes each sample to a pipeline stage.
 *
 * Unwinding inside a signal handler is safe only where the unwinder
 * finds its tables without a lock: libgcc from GCC 12 on, with
 * glibc 2.35 or later, whose _dl_find_object it calls. Older unwinders
 * go through dl_iterate_phdr, whose lock a sample could interrupt (in
 * a dlopen, a lazy binding or a C++ throw) and then wait on forever.
 * So the library unwinds only when the C library has
 * _dl_find_object; otherwise each sample is the interrupted PC alone,
 * which still names the innermost functions but reaches a stage only
 * when the PC lies in a stage function or in code inlined into one.
 */

#include <dlfcn.h>
#include <unwind.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

namespace {

/** Sampling period in microseconds. */
constexpr long kPeriodUs = 100;
/** Most addresses kept per sample: the PC and its callers. */
constexpr int kMaxFrames = 48;
/** Sample storage, in words: each sample is a frame count followed
 *  by that many addresses. */
constexpr size_t kBufferWords = size_t{1} << 23;

uint64_t *g_buf = nullptr;
size_t g_used = 0;
uint64_t g_samples = 0;
uint64_t g_dropped = 0;
bool g_unwind = false; //!< the unwinder takes no lock (see above)
timer_t g_timer;
bool g_armed = false;
pid_t g_pid = 0; //!< the sampled process (a forked child has no timer)

/** The interrupted PC, read from the signal context. */
uintptr_t
interruptedPc(void *uctx)
{
    auto *uc = static_cast<ucontext_t *>(uctx);
#if defined(__x86_64__)
    return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;
    return 0;
#endif
}

/** Unwinder state for one sample. */
struct Walk
{
    uintptr_t pc;      //!< interrupted PC; frames start after it
    bool found = false;
    int n = 0;
    uint64_t frames[kMaxFrames];
};

_Unwind_Reason_Code
onFrame(struct _Unwind_Context *ctx, void *arg)
{
    auto *w = static_cast<Walk *>(arg);
    uintptr_t ip = _Unwind_GetIP(ctx);
    if (!w->found) {
        // Frames below the interrupted one are this handler's and the
        // signal trampoline's.
        if (ip == w->pc) {
            w->found = true;
            w->frames[w->n++] = ip;
        }
        return _URC_NO_REASON;
    }
    if (ip == 0 || w->n == kMaxFrames)
        return _URC_END_OF_STACK;
    w->frames[w->n++] = ip;
    return _URC_NO_REASON;
}

void
onSignal(int, siginfo_t *, void *uctx)
{
    const int saved_errno = errno;
    Walk w;
    w.pc = interruptedPc(uctx);
    if (g_unwind)
        _Unwind_Backtrace(onFrame, &w);
    if (!w.found) { // no or failed unwinding: keep the PC alone
        w.frames[0] = w.pc;
        w.n = 1;
    }
    if (g_used + 1 + static_cast<size_t>(w.n) > kBufferWords) {
        ++g_dropped;
    } else {
        g_buf[g_used++] = static_cast<uint64_t>(w.n);
        for (int i = 0; i < w.n; ++i)
            g_buf[g_used++] = w.frames[i];
        ++g_samples;
    }
    errno = saved_errno;
}

/** Copy /proc/self/maps to @p out. */
void
writeMaps(FILE *out)
{
    int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0)
        return;
    char chunk[4096];
    ssize_t got;
    while ((got = read(fd, chunk, sizeof chunk)) > 0)
        fwrite(chunk, 1, static_cast<size_t>(got), out);
    close(fd);
}

__attribute__((constructor)) void
start()
{
    const char *out = getenv("HOSTPROF_OUT");
    if (!out || !*out)
        return;
    void *mem = mmap(nullptr, kBufferWords * sizeof(uint64_t),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) {
        perror("hostprof: mmap");
        return;
    }
    g_buf = static_cast<uint64_t *>(mem);

    g_unwind = dlsym(RTLD_DEFAULT, "_dl_find_object") != nullptr;
    if (g_unwind) {
        // Unwind once outside a handler, so the unwinder's lazy
        // set-up (loading its library, first table lookups) never
        // runs inside one.
        Walk warm;
        warm.pc = 0;
        _Unwind_Backtrace(onFrame, &warm);
    }

    struct sigaction sa = {};
    sa.sa_sigaction = onSignal;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
        perror("hostprof: sigaction");
        return;
    }
    struct sigevent sev = {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
    if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) {
        perror("hostprof: timer_create");
        return;
    }
    struct itimerspec its = {};
    its.it_interval.tv_sec = kPeriodUs / 1000000;
    its.it_interval.tv_nsec = (kPeriodUs % 1000000) * 1000;
    its.it_value = its.it_interval;
    if (timer_settime(g_timer, 0, &its, nullptr) != 0) {
        perror("hostprof: timer_settime");
        return;
    }
    g_pid = getpid();
    g_armed = true;
}

__attribute__((destructor)) void
finish()
{
    if (!g_armed || getpid() != g_pid)
        return;
    timer_delete(g_timer);
    g_armed = false;
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("HOSTPROF_OUT"),
             static_cast<int>(getpid()));
    FILE *out = fopen(path, "w");
    if (!out) {
        perror("hostprof: output");
        return;
    }
    fprintf(out, "hostprof 1\nperiod_us %ld\nsamples %llu\ndropped %llu\n",
            kPeriodUs, static_cast<unsigned long long>(g_samples),
            static_cast<unsigned long long>(g_dropped));
    fputs("maps\n", out);
    writeMaps(out);
    fputs("end\n", out);
    for (size_t i = 0; i < g_used;) {
        size_t n = static_cast<size_t>(g_buf[i++]);
        for (size_t k = 0; k < n; ++k)
            fprintf(out, k ? " %llx" : "%llx",
                    static_cast<unsigned long long>(g_buf[i++]));
        fputc('\n', out);
    }
    fclose(out);
}

} // namespace
