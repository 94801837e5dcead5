/*
 * PC sampler for scripts/profile.sh, loaded with LD_PRELOAD: a
 * 100 us CLOCK_MONOTONIC timer raises SIGPROF, the handler records
 * the interrupted PC, and at exit each PC is written to samples.txt
 * in the working directory as "<object> <address>", the address in
 * the form addr2line takes for that object.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static uintptr_t pcs[MAX_SAMPLES];
static size_t taken;
static timer_t timer;

static void
onSample(int sig, siginfo_t *info, void *ctx)
{
    (void)sig, (void)info;
    const mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
#if defined(__x86_64__)
    const uintptr_t pc = mc->gregs[REG_RIP];
#else
    const uintptr_t pc = mc->pc;
#endif
    const size_t i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = pc;
}

__attribute__((constructor)) static void
start(void)
{
    struct sigaction sa = {.sa_sigaction = onSample,
                           .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL,
                          .sigev_signo = SIGPROF};
    const struct itimerspec every = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0)
        timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    timer_delete(timer);
    FILE *out = fopen("samples.txt", "w");
    const size_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (size_t i = 0; out && i < n; ++i) {
        Dl_info obj;
        if (!dladdr((void *)pcs[i], &obj) || !obj.dli_fname)
            continue;
        /* A position-independent object's addresses are offsets. */
        const ElfW(Ehdr) *elf = obj.dli_fbase;
        const uintptr_t base =
            elf->e_type == ET_EXEC ? 0 : (uintptr_t)obj.dli_fbase;
        fprintf(out, "%s %#lx\n", obj.dli_fname,
                (unsigned long)(pcs[i] - base));
    }
    if (out)
        fclose(out);
}
