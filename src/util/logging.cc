#include "util/logging.hh"

#include <cstdarg>

namespace hypersio
{

Logger &
Logger::instance()
{
    static Logger logger;
    return logger;
}

namespace
{

std::string &
panicContextLine()
{
    static thread_local std::string line;
    return line;
}

} // namespace

void
PanicContext::set(std::string line)
{
    panicContextLine() = std::move(line);
}

const std::string &
PanicContext::get()
{
    return panicContextLine();
}

namespace
{

/**
 * Prints one `prefix`-ed message line, after `context` on a line of
 * its own when that is non-empty, as one uninterleaved unit. The
 * strings are declared non-null, as fatal() and panic() declare
 * their format: otherwise the sanitizer build's -Wformat-overflow
 * reports a possibly null format at the vfprintf().
 */
__attribute__((nonnull(1, 2))) void
writeLine(const char *prefix, const char *fmt, va_list args,
          const std::string &context = {})
{
    Logger &logger = Logger::instance();
    std::lock_guard<std::mutex> lock(logger.ioMutex());
    std::FILE *out = logger.stream();
    if (!context.empty()) {
        std::fputs(context.c_str(), out);
        std::fputc('\n', out);
    }
    std::fputs(prefix, out);
    std::vfprintf(out, fmt, args);
    std::fputc('\n', out);
    std::fflush(out);
}

} // namespace

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    writeLine("warn: ", fmt, args);
    va_end(args);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    writeLine("fatal: ", fmt, args);
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    writeLine("panic: ", fmt, args, PanicContext::get());
    va_end(args);
    std::abort();
}

} // namespace hypersio
