/** Tests for the logging/error-reporting facility, including the
 *  fatal/panic termination contracts (gem5 semantics: fatal = user
 *  error, normal exit(1); panic = simulator bug, abort). */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/logging.hh"

namespace hypersio
{
namespace
{

/** Captures logger output into a string for assertions. */
class CaptureStream
{
  public:
    CaptureStream() : _file(std::tmpfile())
    {
        Logger::instance().setStream(_file);
    }

    ~CaptureStream()
    {
        Logger::instance().setStream(nullptr);
        if (_file)
            std::fclose(_file);
    }

    std::string
    text()
    {
        std::fflush(_file);
        std::rewind(_file);
        char buffer[1024] = {};
        const size_t n =
            std::fread(buffer, 1, sizeof(buffer) - 1, _file);
        return std::string(buffer, n);
    }

  private:
    std::FILE *_file;
};

TEST(LoggingTest, WarnVisibleAtDefaultLevel)
{
    CaptureStream capture;
    warn("something odd: %d", 7);
    EXPECT_NE(capture.text().find("warn: something odd: 7"),
              std::string::npos);
}

TEST(LoggingDeathTest, FatalExitsWithStatusOne)
{
    EXPECT_EXIT(fatal("bad user input %s", "xyz"),
                ::testing::ExitedWithCode(1), "fatal: bad user");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("internal invariant broken"),
                 "panic: internal invariant");
}

TEST(LoggingDeathTest, AssertMacroPanicsWithContext)
{
    EXPECT_DEATH(
        HYPERSIO_ASSERT(1 == 2, "math failed: %d", 42),
        "assertion '1 == 2' failed.*math failed: 42");
}

} // namespace
} // namespace hypersio
