/**
 * @file
 * Minimal gem5-style status/error reporting.
 *
 * fatal()  — unrecoverable *user* error (bad configuration); exits.
 * panic()  — unrecoverable *internal* error (a bug); aborts.
 * warn()   — suspicious but survivable condition.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace sibyl
{

[[noreturn]] inline void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace sibyl
