// Minimal logger: log::info narrates long experiments on stderr. Not a
// general logging framework; there is one level and no threshold.
#pragma once

#include <sstream>
#include <string>

namespace xbarsec::log {

/// Writes "[xbarsec:INFO] message\n" to stderr. Thread-safe (single
/// write call).
void write(const std::string& message);

template <typename... Args>
void info(Args&&... args) {
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    write(os.str());
}

}  // namespace xbarsec::log
