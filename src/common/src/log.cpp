#include "xbarsec/common/log.hpp"

#include <cstdio>

namespace xbarsec::log {

void write(const std::string& message) {
    std::string line;
    line.reserve(message.size() + 16);
    line += "[xbarsec:INFO] ";
    line += message;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace xbarsec::log
