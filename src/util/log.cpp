#include "util/log.hpp"

#include <atomic>
#include <cstdio>

namespace netrec::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* prefix(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "[debug] ";
    case LogLevel::kInfo:
      return "[info ] ";
    case LogLevel::kWarn:
      return "[warn ] ";
    case LogLevel::kError:
      return "[error] ";
    default:
      return "";
  }
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(g_level.load());
}

void log_line(LogLevel level, const std::string& message) {
  if (!log_enabled(level)) return;
  std::fprintf(stderr, "%s%s\n", prefix(level), message.c_str());
}

}  // namespace netrec::util
