// Leveled stderr logging.
//
// Solvers log convergence diagnostics at kDebug; bench drivers run at kInfo
// by default so tables stay clean.  The level is process-global (set once in
// main); the hot paths guard with enabled() so formatting cost is skipped.
#pragma once

#include <sstream>
#include <string>

namespace netrec::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);

bool log_enabled(LogLevel level);

/// Emits a single line to stderr with a level prefix.
void log_line(LogLevel level, const std::string& message);

}  // namespace netrec::util

// Usage: NETREC_LOG(kInfo) << "solved in " << iters << " pivots";
#define NETREC_LOG(level)                                              \
  for (bool netrec_log_once =                                          \
           ::netrec::util::log_enabled(::netrec::util::LogLevel::level); \
       netrec_log_once; netrec_log_once = false)                       \
  ::netrec::util::LogStream(::netrec::util::LogLevel::level)

namespace netrec::util {

/// Collects one log line and flushes it on destruction.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, stream_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace netrec::util
