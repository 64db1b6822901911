// Minimal leveled logger.  The distributed runtime and the cluster
// simulator log protocol events (migrations, synchronizations, channel
// lifecycle); tests silence it by default.
//
// Each line carries a monotonic timestamp (seconds since the process's
// first log touch) and, when a rank has installed one via
// set_log_context, a "[rank r step s]" prefix — so interleaved output
// from the threaded driver or a supervisor's rank-tagged children reads
// back as a timeline.  The initial threshold honours the SUBSONIC_LOG
// environment variable (debug|info|warn|error|off); default warn.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace subsonic {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are discarded.  The initial
/// value comes from SUBSONIC_LOG when set, else kWarn.
void set_log_level(LogLevel level);
LogLevel log_level();

/// "debug"/"info"/"warn"/"error"/"off" (case-insensitive, also accepts
/// the numeric enum value); nullopt for anything else.
std::optional<LogLevel> parse_log_level(std::string_view text);

/// Install a [rank r step s] prefix for lines logged by this thread.
/// step < 0 omits the step; clear_log_context removes the prefix.
void set_log_context(int rank, long step = -1);
void clear_log_context();

namespace detail {
void log_emit(LogLevel level, const std::string& message);
/// The full line as emitted (sans trailing newline) — exposed for tests.
std::string format_log_line(LogLevel level, const std::string& message);
}

/// Stream-style log statement: SUBSONIC_LOG(kInfo) << "migrated " << pid;
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() {
    if (level_ >= log_level()) detail::log_emit(level_, os_.str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (level_ >= log_level()) os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace subsonic

#define SUBSONIC_LOG(level) \
  ::subsonic::LogLine(::subsonic::LogLevel::level)
