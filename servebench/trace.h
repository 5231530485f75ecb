#pragma once

/// \file trace.h
/// \brief The benchmark's own spans, recorded around the calls it makes
/// into the program; kept in memory and written out when the run ends.
/// Spans of one request share its root span's id as their trace id.
/// Not thread-safe: only the client thread records.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace servebench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  /// \brief Records a finished span and returns its id (ids start at 1).
  /// A root span passes `parent` = 0 and becomes its own trace.
  uint64_t Add(const char* name, uint64_t parent, Clock::time_point start,
               Clock::time_point end);

  /// \brief One JSON object per line: name, trace, id, parent, start_us,
  /// end_us (microseconds since the log was created).
  wqe::Status WriteJsonLines(const std::string& path) const;

  size_t size() const { return records_.size(); }

 private:
  struct Record {
    const char* name;
    uint64_t trace;
    uint64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
};

/// \brief Milliseconds between two time points.
inline double Millis(SpanLog::Clock::time_point start,
                     SpanLog::Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace servebench
