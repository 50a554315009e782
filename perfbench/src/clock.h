// Wall clock and process accounting shared by the workloads.
#pragma once

#include <chrono>
#include <cstdint>

namespace perfbench {

/// Monotonic nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// CPU time and context switches of this process (getrusage).
struct ProcUsage {
  double user_us = 0;
  double sys_us = 0;
  double ctx_switches = 0;

  static ProcUsage now();
  ProcUsage operator-(const ProcUsage& o) const {
    return {user_us - o.user_us, sys_us - o.sys_us, ctx_switches - o.ctx_switches};
  }
};

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double peak_rss_mb();

}  // namespace perfbench
