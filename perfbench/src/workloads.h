// The three perfbench workloads and the helpers they share.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string build_dir;  ///< where the span files go
};

void run_ring(const RunOptions& opt, Report& rep);
void run_kv(const RunOptions& opt, Report& rep);
void run_sim(const RunOptions& opt, Report& rep);

/// Median of a small sample (copies).
double median(std::vector<double> v);

/// setup_s: the median over kSetupRepeats fresh child processes of the
/// seconds `once` returns (a negative value means the set-up failed). Each
/// set-up runs in a process of its own, as a user's would: a set-up
/// repeated inside one process reuses a warm heap and sockets, and its
/// time then depends on what ran before it. Records a failed check and
/// returns 0 when any set-up fails.
inline constexpr int kSetupRepeats = 63;
double fresh_process_setup_s(const std::function<double()>& once, Report& rep);

/// In --trace 1 runs, recording is switched on and off in alternating
/// windows so one run yields both spans and the tracing overhead: work
/// counted while tracing is on versus off, per second of each.
class TraceToggle {
 public:
  TraceToggle(Tracer* tracer, std::int64_t window_ns) : t_(tracer), window_ns_(window_ns) {}
  /// Call at top level (no span open). Flips recording at window edges.
  void tick(std::int64_t now);
  /// Start or stop attributing time and work (the measured phase).
  void measure(bool on, std::int64_t now);
  /// Attribute `work` units finished now to the current window's state.
  void count(double work) {
    if (measuring_) work_[on_ ? 1 : 0] += work;
  }
  /// (rate untraced - rate traced) / rate untraced, in percent.
  [[nodiscard]] double overhead_pct() const;

 private:
  void accrue(std::int64_t now);

  Tracer* t_;
  std::int64_t window_ns_;
  std::int64_t window_start_ = 0;
  std::int64_t accrued_to_ = 0;
  bool on_ = false;
  bool measuring_ = false;
  double work_[2] = {0, 0};
  double time_ns_[2] = {0, 0};
};

/// Header every broadcast payload starts with: which generator origin sent
/// it, the per-origin counter, the phase, and when it was due.
struct MsgHeader {
  std::uint32_t origin = 0;
  std::uint32_t phase = 0;
  std::uint64_t counter = 0;
  std::int64_t due_ns = 0;
};
inline constexpr std::size_t kMsgHeaderBytes = sizeof(MsgHeader);

inline void put_header(void* buf, const MsgHeader& h) {
  std::memcpy(buf, &h, sizeof h);
}
inline bool get_header(const void* buf, std::size_t len, MsgHeader& h) {
  if (len < sizeof h) return false;
  std::memcpy(&h, buf, sizeof h);
  return true;
}

/// FNV-1a over 64-bit words: the order hash compared across members.
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Sum of every instrument named `prefix`* across `snaps`, as one histogram.
totem::HistogramSnapshot merged_histogram(const std::vector<totem::MetricsSnapshot>& snaps,
                                   const std::string& prefix);

/// proc.cpu_us_per_op, proc.sys_share and proc.ctx_switches_per_op.
void report_proc(Report& rep, const ProcUsage& used, double ops);

}  // namespace perfbench
