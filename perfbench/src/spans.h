// In-memory spans recorded by the benchmark around its calls into the
// library's public API (--trace 1 runs only). One thread, strictly nested
// spans: a span's parent is whatever span was open when it began, and its
// self time is its duration minus the durations of its direct children.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "clock.h"
#include "stats.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kApiSend,         ///< api::Node::send
  kReactorPoll,     ///< net::Reactor::poll_once (protocol + syscalls)
  kDeliver,         ///< the benchmark's deliver upcall
  kShardPut,        ///< ShardedKv::put / cas
  kShardGet,        ///< ShardedKv::get
  kShardComplete,   ///< the router's completion upcall
  kSimRun,          ///< sim::Simulator::run_* (through SimCluster::run_for)
  kHarnessCampaign, ///< harness::run_campaign / run_sharded_campaign
  kCount,
};

const char* to_string(SpanKind kind);

/// One finished span. `id` is the message/op id the span served (origin in
/// the top 16 bits, per-origin counter below), 0 when it served none.
struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  SpanKind kind = SpanKind::kCount;
  SpanKind parent = SpanKind::kCount;  ///< kCount = top level
};

[[nodiscard]] constexpr std::uint64_t span_id(std::uint64_t origin, std::uint64_t counter) {
  return (origin << 48) | (counter & ((std::uint64_t{1} << 48) - 1));
}

class Tracer {
 public:
  /// Keeps the first kMaxRecords full records; self-time samples are
  /// kept for every span (a uniform sample of kMaxSamples per kind).
  static constexpr std::size_t kMaxRecords = 200'000;
  static constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
  Tracer();

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Switch recording on or off. Only between top-level spans: a span that
  /// is open when recording stops is still closed normally.
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span at `now_ns` (no-op when disabled).
  void begin(SpanKind kind, std::uint64_t id, std::int64_t now_ns);
  /// Close the innermost open span at `now_ns`.
  void end(std::int64_t now_ns);

  /// RAII span timed with the monotonic clock.
  class Scope {
   public:
    Scope(Tracer* t, SpanKind kind, std::uint64_t id = 0)
        : t_(t != nullptr && t->enabled() ? t : nullptr) {
      if (t_) t_->begin(kind, id, now_ns());
    }
    ~Scope() {
      if (t_) t_->end(now_ns());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  /// Self-time samples in microseconds, per span kind.
  [[nodiscard]] std::vector<double>& self_us(SpanKind kind) {
    return self_us_[static_cast<std::size_t>(kind)].values();
  }
  [[nodiscard]] std::uint64_t seen(SpanKind kind) const {
    return self_us_[static_cast<std::size_t>(kind)].seen();
  }
  [[nodiscard]] const std::vector<SpanRecord>& records() const { return records_; }

  /// Write the kept records as JSON lines. Returns false on I/O error.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;  // summed durations of finished direct children
  };

  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<SpanRecord> records_;
  std::vector<Reservoir> self_us_;  // per SpanKind
};

}  // namespace perfbench
