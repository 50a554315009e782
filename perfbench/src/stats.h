// Statistics used by every perfbench workload: nearest-rank percentiles,
// the "at least ten samples beyond the tail" rule, a fixed-size sample
// reservoir, and the delivery ledger that turns per-message outcomes into
// attempted/failed counts.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]) of `v`; 0 when `v` is empty.
/// Reorders `v` (nth_element) but keeps every sample.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

/// Samples that lie beyond the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// Tail rule: a tail is p99 only when at least kMinBeyond samples lie
/// beyond it; otherwise the highest quantile that has kMinBeyond beyond it.
inline constexpr double kTailQ = 0.99;
inline constexpr std::size_t kMinBeyond = 10;

/// The tail quantile for n samples under the tail rule; nullopt when even
/// the median does not qualify.
inline std::optional<double> tail_quantile(std::size_t n) {
  if (n == 0) return std::nullopt;
  if (samples_beyond(n, kTailQ) >= kMinBeyond) return kTailQ;
  if (n <= 2 * kMinBeyond) return std::nullopt;  // below the median
  // Rank n - kMinBeyond leaves exactly kMinBeyond samples beyond it.
  return static_cast<double>(n - kMinBeyond) / static_cast<double>(n);
}

/// A timing reported as median plus the qualifying tail percentile.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;    ///< value at tail_q (0 when no tail qualifies)
  double tail_q = 0;  ///< 0.99 when enough samples, lower otherwise, 0 = none
  double max = 0;
};

inline Summary summarize(std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = percentile(v, 0.5);
  s.max = *std::max_element(v.begin(), v.end());
  if (const auto q = tail_quantile(v.size())) {
    s.tail_q = *q;
    s.tail = percentile(v, *q);
  }
  return s;
}

/// A uniform sample of at most `capacity` of the values added (reservoir
/// sampling with a fixed-seed generator); exact while no more than that
/// were added.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : capacity_(capacity) {}

  /// Allocate and touch the whole capacity now, so that filling it later
  /// does not move the process's peak RSS.
  void preallocate() {
    values_.resize(capacity_);
    values_.clear();
  }
  void add(double v) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(v);
      return;
    }
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t slot = (lcg_ >> 11) % seen_;
    if (slot < capacity_) values_[slot] = v;
  }
  /// Forget the values; keeps the allocation.
  void clear() {
    values_.clear();
    seen_ = 0;
  }
  [[nodiscard]] std::vector<double>& values() { return values_; }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

 private:
  std::size_t capacity_;
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t lcg_ = 1;
};

/// Per-message outcome bookkeeping for broadcast workloads. A message is
/// identified by (origin, counter) with dense per-origin counters. It is
/// attempted when generated; it fails unless it was accepted (refusals
/// before a later acceptance do not count) and then delivered at every
/// member by the time finish() is called.
///
/// Its memory is fixed, so it does not grow with throughput nor move the
/// peak RSS: each origin keeps its messages from the oldest incomplete one
/// on, at most `window`, in a ring allocated up front. Delivery is FIFO per
/// origin, so complete messages leave from the front. A message pushed out
/// of a full window while still incomplete fails and counts as an
/// overflow.
class DeliveryLedger {
 public:
  static constexpr std::size_t kWindow = std::size_t{1} << 15;

  /// `window` must be a power of two.
  DeliveryLedger(std::size_t origins, std::size_t members, std::size_t window = kWindow)
      : members_(members),
        everyone_(((1u << members) - 1u) << 1),
        mask_(window - 1),
        per_origin_(origins, Origin{std::vector<std::uint32_t>(window)}) {}

  /// A new message was generated; returns its counter.
  std::uint64_t generate(std::size_t origin) {
    Origin& o = per_origin_[origin];
    if (o.next - o.base > mask_) {  // full: push out the oldest
      ++overflowed_;
      tally(o.state[o.base & mask_], pushed_out_);
      ++o.base;
    }
    o.state[o.next & mask_] = 0;
    ++attempted_;
    return o.next++;
  }
  void accepted(std::size_t origin, std::uint64_t counter) {
    Origin& o = per_origin_[origin];
    if (counter < o.base || counter >= o.next) return;  // pushed out: failed already
    o.state[counter & mask_] |= kAccepted;
    ++accepted_;
  }
  /// Records a delivery; returns the number of members that now hold the
  /// message, or 0 when it was unknown or a duplicate at `member` (both
  /// are counted, not fatal — finish() reports them).
  std::size_t delivered(std::size_t member, std::size_t origin, std::uint64_t counter) {
    if (origin >= per_origin_.size() || counter >= per_origin_[origin].next) {
      ++unknown_;
      return 0;
    }
    Origin& o = per_origin_[origin];
    if (counter < o.base) {
      // Left the window: complete, so this is a duplicate — unless it was
      // pushed out, and the overflow already failed it.
      if (overflowed_ == 0) ++duplicates_;
      return 0;
    }
    auto& st = o.state[counter & mask_];
    const auto bit = static_cast<std::uint32_t>(1u << (member + 1));
    if (st & bit) {
      ++duplicates_;
      return 0;
    }
    st |= bit;
    const auto holders = static_cast<std::size_t>(std::popcount(st >> 1));
    if (holders == members_) ++complete_;
    while (o.base < o.next && complete(o.state[o.base & mask_])) ++o.base;
    return holders;
  }

  /// True when every accepted message reached every member.
  [[nodiscard]] bool settled() const { return complete_ == accepted_; }

  struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;         ///< never accepted + not delivered everywhere
    std::uint64_t never_accepted = 0;
    std::uint64_t undelivered = 0;    ///< accepted, missing at >= 1 member
    std::uint64_t duplicates = 0;
    std::uint64_t unknown = 0;
    std::uint64_t overflowed = 0;     ///< pushed out of a full window (also failed)
  };

  [[nodiscard]] Result finish() const {
    Result r = pushed_out_;
    r.attempted = attempted_;
    r.duplicates = duplicates_;
    r.unknown = unknown_;
    r.overflowed = overflowed_;
    for (const Origin& o : per_origin_) {
      for (std::uint64_t c = o.base; c < o.next; ++c) tally(o.state[c & mask_], r);
    }
    r.failed = r.never_accepted + r.undelivered;
    return r;
  }

 private:
  static constexpr std::uint32_t kAccepted = 1;
  struct Origin {
    std::vector<std::uint32_t> state;  // bit 0 accepted, bit m+1 member m
    std::uint64_t base = 0;            // counters below have left the window
    std::uint64_t next = 0;            // the next counter to generate
  };

  [[nodiscard]] bool complete(std::uint32_t st) const {
    return (st & kAccepted) && (st & everyone_) == everyone_;
  }
  void tally(std::uint32_t st, Result& r) const {
    if (!(st & kAccepted)) {
      ++r.never_accepted;
    } else if ((st & everyone_) != everyone_) {
      ++r.undelivered;
    }
  }

  std::size_t members_;
  std::uint32_t everyone_;
  std::uint64_t mask_;
  std::vector<Origin> per_origin_;
  Result pushed_out_;  // outcomes of messages pushed out of a full window
  std::uint64_t attempted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t complete_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t unknown_ = 0;
  std::uint64_t overflowed_ = 0;
};

/// num / den, 0 when den is not positive.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// failed / attempted, 0 when nothing was attempted.
inline double failed_ratio(std::uint64_t failed, std::uint64_t attempted) {
  return ratio(static_cast<double>(failed), static_cast<double>(attempted));
}

}  // namespace perfbench
