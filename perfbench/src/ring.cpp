// ring: four api::Nodes on one reactor thread, active RRP over two UDP
// loopback networks, default datapath. Three phases:
//   flood      100 B messages, every node sending until flow control refuses
//   open loop  1 KiB messages, Poisson arrivals at a fixed total rate,
//              round-robin origins, each timed from when it was due to its
//              delivery at every member
//   fault      the open loop continues; one node's network-1 transport gets
//              send and receive faults a third of the way in
// Flood and open loop alternate for kRounds rounds, so both sample the
// whole run; the end-to-end figures are medians over rounds. The fault
// phase runs once, last.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "api/node.h"
#include "api/stats.h"
#include "common/rng.h"
#include "net/reactor.h"
#include "net/udp_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace totem;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kNetworks = 2;
constexpr std::uint16_t kPortBase = 52000;  // network n: 52000 + 100 n + node
constexpr std::size_t kFloodBytes = 100;
constexpr std::size_t kOpenBytes = 1024;
/// Open-loop offered load, msgs/s over all nodes: about a quarter of the
/// 1 KiB flood capacity on the reference host. At half of it the latency
/// amplifies host speed noise too much to gate on (perfbench/README.md).
constexpr double kOpenRate = 5'000;
constexpr int kRounds = 12;
// Shares of --seconds: kRounds x (flood + open) + fault = 100 %.
constexpr double kFloodShare = 0.035;
constexpr double kOpenShare = 0.04;
constexpr double kFaultShare = 0.10;
constexpr std::int64_t kSetupBudgetNs = 10'000'000'000;
constexpr std::int64_t kDrainBudgetNs = 5'000'000'000;

enum Phase : std::uint32_t { kFlood = 0, kOpen = 1, kFault = 2, kProbe = 3 };

/// One 4-node ring. Members are destroyed nodes-first, reactor last.
struct Ring {
  net::Reactor reactor;
  std::vector<std::unique_ptr<net::UdpTransport>> transports;  // [node * 2 + net]
  std::vector<std::unique_ptr<api::Node>> nodes;
  std::vector<std::vector<const net::Transport*>> node_transports;
  std::vector<std::size_t> probes = std::vector<std::size_t>(kNodes, 0);
  std::uint64_t views_after_ready = 0;
  bool ready = false;

  net::UdpTransport& transport(std::size_t node, std::size_t network) {
    return *transports[node * kNetworks + network];
  }
};

/// Per-member delivery state for the output checks.
struct Member {
  std::vector<std::uint64_t> next_counter = std::vector<std::uint64_t>(kNodes, 0);
  std::uint64_t order_hash = kFnvBasis;
  std::uint64_t window_delivered = 0;  // current flood window
  std::int64_t last_ns = 0;
  std::int64_t max_gap_ns = 0;  // since the fault
};

/// An open-loop schedule: message i is due `due[i]` ns after the segment
/// starts and is sent by node `origin[i]`.
struct Schedule {
  std::vector<std::int64_t> due;
  std::vector<std::uint32_t> origin;
};

Schedule poisson_schedule(totem::Rng& rng, std::int64_t duration_ns, std::size_t first_origin) {
  Schedule s;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.next_double()) / kOpenRate * 1e9;
    if (t >= static_cast<double>(duration_ns)) return s;
    s.origin.push_back(static_cast<std::uint32_t>((first_origin + s.due.size()) % kNodes));
    s.due.push_back(static_cast<std::int64_t>(t));
  }
}

/// Layer counters summed over the four nodes.
enum Counter {
  kSrpSent, kSrpBroadcast, kSrpTokens, kSrpRetransmits, kSrpRejects,
  kRrpFannedOut, kRrpTimerExpiries,
  kNetSent, kNetReceived, kNetTxBatches, kNetRxBatches, kNetDrops,
  kPoolAllocs, kCounters,
};
using Counters = std::array<double, kCounters>;

Counters operator-(const Counters& a, const Counters& b) {
  Counters d{};
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = a[i] - b[i];
  return d;
}
Counters& operator+=(Counters& a, const Counters& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

class RingBench {
 public:
  RingBench(const RunOptions& opt, Report& rep)
      : opt_(opt), rep_(rep), ledger_(kNodes, kNodes),
        tracer_(opt.trace ? std::make_unique<Tracer>() : nullptr),
        toggle_(tracer_.get(), 100'000'000) {}

  void run();

 private:
  std::unique_ptr<Ring> build();
  void on_deliver(std::size_t member, const srp::DeliveredMessage& m);
  double flood(std::int64_t duration_ns);
  void open_loop(const Schedule& s, Phase phase, std::int64_t fault_after_ns);
  bool drain();
  bool send(std::size_t origin, Phase phase, std::uint64_t counter, std::int64_t due_ns);
  void poll(Duration max_wait) {
    Tracer::Scope span(tracer_.get(), SpanKind::kReactorPoll);
    ring_->reactor.poll_once(max_wait);
  }
  Counters counters(std::vector<MetricsSnapshot>* metrics = nullptr) const;
  void reset_histograms() {
    for (auto& n : ring_->nodes) n->metrics().reset();
  }

  const RunOptions& opt_;
  Report& rep_;
  DeliveryLedger ledger_;
  std::unique_ptr<Tracer> tracer_;
  TraceToggle toggle_;
  std::unique_ptr<Ring> ring_;
  std::vector<Member> members_ = std::vector<Member>(kNodes);
  Bytes flood_filler_, open_filler_, buf_;
  std::size_t victim_ = 0;

  bool in_window_ = false;               // a flood measurement window is open
  std::vector<double> segment_us_;       // current open segment: due -> everywhere
  std::vector<double> fault_us_;         // fault phase: due -> everywhere
  std::vector<double> lag_us_;           // generator lateness, open + fault
  std::int64_t fault_at_ns_ = 0;
  std::vector<std::int64_t> fault_detect_ns_ = std::vector<std::int64_t>(kNodes, 0);
  double completed_ = 0;  // messages delivered at every member
};

std::unique_ptr<Ring> RingBench::build() {
  auto ring = std::make_unique<Ring>();
  for (std::size_t n = 0; n < kNodes; ++n) {
    std::vector<net::Transport*> ts;
    for (std::size_t k = 0; k < kNetworks; ++k) {
      net::UdpTransport::Config tc;
      tc.network = static_cast<NetworkId>(k);
      tc.local_node = static_cast<NodeId>(n);
      tc.peers = net::loopback_peers(static_cast<std::uint16_t>(kPortBase + 100 * k), kNodes);
      auto t = net::UdpTransport::create(ring->reactor, tc);
      if (!t.is_ok()) {
        rep_.check(false, "ring: UDP transport setup: " + t.status().to_string());
        return nullptr;
      }
      ring->transports.push_back(std::move(t).take());
      ts.push_back(ring->transports.back().get());
    }
    ring->node_transports.emplace_back(ts.begin(), ts.end());
    api::NodeConfig cfg;
    cfg.srp.node_id = static_cast<NodeId>(n);
    for (std::size_t m = 0; m < kNodes; ++m) {
      cfg.srp.initial_members.push_back(static_cast<NodeId>(m));
    }
    cfg.style = api::ReplicationStyle::kActive;
    ring->nodes.push_back(std::make_unique<api::Node>(ring->reactor, ts, cfg));
  }
  Ring* r = ring.get();
  for (std::size_t n = 0; n < kNodes; ++n) {
    api::Node& node = *r->nodes[n];
    node.set_deliver_handler([this, r, n](const srp::DeliveredMessage& m) {
      MsgHeader h;
      if (get_header(m.payload.data(), m.payload.size(), h) && h.phase == kProbe) {
        ++r->probes[n];
      } else {
        on_deliver(n, m);
      }
    });
    node.set_membership_handler([r](const srp::MembershipView&) {
      if (r->ready) ++r->views_after_ready;
    });
    node.set_fault_handler([this, n](const rrp::NetworkFaultReport& rep) {
      if (fault_at_ns_ != 0 && rep.network == 1 && fault_detect_ns_[n] == 0) {
        fault_detect_ns_[n] = now_ns() - fault_at_ns_;
      }
    });
  }
  // Ready = a probe from every node was delivered at every node.
  for (auto& node : r->nodes) node->start();
  Bytes probe(kMsgHeaderBytes);
  put_header(probe.data(), MsgHeader{0, kProbe, 0, 0});
  for (auto& node : r->nodes) (void)node->send(BytesView(probe));
  const std::int64_t deadline = now_ns() + kSetupBudgetNs;
  while (now_ns() < deadline) {
    r->reactor.poll_once(Duration{1'000});
    if (std::all_of(r->probes.begin(), r->probes.end(),
                    [](std::size_t p) { return p == kNodes; })) {
      r->ready = true;
      return ring;
    }
  }
  rep_.check(false, "ring: setup: probes not delivered at every node within 10 s");
  return nullptr;
}

void RingBench::on_deliver(std::size_t member, const srp::DeliveredMessage& m) {
  MsgHeader h;
  if (!get_header(m.payload.data(), m.payload.size(), h) || h.origin >= kNodes) {
    rep_.check(false, "ring: delivered payload without a valid header");
    return;
  }
  Tracer::Scope span(tracer_.get(), SpanKind::kDeliver, span_id(h.origin, h.counter));
  Member& mb = members_[member];
  rep_.check(h.counter == mb.next_counter[h.origin],
             "ring: per-origin FIFO violated at member " + std::to_string(member));
  mb.next_counter[h.origin] = h.counter + 1;
  mb.order_hash = fnv_mix(fnv_mix(mb.order_hash, h.origin), h.counter);
  const std::int64_t now = now_ns();
  if (in_window_) ++mb.window_delivered;
  if (fault_at_ns_ != 0 && now > fault_at_ns_) {
    mb.max_gap_ns = std::max(mb.max_gap_ns, now - std::max(mb.last_ns, fault_at_ns_));
  }
  mb.last_ns = now;
  if (ledger_.delivered(member, h.origin, h.counter) != kNodes) return;
  completed_ += 1;
  if (h.phase == kFlood) {
    toggle_.count(1);
  } else {
    const double us = static_cast<double>(now - h.due_ns) / 1e3;
    (h.phase == kOpen ? segment_us_ : fault_us_).push_back(us);
  }
}

bool RingBench::send(std::size_t origin, Phase phase, std::uint64_t counter,
                     std::int64_t due_ns) {
  const Bytes& filler = phase == kFlood ? flood_filler_ : open_filler_;
  buf_.assign(filler.begin(), filler.end());
  put_header(buf_.data(), MsgHeader{static_cast<std::uint32_t>(origin), phase, counter, due_ns});
  Status st;
  {
    Tracer::Scope span(tracer_.get(), SpanKind::kApiSend, span_id(origin, counter));
    st = ring_->nodes[origin]->send(BytesView(buf_));
  }
  if (st.is_ok()) ledger_.accepted(origin, counter);
  return st.is_ok();
}

double RingBench::flood(std::int64_t duration_ns) {
  // Each node keeps one pending message; it is retried until accepted.
  std::vector<std::uint64_t> pending(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) pending[n] = ledger_.generate(n);
  for (Member& m : members_) m.window_delivered = 0;
  const std::int64_t start = now_ns();
  const std::int64_t window_start = start + duration_ns / 5;  // warm-up fifth
  const std::int64_t end = start + duration_ns;
  for (std::int64_t now = start; now < end; now = now_ns()) {
    if (!in_window_ && now >= window_start) {
      in_window_ = true;
      toggle_.measure(true, now);
    }
    toggle_.tick(now);
    for (std::size_t n = 0; n < kNodes; ++n) {
      while (send(n, kFlood, pending[n], 0)) pending[n] = ledger_.generate(n);
    }
    poll(Duration{0});
  }
  const double window_s = static_cast<double>(now_ns() - window_start) / 1e9;
  in_window_ = false;
  toggle_.measure(false, now_ns());
  // The pending messages were attempted: they are sent, not dropped.
  for (std::size_t n = 0; n < kNodes; ++n) {
    while (!send(n, kFlood, pending[n], 0)) poll(Duration{0});
  }
  double min_rate = 1e300;
  for (const Member& m : members_) {
    min_rate = std::min(min_rate, static_cast<double>(m.window_delivered) / window_s);
  }
  return min_rate;
}

void RingBench::open_loop(const Schedule& s, Phase phase, std::int64_t fault_after_ns) {
  const std::int64_t start = now_ns();
  const std::size_t total = s.due.size();
  std::size_t next = 0;
  // Refused messages per origin, retried in order before newer ones.
  std::array<std::deque<std::pair<std::uint64_t, std::int64_t>>, kNodes> backlog;
  const auto backlog_empty = [&] {
    return std::all_of(backlog.begin(), backlog.end(), [](const auto& q) { return q.empty(); });
  };
  while (next < total || !backlog_empty()) {
    const std::int64_t now = now_ns();
    if (fault_after_ns >= 0 && fault_at_ns_ == 0 && now >= start + fault_after_ns) {
      fault_at_ns_ = now;
      ring_->transport(victim_, 1).set_send_fault(true);
      ring_->transport(victim_, 1).set_recv_fault(true);
    }
    toggle_.tick(now);
    for (std::size_t o = 0; o < kNodes; ++o) {
      while (!backlog[o].empty() && send(o, phase, backlog[o].front().first,
                                         backlog[o].front().second)) {
        backlog[o].pop_front();
      }
    }
    for (; next < total && start + s.due[next] <= now; ++next) {
      const std::size_t o = s.origin[next];
      const std::int64_t due = start + s.due[next];
      const std::uint64_t counter = ledger_.generate(o);
      lag_us_.push_back(static_cast<double>(now - due) / 1e3);
      if (!backlog[o].empty() || !send(o, phase, counter, due)) {
        backlog[o].emplace_back(counter, due);
      }
    }
    if (now - start > s.due.back() + kDrainBudgetNs) break;  // refusals never cleared
    poll(Duration{0});
  }
}

bool RingBench::drain() {
  const std::int64_t deadline = now_ns() + kDrainBudgetNs;
  while (now_ns() < deadline) {
    if (ledger_.settled()) return true;
    poll(Duration{1'000});
  }
  return false;
}

Counters RingBench::counters(std::vector<MetricsSnapshot>* metrics) const {
  Counters c{};
  for (std::size_t n = 0; n < kNodes; ++n) {
    const api::StatsSnapshot s = api::snapshot(*ring_->nodes[n], ring_->node_transports[n]);
    c[kSrpSent] += static_cast<double>(s.srp.messages_sent);
    c[kSrpBroadcast] += static_cast<double>(s.srp.messages_broadcast);
    c[kSrpTokens] += static_cast<double>(s.srp.tokens_processed);
    c[kSrpRetransmits] += static_cast<double>(s.srp.retransmissions_sent);
    c[kSrpRejects] += static_cast<double>(s.srp.send_queue_rejects);
    c[kRrpFannedOut] += static_cast<double>(s.rrp.packets_fanned_out);
    c[kRrpTimerExpiries] += static_cast<double>(s.rrp.token_timer_expiries);
    for (const auto& net : s.networks) {
      const auto& ts = net.transport;
      c[kNetSent] += static_cast<double>(ts.packets_sent);
      c[kNetReceived] += static_cast<double>(ts.packets_received);
      c[kNetTxBatches] += static_cast<double>(ts.tx_syscall_batches);
      c[kNetRxBatches] += static_cast<double>(ts.rx_syscall_batches);
      c[kNetDrops] += static_cast<double>(ts.rx_dropped + ts.rx_truncated + ts.rx_short +
                                          ts.tx_errors + ts.tx_queue_drops + ts.rx_queue_drops);
    }
    c[kPoolAllocs] += static_cast<double>(s.buffer_pool.allocations);
    if (metrics) metrics->push_back(s.metrics);
  }
  return c;
}

void RingBench::run() {
  // ---- set-up ----
  rep_.metric("setup_s", fresh_process_setup_s([this] {
                const std::int64_t t0 = now_ns();
                auto ring = build();
                return ring ? seconds_since(t0) : -1.0;
              }, rep_),
              "s");
  ring_ = build();
  if (!ring_) return;

  // ---- inputs, all from the seed, before the measured phases ----
  totem::Rng rng(opt_.seed);
  victim_ = static_cast<std::size_t>(rng.next_below(kNodes));
  flood_filler_.resize(kFloodBytes);
  open_filler_.resize(kOpenBytes);
  for (auto& b : flood_filler_) b = static_cast<std::byte>(rng.next_u64());
  for (auto& b : open_filler_) b = static_cast<std::byte>(rng.next_u64());
  const double seconds_ns = opt_.seconds * 1e9;
  const auto flood_ns = static_cast<std::int64_t>(seconds_ns * kFloodShare);
  std::vector<Schedule> open_segments;
  for (int r = 0; r < kRounds; ++r) {
    open_segments.push_back(poisson_schedule(
        rng, static_cast<std::int64_t>(seconds_ns * kOpenShare), rng.next_below(kNodes)));
  }
  const auto fault_ns = static_cast<std::int64_t>(seconds_ns * kFaultShare);
  const Schedule fault_segment = poisson_schedule(rng, fault_ns, rng.next_below(kNodes));
  lag_us_.reserve(static_cast<std::size_t>(opt_.seconds * kOpenRate));

  // ---- rounds of flood + open loop, then the fault phase ----
  const ProcUsage cpu0 = ProcUsage::now();
  Counters flood_sum{}, open_sum{};
  std::vector<MetricsSnapshot> open_metrics;
  std::vector<double> rates, p50s, tails;
  std::size_t open_samples = 0;
  for (int r = 0; r < kRounds; ++r) {
    Counters before = counters();
    rates.push_back(flood(flood_ns));
    rep_.check(drain(), "ring: flood messages not delivered everywhere within 5 s");
    Counters after = counters();
    flood_sum += after - before;

    reset_histograms();
    segment_us_.clear();
    open_loop(open_segments[r], kOpen, -1);
    rep_.check(drain(), "ring: open-loop messages not delivered everywhere within 5 s");
    before = after;
    after = counters(&open_metrics);
    open_sum += after - before;
    const Summary s = summarize(segment_us_);
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    open_samples += segment_us_.size();
  }
  const Counters before_fault = counters();
  open_loop(fault_segment, kFault, fault_ns / 3);
  rep_.check(drain(), "ring: fault-phase messages not delivered everywhere within 5 s");
  const Counters fault_sum = counters() - before_fault;
  const ProcUsage used = ProcUsage::now() - cpu0;

  // ---- end-to-end ----
  rep_.metric("msgs_per_s", median(rates), "1/s");
  rep_.metric("throughput_per_s", median(rates), "1/s");
  rep_.metric("deliver_p50_us", median(p50s), "us");
  rep_.metric("deliver_p99_us", median(tails), "us");
  rep_.metric("latency_p50_us", median(p50s), "us");
  rep_.metric("latency_tail_us", median(tails), "us");
  std::string rounds;
  for (int r = 0; r < kRounds; ++r) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " [%.0f/s %.1f/%.1f us]", rates[r], p50s[r], tails[r]);
    rounds += buf;
  }
  rep_.note("rounds (flood msgs/s, open p50/p99):" + rounds + "; the metrics are their medians, " +
            std::to_string(open_samples / kRounds) + " open-loop samples per round");
  rep_.timing("fault_deliver", fault_us_, "us");
  std::int64_t gap_ns = 0;
  for (const Member& m : members_) gap_ns = std::max(gap_ns, m.max_gap_ns);
  rep_.metric("failover_gap_ms", static_cast<double>(gap_ns) / 1e6, "ms");
  rep_.metric("rrp.failover_gap_ms", static_cast<double>(gap_ns) / 1e6, "ms");

  // ---- per layer: flood -> msgs_per_s, open -> latency, fault -> failover ----
  const double flood_msgs = flood_sum[kSrpSent];
  rep_.metric("net.datagrams_per_msg", ratio(flood_sum[kNetSent], flood_msgs), "count");
  rep_.metric("net.tx_batch_avg", ratio(flood_sum[kNetSent], flood_sum[kNetTxBatches]), "count");
  rep_.metric("net.rx_batch_avg", ratio(flood_sum[kNetReceived], flood_sum[kNetRxBatches]),
              "count");
  rep_.metric("rrp.packets_per_msg", ratio(flood_sum[kRrpFannedOut], flood_msgs), "count");
  rep_.metric("srp.msgs_per_token", ratio(flood_sum[kSrpBroadcast], flood_sum[kSrpTokens]),
              "count");
  rep_.metric("srp.send_reject_ratio",
              ratio(flood_sum[kSrpRejects], flood_sum[kSrpRejects] + flood_msgs), "ratio");
  rep_.metric("common.pool_allocs_per_msg", ratio(flood_sum[kPoolAllocs], flood_msgs), "count");
  const HistogramSnapshot rot = merged_histogram(open_metrics, "srp.token_rotation_us");
  const HistogramSnapshot gap = merged_histogram(open_metrics, "rrp.token_gap_us.net");
  const HistogramSnapshot lat = merged_histogram(open_metrics, "srp.delivery_latency_us");
  rep_.metric("srp.rotation_p50_us", rot.p50(), "us");
  rep_.metric("srp.rotation_p99_us", rot.p99(), "us");
  rep_.metric("rrp.token_gap_p99_us", gap.p99(), "us");
  rep_.metric("srp.delivery_p99_us", lat.p99(), "us");
  rep_.metric("srp.retransmit_ratio",
              ratio(open_sum[kSrpRetransmits], open_sum[kSrpBroadcast]), "ratio");
  rep_.metric("net.drops", open_sum[kNetDrops], "count");
  rep_.metric("rrp.token_timer_expiries", fault_sum[kRrpTimerExpiries], "count");
  double high_water = 0;
  for (const auto& n : ring_->nodes) {
    high_water = std::max(high_water,
                          static_cast<double>(n->ring().buffer_pool().stats().high_water));
  }
  rep_.metric("common.pool_high_water", high_water, "count");
  std::int64_t detect_ns = 0;
  bool all_detected = true;
  for (const std::int64_t d : fault_detect_ns_) {
    all_detected = all_detected && d > 0;
    detect_ns = std::max(detect_ns, d);
  }
  rep_.metric("rrp.fault_detect_ms", static_cast<double>(detect_ns) / 1e6, "ms");
  const Summary lag = summarize(lag_us_);
  rep_.metric("gen.lag_p99_us", lag.tail, "us");
  rep_.metric("gen.lag_max_us", lag.max, "us");

  // ---- output checks ----
  rep_.check(open_sum[kSrpRejects] + fault_sum[kSrpRejects] == 0,
             "ring: flow control refused an open-loop send");
  rep_.check(all_detected, "ring: not every node declared network 1 faulty");
  rep_.check(ring_->views_after_ready == 0,
             "ring: a network fault changed ring membership (" +
                 std::to_string(ring_->views_after_ready) + " views)");
  const auto r = ledger_.finish();
  for (std::size_t m = 1; m < kNodes; ++m) {
    rep_.check(members_[m].order_hash == members_[0].order_hash,
               "ring: order hash differs between member 0 and member " + std::to_string(m));
  }
  rep_.check(r.duplicates == 0, "ring: " + std::to_string(r.duplicates) + " duplicate deliveries");
  rep_.check(r.unknown == 0, "ring: " + std::to_string(r.unknown) + " deliveries never sent");
  rep_.check(r.overflowed == 0,
             "ring: " + std::to_string(r.overflowed) + " messages still incomplete after " +
                 std::to_string(DeliveryLedger::kWindow) + " newer ones from the same origin");
  rep_.check(r.undelivered == 0,
             "ring: " + std::to_string(r.undelivered) + " accepted messages lost");
  // The generator fell behind when more than 1 % of the messages were sent
  // over 1 ms late: latencies from such a schedule are invalid. (A single
  // host hiccup delays a few sends and is part of what is measured.)
  rep_.check(lag.tail < 1'000.0, "ring: generator fell behind its schedule (lag p99 " +
                                     std::to_string(lag.tail) + " us)");
  rep_.add_ops(r.attempted, r.failed);
  rep_.metric("failed_ratio", failed_ratio(r.failed, r.attempted), "ratio");
  report_proc(rep_, used, completed_);
  rep_.metric("peak_rss_mb", peak_rss_mb(), "MB");

  if (tracer_) {
    rep_.metric("trace.overhead_pct", toggle_.overhead_pct(), "%");
    auto& send_us = tracer_->self_us(SpanKind::kApiSend);
    rep_.metric("api.send_us_p50", percentile(send_us, 0.5), "us");
    rep_.metric("api.send_us_p99", summarize(send_us).tail, "us");
    if (!tracer_->write_jsonl(opt_.build_dir + "/spans-ring.jsonl")) {
      rep_.note("could not write the span file");
    }
    rep_.span_metrics(*tracer_);
  }
}

}  // namespace

void run_ring(const RunOptions& opt, Report& rep) {
  RingBench bench(opt, rep);
  bench.run();
}

}  // namespace perfbench
