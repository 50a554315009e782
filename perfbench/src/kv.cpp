// kv: harness::UdpShardedCluster — 2 shards x 3 replicas x 2 networks on
// one reactor thread — behind shard::ShardedKv. Sixteen logical clients run
// a closed loop over a seeded Zipf key set: 60 % put, 20 % cas (version
// read by get first), 20 % get. Writes are timed from submit to the
// router's completion (local apply at the submit replica).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/sharded_cluster.h"
#include "shard/sharded_kv.h"
#include "smr/replicated_kv.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace totem;

constexpr std::size_t kShards = 2;
constexpr std::size_t kReplicas = 3;
constexpr std::uint16_t kPortBase = 52400;  // 52400..52463 (SHARDING.md layout)
constexpr std::size_t kClients = 16;
constexpr std::size_t kKeys = 1024;
constexpr double kZipfExponent = 0.99;
constexpr std::size_t kValueBytes = 64;
constexpr std::size_t kOpsPerClient = 1 << 15;  // generated inputs, reused cyclically
constexpr Duration kLiveBudget{10'000'000};
constexpr std::int64_t kDrainBudgetNs = 5'000'000'000;
constexpr std::size_t kWindows = 12;
/// Write latencies kept per window: about twice the writes of a window on
/// the reference host. A faster window is sampled, so the buffer — and the
/// peak RSS — does not grow with throughput.
constexpr std::size_t kWindowSamples = std::size_t{1} << 19;

enum class OpType : std::uint8_t { kPut, kCas, kGet };

struct Op {
  OpType type;
  std::uint32_t key;
};

struct Client {
  std::vector<Op> ops;
  std::size_t next = 0;
  bool waiting = false;  // a write is in flight
  bool refused = false;  // ops[next] was refused; retried, not re-attempted
};

struct Pending {
  std::uint64_t span;  // span id shared by the op's put/cas and completion
  std::size_t client;
  std::int64_t submitted_ns;
  std::uint32_t key;
  OpType type;
  std::string value;
};

std::unique_ptr<harness::UdpShardedCluster> build(std::uint64_t seed, Report& rep) {
  harness::ShardedClusterConfig cfg;
  cfg.shard_count = kShards;
  cfg.nodes_per_shard = kReplicas;
  cfg.networks_per_shard = 2;
  cfg.style = api::ReplicationStyle::kActive;
  cfg.seed = seed;
  auto cluster = std::make_unique<harness::UdpShardedCluster>(cfg, kPortBase);
  if (!cluster->ok().is_ok()) {
    rep.check(false, "kv: UDP setup: " + cluster->ok().to_string());
    return nullptr;
  }
  cluster->start_all();
  if (!cluster->wait_all_live(kLiveBudget)) {
    rep.check(false, "kv: setup: replicas not live within 10 s");
    return nullptr;
  }
  return cluster;
}

}  // namespace

void run_kv(const RunOptions& opt, Report& rep) {
  // ---- set-up ----
  rep.metric("setup_s", fresh_process_setup_s([&] {
               const std::int64_t t0 = now_ns();
               auto cluster = build(opt.seed, rep);
               return cluster ? seconds_since(t0) : -1.0;
             }, rep),
             "s");
  std::unique_ptr<harness::UdpShardedCluster> cluster = build(opt.seed, rep);
  if (!cluster) return;

  // ---- inputs, all from the seed, before the measured phase ----
  totem::Rng rng(opt.seed);
  std::vector<double> cdf(kKeys);
  double acc = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = acc;
  }
  std::vector<std::string> keys(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) keys[k] = "key-" + std::to_string(k);
  // Key ranks alternate between the shards, so every seed puts the same
  // share of the load on each shard; the seed shuffles which of a shard's
  // keys holds which of its ranks.
  ShardedKv& kv = cluster->kv();
  std::vector<std::vector<std::uint32_t>> shard_keys(kShards);
  for (std::uint32_t k = 0; k < kKeys; ++k) shard_keys[kv.shard_for(keys[k])].push_back(k);
  for (auto& v : shard_keys) {
    for (std::size_t k = v.size() - 1; k > 0; --k) std::swap(v[k], v[rng.next_below(k + 1)]);
  }
  std::vector<std::uint32_t> rank_to_key;
  for (std::size_t r = 0; rank_to_key.size() < kKeys; ++r) {
    const auto& v = shard_keys[r % kShards];
    if (r / kShards < v.size()) rank_to_key.push_back(v[r / kShards]);
  }
  std::vector<Client> clients(kClients);
  for (Client& c : clients) {
    c.ops.reserve(kOpsPerClient);
    for (std::size_t i = 0; i < kOpsPerClient; ++i) {
      const double u = rng.next_double() * acc;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const std::uint64_t mix = rng.next_below(10);
      const OpType type = mix < 6 ? OpType::kPut : mix < 8 ? OpType::kCas : OpType::kGet;
      c.ops.push_back(Op{type, rank_to_key[std::min(rank, kKeys - 1)]});
    }
  }
  std::string filler(kValueBytes, 'x');
  for (char& ch : filler) ch = static_cast<char>('a' + rng.next_below(26));

  std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>() : nullptr;
  TraceToggle toggle(tracer.get(), 100'000'000);
  std::map<std::uint64_t, Pending> pending;
  std::vector<std::string> acked(kKeys);  // last acknowledged value per key
  Reservoir write_us(kWindowSamples);  // current window
  std::vector<double> window_rates, window_p50s, window_tails;
  std::size_t write_samples = 0;
  write_us.preallocate();
  std::uint64_t attempted = 0, failed = 0, refusals = 0, completed_writes = 0;
  std::uint64_t cas_attempts = 0, cas_conflicts = 0, window_ops = 0;
  std::uint64_t seq = 0;
  bool in_window = false;

  kv.set_completion_handler([&](const shard::OpCompletion& done) {
    auto it = pending.find(done.op);
    if (it == pending.end()) {
      rep.check(false, "kv: completion for an unknown op");
      return;
    }
    Pending& p = it->second;
    Tracer::Scope span(tracer.get(), SpanKind::kShardComplete, p.span);
    rep.check(done.decoded, "kv: undecodable apply result");
    if (p.type == OpType::kPut || done.result.ok) acked[p.key] = p.value;
    if (p.type == OpType::kCas && !done.result.ok) ++cas_conflicts;
    ++completed_writes;
    if (in_window) {
      write_us.add(static_cast<double>(now_ns() - p.submitted_ns) / 1e3);
      ++window_ops;
      toggle.count(1);
    }
    clients[p.client].waiting = false;
    pending.erase(it);
  });

  // One op per idle client per pass; a refused write is retried next pass.
  const auto issue = [&](std::size_t ci) {
    Client& c = clients[ci];
    const Op& op = c.ops[c.next % c.ops.size()];
    const std::string& key = keys[op.key];
    if (!c.refused) ++attempted;
    if (op.type == OpType::kGet) {
      shard::ReadResult r;
      {
        Tracer::Scope span(tracer.get(), SpanKind::kShardGet, span_id(ci, c.next));
        r = kv.get(key);
      }
      if (r.status == shard::ReadStatus::kUnavailable) ++failed;
      if (in_window) {
        ++window_ops;
        toggle.count(1);
      }
      ++c.next;
      return;
    }
    // A value unique to this write ("c<client>.<seq>|<filler>").
    std::string value(1, 'c');
    value += std::to_string(ci);
    value += '.';
    value += std::to_string(seq++);
    value += '|';
    value += filler;
    const std::uint64_t id = span_id(ci, c.next);
    const std::int64_t submitted = now_ns();
    Result<std::uint64_t> r = Status{};
    {
      Tracer::Scope span(tracer.get(), SpanKind::kShardPut, id);
      if (op.type == OpType::kPut) {
        r = kv.put(key, to_bytes(value));
      } else {
        const shard::ReadResult cur = kv.get(key);
        r = kv.cas(key, cur.status == shard::ReadStatus::kOk ? cur.version : 0, to_bytes(value));
      }
    }
    c.refused = !r.is_ok();
    if (c.refused) {
      ++refusals;
      return;  // same op next pass
    }
    if (op.type == OpType::kCas) ++cas_attempts;
    pending.emplace(r.value(), Pending{id, ci, submitted, op.key, op.type, std::move(value)});
    c.waiting = true;
    ++c.next;
  };

  const auto seconds_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const ProcUsage cpu0 = ProcUsage::now();
  const shard::ClusterSnapshot before = cluster->snapshot(true);
  // The first tenth warms up; the rest is cut into kWindows windows whose
  // medians are the end-to-end figures.
  const std::int64_t start = now_ns();
  const std::int64_t window_ns =
      (seconds_ns - seconds_ns / 10) / static_cast<std::int64_t>(kWindows);
  std::int64_t window_start = start + seconds_ns / 10;
  const std::int64_t end = start + seconds_ns;
  const auto close_window = [&](std::int64_t now) {
    window_rates.push_back(static_cast<double>(window_ops) * 1e9 /
                           static_cast<double>(now - window_start));
    const Summary w = summarize(write_us.values());
    window_p50s.push_back(w.p50);
    window_tails.push_back(w.tail);
    write_samples += write_us.seen();
    write_us.clear();
    window_ops = 0;
    window_start = now;
  };
  for (std::int64_t now = start; now < end; now = now_ns()) {
    if (!in_window && now >= window_start) {
      in_window = true;
      toggle.measure(true, now);
      window_start = now;
    } else if (in_window && window_rates.size() + 1 < kWindows &&
               now - window_start >= window_ns) {
      close_window(now);
    }
    toggle.tick(now);
    for (std::size_t ci = 0; ci < kClients; ++ci) {
      if (!clients[ci].waiting) issue(ci);
    }
    Tracer::Scope span(tracer.get(), SpanKind::kReactorPoll);
    cluster->poll_once(Duration{0});
  }
  close_window(now_ns());  // the last of the kWindows
  toggle.measure(false, now_ns());
  in_window = false;
  for (const Client& c : clients) {
    if (c.refused) ++failed;  // refused and never accepted
  }

  // ---- drain: every accepted write completes, replicas converge ----
  const std::int64_t deadline = now_ns() + kDrainBudgetNs;
  const auto converged = [&] {
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::size_t r = 1; r < kReplicas; ++r) {
        if (cluster->log(s, r).applied_seq() != cluster->log(s, 0).applied_seq()) return false;
      }
    }
    return true;
  };
  while (now_ns() < deadline && (!pending.empty() || !converged())) {
    cluster->poll_once(Duration{1'000});
  }
  const ProcUsage used = ProcUsage::now() - cpu0;
  failed += pending.size();

  // ---- output checks ----
  rep.check(pending.empty(), "kv: " + std::to_string(pending.size()) +
                                 " accepted writes not applied within the drain deadline");
  for (std::size_t s = 0; s < kShards; ++s) {
    const Bytes snap0 = cluster->log(s, 0).machine().snapshot();
    for (std::size_t r = 1; r < kReplicas; ++r) {
      rep.check(cluster->log(s, r).machine().snapshot() == snap0,
                "kv: shard " + std::to_string(s) + " replica " + std::to_string(r) +
                    " snapshot differs from replica 0");
    }
  }
  std::size_t invisible = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    if (acked[k].empty()) continue;
    const shard::ReadResult r = kv.get(keys[k]);
    if (r.status != shard::ReadStatus::kOk || totem::to_string(BytesView(r.value)) != acked[k]) ++invisible;
  }
  rep.check(invisible == 0,
            "kv: " + std::to_string(invisible) + " acknowledged writes not visible via get");

  // ---- end-to-end ----
  const double ops_per_s = median(window_rates);
  rep.metric("ops_per_s", ops_per_s, "1/s");
  rep.metric("throughput_per_s", ops_per_s, "1/s");
  rep.metric("write_p50_us", median(window_p50s), "us");
  rep.metric("write_p99_us", median(window_tails), "us");
  rep.metric("latency_p50_us", median(window_p50s), "us");
  rep.metric("latency_tail_us", median(window_tails), "us");
  rep.note("ops/s and write p50/p99 are medians over " + std::to_string(window_rates.size()) +
           " windows of " + std::to_string(write_samples / std::max<std::size_t>(window_rates.size(), 1)) +
           " writes on average (p99 needs 1000 per window)");
  rep.add_ops(attempted, failed);
  rep.metric("failed_ratio", failed_ratio(failed, attempted), "ratio");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");

  // ---- per layer ----
  const shard::ClusterSnapshot after = cluster->snapshot(true);
  double submitted = 0, queued = 0, backpressure = 0, applied = 0;
  double broadcast = 0, tokens = 0, net_sent = 0, srp_sent = 0;
  std::vector<MetricsSnapshot> metrics;
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto& a = after.shards[s];
    const auto& b = before.shards[s];
    submitted += static_cast<double>(a.router.submitted - b.router.submitted);
    queued += static_cast<double>(a.router.queued - b.router.queued);
    backpressure += static_cast<double>(a.router.rejected_backpressure - b.router.rejected_backpressure);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      applied += static_cast<double>(cluster->log(s, r).stats().commands_applied);
      const api::StatsSnapshot& na = a.nodes[r];
      const api::StatsSnapshot& nb = b.nodes[r];
      broadcast += static_cast<double>(na.srp.messages_broadcast - nb.srp.messages_broadcast);
      tokens += static_cast<double>(na.srp.tokens_processed - nb.srp.tokens_processed);
      srp_sent += static_cast<double>(na.srp.messages_sent - nb.srp.messages_sent);
      for (std::size_t k = 0; k < na.networks.size(); ++k) {
        net_sent += static_cast<double>(na.networks[k].transport.packets_sent -
                                        nb.networks[k].transport.packets_sent);
      }
      metrics.push_back(na.metrics);
    }
  }
  rep.metric("shard.backpressure_ratio", ratio(backpressure, submitted + backpressure), "ratio");
  rep.metric("shard.queued_ratio", ratio(queued, submitted), "ratio");
  rep.metric("smr.applied_per_write", ratio(applied, static_cast<double>(completed_writes)), "count");
  rep.metric("kv.cas_conflict_ratio",
             ratio(static_cast<double>(cas_conflicts), static_cast<double>(cas_attempts)), "ratio");
  rep.metric("srp.msgs_per_token", ratio(broadcast, tokens), "count");
  rep.metric("net.datagrams_per_msg", ratio(net_sent, srp_sent), "count");
  const HistogramSnapshot rot = merged_histogram(metrics, "srp.token_rotation_us");
  rep.metric("srp.rotation_p50_us", rot.p50(), "us");
  rep.metric("srp.rotation_p99_us", rot.p99(), "us");
  report_proc(rep, used, static_cast<double>(completed_writes));
  rep.metric("kv.refusals", static_cast<double>(refusals), "count");

  if (tracer) {
    rep.metric("trace.overhead_pct", toggle.overhead_pct(), "%");
    rep.metric("shard.put_us_p50", percentile(tracer->self_us(SpanKind::kShardPut), 0.5), "us");
    rep.metric("shard.put_us_p99", summarize(tracer->self_us(SpanKind::kShardPut)).tail, "us");
    rep.metric("shard.get_us_p50", percentile(tracer->self_us(SpanKind::kShardGet), 0.5), "us");
    if (!tracer->write_jsonl(opt.build_dir + "/spans-kv.jsonl")) {
      rep.note("could not write the span file");
    }
    rep.span_metrics(*tracer);
  }
}

}  // namespace perfbench
