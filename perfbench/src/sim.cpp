// sim: no sockets. Fig. 6 points (4 nodes; none / active / passive; 1 KB
// and the fragmenting 10 KB messages) on sim::Simulator through
// harness::SimCluster, plus a fixed list of classic, --kv and sharded chaos
// campaigns through harness::run_campaign / run_sharded_campaign. Whole
// passes over the list repeat until the run's time is used; the seed only
// rotates where a pass starts.
//
// Every figure point must deliver exactly its recorded count after exactly
// its recorded number of simulator events, and every campaign must pass its
// invariants with its recorded schedule+report digest: the simulator is
// deterministic, so any difference is a behaviour change, never noise.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/calibration.h"
#include "harness/drivers.h"
#include "harness/fault_campaign.h"
#include "harness/sharded_campaign.h"
#include "harness/sim_cluster.h"
#include "shard/partitioner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace totem;
using harness::SimCluster;

constexpr Duration kSlice{10'000};     // one timed Simulator::run_for
constexpr int kWarmupSlices = 20;      // 200 ms, as bench/figure_common.h
constexpr int kMeasuredSlices = 100;   // one simulated second

struct FigPoint {
  api::ReplicationStyle style;
  std::size_t message_size;
  std::uint64_t delivered;  // node 0, measured second
  std::uint64_t events;     // whole point, warm-up included
};

// Recorded at the commit that introduced this benchmark.
const std::vector<FigPoint> kFigPoints = {
    {api::ReplicationStyle::kNone, 1000, 9370, 75099},
    {api::ReplicationStyle::kActive, 1000, 7509, 116851},
    {api::ReplicationStyle::kPassive, 1000, 11471, 89617},
    {api::ReplicationStyle::kNone, 10000, 970, 63312},
    {api::ReplicationStyle::kActive, 10000, 906, 112806},
    {api::ReplicationStyle::kPassive, 10000, 1388, 87485},
};

enum class CampaignKind { kClassic, kKv, kSharded };

struct CampaignCase {
  CampaignKind kind;
  std::uint64_t seed;
  std::uint64_t digest;  // FNV-1a of kind + describe() (+ router counters, sharded)
};

const std::vector<CampaignCase> kCampaigns = {
    {CampaignKind::kClassic, 1, 0x07cbddf689459d2bULL},
    {CampaignKind::kClassic, 2, 0xcf5ef98d844f227fULL},
    {CampaignKind::kClassic, 3, 0xc5a011d188daf097ULL},
    {CampaignKind::kKv, 1, 0xb31fb13dcfeaccd8ULL},
    {CampaignKind::kKv, 2, 0xe35b427912a81dbcULL},
    {CampaignKind::kSharded, 1, 0x2d3d0b358914d567ULL},
};

const char* to_string(CampaignKind k) {
  switch (k) {
    case CampaignKind::kClassic: return "classic";
    case CampaignKind::kKv: return "kv";
    case CampaignKind::kSharded: return "sharded";
  }
  return "?";
}

harness::ClusterConfig figure_config(api::ReplicationStyle style) {
  harness::ClusterConfig cfg;
  cfg.node_count = 4;
  cfg.network_count = style == api::ReplicationStyle::kNone ? 1 : 2;
  cfg.style = style;
  cfg.net_params = harness::paper_net_params();
  cfg.host_costs = harness::paper_host_costs();
  harness::apply_paper_srp_costs(cfg.srp);
  cfg.record_payloads = false;
  return cfg;
}

class SimBench {
 public:
  SimBench(const RunOptions& opt, Report& rep)
      : opt_(opt), rep_(rep), tracer_(opt.trace ? std::make_unique<Tracer>() : nullptr),
        toggle_(tracer_.get(), 200'000'000) {}

  void run();

 private:
  void figure_point(const FigPoint& p);
  void campaign(const CampaignCase& c);

  const RunOptions& opt_;
  Report& rep_;
  std::unique_ptr<Tracer> tracer_;
  TraceToggle toggle_;
  bool first_pass_ = true;

  std::vector<double> slice_us_;
  std::vector<double> campaign_ms_;
  double events_ = 0, run_ns_ = 0, point_ns_ = 0, pass_events_ = 0;
  double campaigns_ = 0, campaign_ns_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

void SimBench::figure_point(const FigPoint& p) {
  ++attempted_;
  const std::int64_t t0 = now_ns();
  SimCluster cluster(figure_config(p.style));
  cluster.start_all();
  harness::SaturationDriver driver(cluster,
                                   {.message_size = p.message_size, .queue_target = 256});
  driver.start();
  const auto slice = [&](bool measured) {
    toggle_.tick(now_ns());
    const std::uint64_t before = cluster.simulator().events_executed();
    const std::int64_t s0 = now_ns();
    {
      Tracer::Scope span(tracer_.get(), SpanKind::kSimRun);
      cluster.run_for(kSlice);
    }
    const std::int64_t dt = now_ns() - s0;
    run_ns_ += static_cast<double>(dt);
    const auto ev = static_cast<double>(cluster.simulator().events_executed() - before);
    events_ += ev;
    toggle_.count(ev);
    if (measured) slice_us_.push_back(static_cast<double>(dt) / 1e3);
  };
  for (int i = 0; i < kWarmupSlices; ++i) slice(false);
  cluster.clear_recordings();
  for (int i = 0; i < kMeasuredSlices; ++i) slice(true);
  const std::uint64_t delivered = cluster.delivered_count(0);
  const std::uint64_t events = cluster.simulator().events_executed();
  point_ns_ += static_cast<double>(now_ns() - t0);
  if (first_pass_) pass_events_ += static_cast<double>(events);

  const bool ok = delivered == p.delivered && events == p.events;
  if (!ok) ++failed_;
  char what[200];
  std::snprintf(what, sizeof what,
                "sim: fig6 %s %zu B: delivered %" PRIu64 " after %" PRIu64
                " events, anchor %" PRIu64 " after %" PRIu64,
                api::to_string(p.style), p.message_size, delivered, events, p.delivered,
                p.events);
  rep_.check(ok, what);
}

void SimBench::campaign(const CampaignCase& c) {
  ++attempted_;
  const std::int64_t t0 = now_ns();
  toggle_.tick(t0);
  bool ok = false;
  std::string digest_input = std::string(to_string(c.kind)) + "|";
  std::string failure;
  {
    Tracer::Scope span(tracer_.get(), SpanKind::kHarnessCampaign, c.seed);
    if (c.kind == CampaignKind::kSharded) {
      harness::ShardedCampaignOptions o;
      o.seed = c.seed;
      const harness::ShardedCampaignResult r = harness::run_sharded_campaign(o);
      ok = r.ok();
      digest_input += r.describe() + "|" + std::to_string(r.ops_completed) + "|" +
                     std::to_string(r.ops_rejected);
      if (!ok) failure = r.report.to_string();
    } else {
      harness::CampaignOptions o;
      o.seed = c.seed;
      o.kv_workload = c.kind == CampaignKind::kKv;
      const harness::CampaignResult r = harness::run_campaign(o);
      ok = r.ok();
      digest_input += r.describe();
      if (!ok) failure = r.report.to_string();
    }
  }
  const std::int64_t dt = now_ns() - t0;
  campaign_ns_ += static_cast<double>(dt);
  campaign_ms_.push_back(static_cast<double>(dt) / 1e6);
  campaigns_ += 1;

  const std::uint64_t digest = shard::fnv1a64(digest_input);
  char what[200];
  std::snprintf(what, sizeof what, "sim: %s campaign seed %" PRIu64 ": invariants %s",
                to_string(c.kind), c.seed, ok ? "hold" : "VIOLATED");
  rep_.check(ok, what + (failure.empty() ? std::string() : ": " + failure));
  std::snprintf(what, sizeof what,
                "sim: %s campaign seed %" PRIu64 ": digest %016" PRIx64 ", recorded %016" PRIx64,
                to_string(c.kind), c.seed, digest, c.digest);
  rep_.check(digest == c.digest, what);
  if (!ok || digest != c.digest) ++failed_;
}

void SimBench::run() {
  // Set-up: a Fig. 6 cluster built, started and run until its ring has
  // delivered.
  rep_.metric("setup_s", fresh_process_setup_s([] {
                const std::int64_t t0 = now_ns();
                SimCluster cluster(figure_config(api::ReplicationStyle::kActive));
                cluster.start_all();
                harness::SaturationDriver driver(cluster,
                                                 {.message_size = 1000, .queue_target = 256});
                driver.start();
                while (cluster.delivered_count(0) == 0) cluster.run_for(kSlice);
                return seconds_since(t0);
              }, rep_),
              "s");

  // Inputs: the seed rotates where each pass starts.
  const std::size_t items = kFigPoints.size() + kCampaigns.size();
  const std::size_t offset = static_cast<std::size_t>(opt_.seed % items);
  const ProcUsage cpu0 = ProcUsage::now();
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(opt_.seconds * 1e9);
  toggle_.measure(true, start);
  int passes = 0;
  do {
    for (std::size_t k = 0; k < items; ++k) {
      const std::size_t i = (offset + k) % items;
      if (i < kFigPoints.size()) {
        figure_point(kFigPoints[i]);
      } else {
        campaign(kCampaigns[i - kFigPoints.size()]);
      }
    }
    first_pass_ = false;
    ++passes;
  } while (now_ns() - start < budget_ns);
  toggle_.measure(false, now_ns());
  const double wall_s = seconds_since(start);
  const ProcUsage used = ProcUsage::now() - cpu0;

  const double events_per_s = run_ns_ > 0 ? events_ / run_ns_ * 1e9 : 0.0;
  rep_.note(std::to_string(passes) + " passes in " + std::to_string(wall_s) + " s");
  rep_.metric("sim_events_per_s", events_per_s, "1/s");
  rep_.metric("throughput_per_s", events_per_s, "1/s");
  const double campaigns_per_s = campaign_ns_ > 0 ? campaigns_ / campaign_ns_ * 1e9 : 0.0;
  rep_.metric("campaigns_per_s", campaigns_per_s, "1/s");
  rep_.metric("harness.campaigns_per_s", campaigns_per_s, "1/s");
  rep_.timing("slice", slice_us_, "us");
  rep_.metric("latency_p50_us", summarize(slice_us_).p50, "us");
  rep_.metric("latency_tail_us", summarize(slice_us_).tail, "us");
  rep_.add_ops(attempted_, failed_);
  rep_.metric("failed_ratio", failed_ratio(failed_, attempted_), "ratio");
  rep_.metric("peak_rss_mb", peak_rss_mb(), "MB");

  rep_.metric("sim.events", pass_events_, "count");
  rep_.metric("sim.ns_per_event", events_ > 0 ? run_ns_ / events_ : 0.0, "ns");
  rep_.metric("sim.run_share", point_ns_ > 0 ? run_ns_ / point_ns_ : 0.0, "ratio");
  const Summary cm = summarize(campaign_ms_);
  rep_.metric("harness.campaign_ms_p50", cm.p50, "ms");
  rep_.metric("harness.campaign_ms_max", cm.max, "ms");
  report_proc(rep_, used, events_);
  if (tracer_) {
    rep_.metric("trace.overhead_pct", toggle_.overhead_pct(), "%");
    if (!tracer_->write_jsonl(opt_.build_dir + "/spans-sim.jsonl")) {
      rep_.note("could not write the span file");
    }
    rep_.span_metrics(*tracer_);
  }
}

}  // namespace

void run_sim(const RunOptions& opt, Report& rep) {
  SimBench bench(opt, rep);
  bench.run();
}

}  // namespace perfbench
