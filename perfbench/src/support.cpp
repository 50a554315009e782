#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "clock.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

// ---- clock.h ----

ProcUsage ProcUsage::now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime), us(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw) + static_cast<double>(ru.ru_nivcsw)};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---- spans.h ----

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kApiSend: return "api.send";
    case SpanKind::kReactorPoll: return "reactor.poll";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kShardPut: return "shard.put";
    case SpanKind::kShardGet: return "shard.get";
    case SpanKind::kShardComplete: return "shard.complete";
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kHarnessCampaign: return "harness.campaign";
    case SpanKind::kCount: break;
  }
  return "top";
}

Tracer::Tracer()
    : self_us_(static_cast<std::size_t>(SpanKind::kCount), Reservoir(kMaxSamples)) {
  records_.reserve(kMaxRecords);
  stack_.reserve(16);
}

void Tracer::begin(SpanKind kind, std::uint64_t id, std::int64_t now) {
  if (!enabled_) return;
  stack_.push_back(Open{kind, id, now, 0});
}

void Tracer::end(std::int64_t now) {
  if (stack_.empty()) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now - open.start_ns;
  self_us_[static_cast<std::size_t>(open.kind)].add(static_cast<double>(dur - open.child_ns) /
                                                     1e3);
  SpanKind parent = SpanKind::kCount;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    parent = stack_.back().kind;
  }
  if (records_.size() < kMaxRecords) {
    records_.push_back(SpanRecord{open.start_ns, now, open.id, open.kind, parent});
  }
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& r : records_) {
    std::fprintf(f,
                 "{\"span\":\"%s\",\"parent\":\"%s\",\"id\":%" PRIu64
                 ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                 to_string(r.kind), to_string(r.parent), r.id, r.start_ns, r.end_ns);
  }
  return std::fclose(f) == 0;
}

// ---- report.h ----

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
  std::printf("  %-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
}

void Report::timing(const std::string& prefix, std::vector<double>& samples,
                    const std::string& unit) {
  const Summary s = summarize(samples);
  metric(prefix + "_p50_" + unit, s.p50, unit);
  metric(prefix + "_p99_" + unit, s.tail, unit);
  char line[160];
  std::snprintf(line, sizeof line, "%s: n=%zu, tail percentile p%.2f, max %.1f %s",
                prefix.c_str(), s.n, s.tail_q * 100, s.max, unit.c_str());
  note(line);
}

void Report::check(bool ok, const std::string& property) {
  if (ok) return;
  // A broken invariant tends to fail once per message: keep the first few.
  if (++failed_checks_ > kMaxViolations) return;
  violations_.push_back(property);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", property.c_str());
}

void Report::note(const std::string& line) { std::printf("  # %s\n", line.c_str()); }

void Report::span_metrics(Tracer& tracer) {
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
    const auto kind = static_cast<SpanKind>(k);
    if (tracer.seen(kind) == 0) continue;  // not a layer of this workload
    auto& samples = tracer.self_us(kind);
    const Summary s = summarize(samples);
    const std::string base = std::string("trace.") + to_string(kind);
    metric(base + ".self_us_p50", s.p50, "us");
    metric(base + ".self_us_p99", s.tail, "us");
    metric(base + ".count", static_cast<double>(tracer.seen(kind)), "count");
  }
}

int Report::finish() {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}";
  if (failed_checks_ > kMaxViolations) {
    violations_.push_back(std::to_string(failed_checks_ - kMaxViolations) +
                          " further check failures");
  }
  if (!violations_.empty()) {
    json += ", \"violations\": [";
    for (std::size_t i = 0; i < violations_.size(); ++i) {
      json += (i ? ", " : "") + json_string(violations_[i]);
    }
    json += "]";
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
