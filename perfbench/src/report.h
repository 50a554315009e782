// What one workload run measured: named metrics with units, output-check
// verdicts and the operation ledger. Printed as human-readable lines plus
// one JSON object on the last line (perfbench/run.py picks the metrics
// BENCHMARK.json names from it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

class Report {
 public:
  /// Record a metric and print "name = value unit".
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a timing summary: <prefix>_p50_<unit> and <prefix>_p99_<unit>
  /// (the tail percentile; see stats.h) plus a sample-count line.
  void timing(const std::string& prefix, std::vector<double>& samples,
              const std::string& unit);
  /// An output check. A false `ok` marks the run incorrect and names the
  /// violated property on stderr.
  void check(bool ok, const std::string& property);
  /// Free-form context line (not a metric).
  void note(const std::string& line);

  /// Operations attempted / failed (see DeliveryLedger).
  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }

  /// trace.<span>.self_us_p50 / _p99 / .count for every span kind the run
  /// recorded.
  void span_metrics(Tracer& tracer);

  [[nodiscard]] bool correct() const { return failed_checks_ == 0; }
  /// Print the final JSON line. Returns the process exit code.
  int finish();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  static constexpr std::uint64_t kMaxViolations = 20;
  std::vector<std::string> violations_;
  std::uint64_t failed_checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
