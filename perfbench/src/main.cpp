// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload ring|kv|sim --seed N --seconds S
//                    --trace 0|1 [--build-dir DIR]
//
// perfbench/run.py builds this binary and selects, from the metrics printed
// here, the ones BENCHMARK.json names. Exit code 1 means an output check
// failed (the violated property is printed on stderr), 2 a usage error.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

double median(std::vector<double> v) { return percentile(v, 0.5); }

double fresh_process_setup_s(const std::function<double()>& once, Report& rep) {
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) break;
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      const double s = once();
      const bool ok = ::write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
      ::_exit(ok && s >= 0 ? 0 : 1);
    }
    ::close(fds[1]);
    double s = -1;
    if (pid < 0 || ::read(fds[0], &s, sizeof s) != static_cast<ssize_t>(sizeof s)) s = -1;
    ::close(fds[0]);
    int status = 0;
    if (pid > 0) (void)::waitpid(pid, &status, 0);
    if (s < 0) break;
    setups.push_back(s);
  }
  rep.check(setups.size() == kSetupRepeats, "set-up failed in a fresh process");
  if (setups.size() != kSetupRepeats) return 0.0;
  const auto [lo, hi] = std::minmax_element(setups.begin(), setups.end());
  char line[128];
  std::snprintf(line, sizeof line, "set-up: %zu fresh processes, min %.6f s, max %.6f s",
                setups.size(), *lo, *hi);
  rep.note(line);
  return median(setups);
}

void TraceToggle::accrue(std::int64_t now) {
  if (measuring_) time_ns_[on_ ? 1 : 0] += static_cast<double>(now - accrued_to_);
  accrued_to_ = now;
}

void TraceToggle::tick(std::int64_t now) {
  if (t_ == nullptr) return;
  if (window_start_ == 0) {
    window_start_ = accrued_to_ = now;
    on_ = false;
    t_->set_enabled(false);
    return;
  }
  if (now - window_start_ < window_ns_) return;
  accrue(now);
  on_ = !on_;
  t_->set_enabled(on_);
  window_start_ = now;
}

void TraceToggle::measure(bool on, std::int64_t now) {
  if (t_ == nullptr) return;
  accrue(now);
  measuring_ = on;
}

double TraceToggle::overhead_pct() const {
  if (time_ns_[0] <= 0 || time_ns_[1] <= 0 || work_[0] <= 0) return 0.0;
  const double off = work_[0] / time_ns_[0];
  const double on = work_[1] / time_ns_[1];
  return (off - on) / off * 100.0;
}

totem::HistogramSnapshot merged_histogram(const std::vector<totem::MetricsSnapshot>& snaps,
                                   const std::string& prefix) {
  totem::HistogramSnapshot out;
  out.name = prefix;
  for (const totem::MetricsSnapshot& s : snaps) {
    for (const totem::HistogramSnapshot& h : s.histograms) {
      if (h.name.rfind(prefix, 0) != 0 || h.count == 0) continue;
      out.min = out.count == 0 ? h.min : std::min(out.min, h.min);
      out.max = std::max(out.max, h.max);
      out.count += h.count;
      out.sum += h.sum;
      for (std::size_t b = 0; b < h.buckets.size(); ++b) out.buckets[b] += h.buckets[b];
    }
  }
  return out;
}

void report_proc(Report& rep, const ProcUsage& used, double ops) {
  const double cpu = used.user_us + used.sys_us;
  rep.metric("proc.cpu_us_per_op", ops > 0 ? cpu / ops : 0.0, "us");
  rep.metric("proc.sys_share", cpu > 0 ? used.sys_us / cpu : 0.0, "ratio");
  rep.metric("proc.ctx_switches_per_op", ops > 0 ? used.ctx_switches / ops : 0.0, "count");
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload ring|kv|sim --seed N "
               "--seconds S --trace 0|1 [--build-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.build_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--build-dir") opt.build_dir = value;
    else usage(("unknown flag " + flag).c_str());
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");

  perfbench::Report rep;
  std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  if (opt.workload == "ring") perfbench::run_ring(opt, rep);
  else if (opt.workload == "kv") perfbench::run_kv(opt, rep);
  else if (opt.workload == "sim") perfbench::run_sim(opt, rep);
  else usage(("unknown workload " + opt.workload).c_str());
  if (rep.attempted() == 0) rep.check(false, "no operation was attempted");
  return rep.finish();
}
