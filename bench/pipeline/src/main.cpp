// bench_pipeline — quarcnoc's end-to-end benchmark with per-layer
// attribution. See README.md for the workloads, the metrics and how to
// run, trace and compare.
//
//   bench_pipeline --workload W --seed N --seconds S --trace 0|1
//                  [--out FILE] [--spans FILE] [--git-sha SHA]
//   bench_pipeline --merge OUT FILE...
//   bench_pipeline --compare A.json B.json
//
// A run generates the workload's inputs from the seed (timed as set-up,
// several times), then measures passes for about S seconds: untraced
// passes give the end-to-end metrics, and with --trace 1 each untraced
// pass is followed by a traced one that gives the per-layer metrics. The
// last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "quarc/util/json.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace bench;
using quarc::json::Value;

constexpr int kSetupRepeats = 9;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "bench_pipeline: " << problem << "\n"
            << "usage: bench_pipeline --workload W --seed N --seconds S --trace 0|1"
               " [--out FILE] [--spans FILE] [--git-sha SHA]\n"
               "       bench_pipeline --merge OUT FILE...\n"
               "       bench_pipeline --compare A.json B.json\n";
  std::exit(2);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Median of each named value over passes, with the samples kept.
class Series {
 public:
  /// Non-finite values (a quantile of no samples) are left out.
  void add(const Metrics& values) {
    for (const auto& [name, metric] : values) {
      if (!std::isfinite(metric.value)) continue;
      samples_[name].push_back(metric.value);
      units_[name] = metric.unit;
    }
  }
  void add(const std::string& name, double value, const std::string& unit) {
    add(Metrics{{name, {value, unit}}});
  }
  Value to_json() const {
    Value out = Value::object();
    for (const auto& [name, samples] : samples_) {
      Value metric = Value::object();
      metric.set("value", median(samples));
      metric.set("unit", units_.at(name));
      Value list = Value::array();
      for (const double s : samples) list.push_back(s);
      metric.set("samples", std::move(list));
      out.set(name, std::move(metric));
    }
    return out;
  }
  double value(const std::string& name) const { return median(samples_.at(name)); }
  Metrics medians() const {
    Metrics out;
    for (const auto& [name, samples] : samples_) out[name] = {median(samples), units_.at(name)};
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> units_;
};

int run(const Options& opt) {
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const std::unique_ptr<Workload> workload = make_workload(opt.workload, nproc);
  if (!workload) usage("unknown workload '" + opt.workload + "'");

  // Set-up is timed before the first pass and again, on the same seed,
  // before every later one, so its median samples the whole run the way
  // the passes do instead of the host's state in its first milliseconds.
  Series untraced;
  auto time_setup = [&] {
    std::vector<double> times;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point t0 = Clock::now();
      workload->setup(opt.seed);
      times.push_back(seconds_since(t0));
    }
    untraced.add("setup_s", median(times), "s");
  };
  time_setup();

  Series traced;
  Series detail;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::size_t passes = 0;
  std::size_t traced_passes = 0;
  std::map<std::string, double> tag_layer_ms;
  Tracer last_tracer;
  const double span_cost_ns = opt.trace ? Tracer::span_cost_ns() : 0.0;
  const Clock::time_point start = Clock::now();
  double round_s = 0.0;  // the longest pass, or pass pair when tracing
  const std::size_t min_passes = opt.trace ? 1 : kMinPasses;
  while (passes < min_passes || (seconds_since(start) + round_s <= opt.seconds &&
                                 passes < kMaxPasses)) {
    const Clock::time_point round_start = Clock::now();
    if (passes > 0) time_setup();
    const PassOutcome pass = workload->run_pass();
    ++passes;
    attempted += pass.attempted;
    failed += pass.failed;
    if (pass.wall_s > 0.0) {
      untraced.add("wall_s", pass.wall_s, "s");
      untraced.add("curves_per_s", static_cast<double>(pass.curves) / pass.wall_s, "1/s");
    }
    detail.add(pass.detail);
    if (opt.trace) {
      Tracer tracer;
      Metrics counts;
      const PassOutcome tpass = workload->run_traced(tracer, counts);
      ++traced_passes;
      attempted += tpass.attempted;
      failed += tpass.failed;
      traced.add(per_layer_metrics(tracer, counts, pass.wall_s, span_cost_ns));
      Metrics spans;
      for (const auto& [name, ms] : tracer.total_ms_by_name()) {
        spans["span." + name + "_ms"] = {ms, "ms"};
      }
      detail.add(spans);
      for (const auto& [key, ms] : tracer.self_ms_by_tag_layer()) tag_layer_ms[key] += ms;
      last_tracer = std::move(tracer);
    }
    round_s = std::max(round_s, seconds_since(round_start));
  }
  untraced.add("peak_rss_mb", peak_rss_mb(), "MB");

  if (!opt.spans.empty()) {
    std::ofstream spans_out(opt.spans);
    last_tracer.write_jsonl(spans_out);
  }

  const std::vector<MetricSpec>& reported = opt.trace ? kPerLayerMetrics : kEndToEndMetrics;
  const Series& series = opt.trace ? traced : untraced;
  if (opt.trace) {
    const double share = traced.value("trace.attributed_share");
    if (!(share >= kMinAttributedShare)) {
      std::cerr << "bench_pipeline: " << opt.workload << ": layer spans cover only " << share
                << " of the traced pass (need " << kMinAttributedShare << ")\n";
      return 1;
    }
  }

  std::cout << opt.workload << " (seed " << opt.seed << ", " << workload->threads()
            << " threads, " << passes << " passes" << (opt.trace ? ", traced" : "") << ")\n";
  auto print = [](const std::string& name, double value, const std::string& unit) {
    std::cout << "  " << std::left << std::setw(32) << name << std::right << std::setw(16)
              << std::setprecision(6) << value << " " << unit << "\n";
  };
  for (const MetricSpec& spec : reported) print(spec.name, series.value(spec.name), spec.unit);
  for (const auto& [name, metric] : detail.medians()) print(name, metric.value, metric.unit);

  if (!opt.out.empty()) {
    Value doc = Value::object();
    doc.set("schema", 1);
    doc.set("machine", machine_descriptor(opt.git_sha, nproc));
    doc.set("workload", opt.workload);
    doc.set("seed", opt.seed);
    doc.set("seconds", opt.seconds);
    doc.set("trace", opt.trace);
    doc.set("threads", workload->threads());
    doc.set("passes", static_cast<std::int64_t>(passes));
    doc.set("traced_passes", static_cast<std::int64_t>(traced_passes));
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    doc.set("metrics", series.to_json());
    doc.set("detail", detail.to_json());
    if (opt.trace) {
      Value by_tag = Value::object();
      for (const auto& [key, ms] : tag_layer_ms) {
        by_tag.set(key + "_ms", ms / static_cast<double>(traced_passes));
      }
      doc.set("self_ms_by_tag", std::move(by_tag));
    }
    std::ofstream out(opt.out);
    doc.write(out, 2);
    out << "\n";
  }

  Value metrics = Value::object();
  for (const MetricSpec& spec : reported) {
    Value metric = Value::object();
    metric.set("value", series.value(spec.name));
    metric.set("unit", spec.unit);
    metrics.set(spec.name, std::move(metric));
  }
  Value result = Value::object();
  result.set("correct", failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args[0] == "--merge") {
      if (args.size() < 3) usage("--merge needs an output and at least one input");
      return merge_results(args[1], std::vector<std::string>(args.begin() + 2, args.end()));
    }
    if (!args.empty() && args[0] == "--compare") {
      if (args.size() != 3) usage("--compare takes two results files");
      return compare_results(args[1], args[2], std::cout);
    }
    Options opt;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i + 1 >= args.size()) usage("missing value for " + args[i]);
      const std::string& value = args[++i];
      const std::string& flag = args[i - 1];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--out") {
        opt.out = value;
      } else if (flag == "--spans") {
        opt.spans = value;
      } else if (flag == "--git-sha") {
        opt.git_sha = value;
      } else {
        usage("unknown option " + flag);
      }
    }
    if (opt.workload.empty()) usage("--workload is required");
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "bench_pipeline: " << e.what() << "\n";
    return 1;
  }
}
