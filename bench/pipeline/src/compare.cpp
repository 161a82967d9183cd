// --merge and --compare over results files.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <iomanip>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "report.hpp"

namespace bench {
namespace {

using quarc::json::Value;

/// Deterministic for a given seed: compared exactly, lower is better.
constexpr const char* kAccuracyMetrics[] = {"model_sim_err_p50", "model_sim_err_max"};

/// An end-to-end metric's bound is its relative bound or this absolute
/// change, whichever is larger. Set-up takes microseconds to milliseconds,
/// where a share of the time is below the host's scheduling noise.
struct AbsoluteFloor {
  const char* name;
  double floor;
};
constexpr AbsoluteFloor kAbsoluteFloors[] = {{"setup_s", 0.005}};

double absolute_floor(const std::string& name) {
  for (const AbsoluteFloor& f : kAbsoluteFloors) {
    if (name == f.name) return f.floor;
  }
  return 0.0;
}

std::vector<double> samples_of(const Value& metric) {
  std::vector<double> out;
  if (const Value* samples = metric.find("samples")) {
    for (const Value& s : samples->as_array()) out.push_back(s.as_double());
  }
  if (out.empty()) out.push_back(metric.at("value").as_double());
  return out;
}

/// Distance between the quartiles.
double quartile_range(const std::vector<double>& samples) {
  return quantile(samples, 0.75) - quantile(samples, 0.25);
}

/// Distance between the quartiles as a share of the median.
double spread(const std::vector<double>& samples) {
  const double mid = median(samples);
  return mid == 0.0 ? 0.0 : quartile_range(samples) / std::abs(mid);
}

const Value* metric_in(const Value& results, const std::string& workload, const char* section,
                       const std::string& name) {
  const Value* w = results.at("workloads").find(workload);
  if (w == nullptr) return nullptr;
  const Value* run = w->find(section);
  if (run == nullptr) return nullptr;
  for (const char* group : {"metrics", "detail"}) {
    if (const Value* metrics = run->find(group)) {
      if (const Value* m = metrics->find(name)) return m;
    }
  }
  return nullptr;
}

struct Row {
  Row(std::string w, std::string m, std::string u)
      : workload(std::move(w)), metric(std::move(m)), unit(std::move(u)) {}
  std::string workload, metric, unit;
  double a = 0.0, b = 0.0, delta = 0.0, bound = 0.0;
  std::string verdict;
};

}  // namespace

int merge_results(const std::string& out_path, const std::vector<std::string>& inputs) {
  std::map<std::string, std::map<std::string, Value>> runs;  // workload -> section -> doc
  Value machine;
  Value seed;
  for (const std::string& path : inputs) {
    const Value doc = read_json_file(path);
    if (machine.is_null()) {
      machine = doc.at("machine");
      seed = doc.at("seed");
    }
    Value run = Value::object();
    for (const auto& [key, value] : doc.as_object()) {
      if (key != "machine" && key != "workload") run.set(key, value);
    }
    runs[doc.at("workload").as_string()][doc.at("trace").as_bool() ? "traced" : "untraced"] =
        std::move(run);
  }
  Value workloads = Value::object();
  for (const std::string_view name : kWorkloadNames) {
    const auto it = runs.find(std::string(name));
    if (it == runs.end()) continue;
    Value w = Value::object();
    for (auto& [section, run] : it->second) w.set(section, std::move(run));
    workloads.set(std::string(name), std::move(w));
  }
  Value doc = Value::object();
  doc.set("schema", 1);
  doc.set("machine", std::move(machine));
  doc.set("seed", std::move(seed));
  doc.set("workloads", std::move(workloads));
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  doc.write(out, 2);
  out << "\n";
  return 0;
}

int compare_results(const std::string& a_path, const std::string& b_path, std::ostream& out) {
  const Value bench = read_json_file(BENCH_BENCHMARK_JSON);
  const Value a = read_json_file(a_path);
  const Value b = read_json_file(b_path);
  std::vector<Row> rows;
  for (const std::string_view wname : kWorkloadNames) {
    const std::string workload(wname);
    for (const Value& spec : bench.at("end_to_end").as_array()) {
      const std::string& name = spec.at("name").as_string();
      const Value* ma = metric_in(a, workload, "untraced", name);
      const Value* mb = metric_in(b, workload, "untraced", name);
      if (ma == nullptr || mb == nullptr) continue;
      Row row(workload, name, spec.at("unit").as_string());
      row.a = ma->at("value").as_double();
      row.b = mb->at("value").as_double();
      row.bound = spec.at("bound").as_double();
      row.delta = row.a == 0.0 ? 0.0 : (row.b - row.a) / row.a;
      const bool lower = spec.at("better").as_string() == "lower";
      const double worsening = lower ? row.delta : -row.delta;
      row.verdict = worsening > row.bound ? "worse" : worsening < -row.bound ? "better" : "same";
      const double floor = absolute_floor(name);
      if (std::abs(row.b - row.a) <= floor) row.verdict = "same";
      const std::vector<double> sa = samples_of(*ma);
      const std::vector<double> sb = samples_of(*mb);
      const bool within_floor = std::max(quartile_range(sa), quartile_range(sb)) < floor;
      if (!within_floor && std::max(spread(sa), spread(sb)) > row.bound) {
        const bool all_better =
            lower ? *std::max_element(sb.begin(), sb.end()) < *std::min_element(sa.begin(), sa.end())
                  : *std::min_element(sb.begin(), sb.end()) > *std::max_element(sa.begin(), sa.end());
        row.verdict = all_better ? "better" : "unresolved";
      }
      rows.push_back(row);
    }
    for (const char* name : kAccuracyMetrics) {
      const Value* ma = metric_in(a, workload, "untraced", name);
      const Value* mb = metric_in(b, workload, "untraced", name);
      if (ma == nullptr || mb == nullptr) continue;
      Row row(workload, name, ma->at("unit").as_string());
      row.a = ma->at("value").as_double();
      row.b = mb->at("value").as_double();
      row.delta = row.a == 0.0 ? 0.0 : (row.b - row.a) / row.a;
      row.verdict = row.b == row.a ? "same" : row.b < row.a ? "better" : "worse";
      rows.push_back(row);
    }
    // The other workload detail has no bound: its change is reported, not judged.
    if (const Value* w = a.at("workloads").find(workload)) {
      if (const Value* run = w->find("untraced"); run != nullptr && run->find("detail")) {
        for (const auto& [name, ma] : run->at("detail").as_object()) {
          if (std::find(std::begin(kAccuracyMetrics), std::end(kAccuracyMetrics), name) !=
              std::end(kAccuracyMetrics)) {
            continue;
          }
          const Value* mb = metric_in(b, workload, "untraced", name);
          if (mb == nullptr) continue;
          Row row(workload, name, ma.at("unit").as_string());
          row.a = ma.at("value").as_double();
          row.b = mb->at("value").as_double();
          row.delta = row.a == 0.0 ? 0.0 : (row.b - row.a) / row.a;
          row.verdict = "reported";
          rows.push_back(row);
        }
      }
    }
    // Per-layer counts are exact for a seed; a change is reported, not judged.
    for (const MetricSpec& spec : kPerLayerMetrics) {
      const std::string unit = spec.unit;
      if (unit != "count" && unit != "bytes") continue;
      const Value* ma = metric_in(a, workload, "traced", spec.name);
      const Value* mb = metric_in(b, workload, "traced", spec.name);
      if (ma == nullptr || mb == nullptr) continue;
      Row row(workload, spec.name, unit);
      row.a = ma->at("value").as_double();
      row.b = mb->at("value").as_double();
      row.delta = row.a == 0.0 ? 0.0 : (row.b - row.a) / row.a;
      row.verdict = row.a == row.b ? "same" : "changed";
      rows.push_back(row);
    }
  }

  int status = 0;
  out << std::left << std::setw(14) << "workload" << std::setw(28) << "metric" << std::right
      << std::setw(14) << "A" << std::setw(14) << "B" << std::setw(10) << "delta" << std::setw(8)
      << "bound" << "  verdict\n";
  for (const Row& r : rows) {
    out << std::left << std::setw(14) << r.workload << std::setw(28) << r.metric << std::right
        << std::setprecision(6) << std::setw(14) << r.a << std::setw(14) << r.b << std::fixed
        << std::setprecision(1) << std::setw(9) << r.delta * 100.0 << "%" << std::setw(7)
        << r.bound * 100.0 << "%" << std::defaultfloat << "  " << r.verdict << "\n";
    if (r.verdict == "worse" || r.verdict == "unresolved") status = 1;
  }
  if (rows.empty()) {
    out << "no (metric, workload) pair is present in both files\n";
    status = 1;
  }
  return status;
}

}  // namespace bench
