// What bench_pipeline reports: the metric tables BENCHMARK.json lists, the
// per-layer metrics derived from a traced pass, the machine descriptor,
// and the --merge and --compare modes over results files.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "quarc/util/json.hpp"
#include "workload.hpp"

namespace bench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported with tracing off, on every workload (BENCHMARK.json end_to_end).
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Reported by the traced run, on every workload (BENCHMARK.json per_layer).
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Share of the root span the layers' self times must cover.
inline constexpr double kMinAttributedShare = 0.95;

/// The per-layer metrics of one traced pass: span timings from `tracer`,
/// the layers' counters from `counts`, and the thread speedup against an
/// untraced pass that took `untraced_wall_s`. Every kPerLayerMetrics name
/// is present; a layer the workload bypasses reads 0.
Metrics per_layer_metrics(const Tracer& tracer, const Metrics& counts, double untraced_wall_s,
                          double span_cost_ns);

/// Compiler, flags, QUARC_NATIVE, nproc and the git sha.
quarc::json::Value machine_descriptor(const std::string& git_sha, int nproc);

/// --merge: one results document from per-workload files.
int merge_results(const std::string& out_path, const std::vector<std::string>& inputs);

/// --compare: both medians, the delta, the bound and a verdict per (metric,
/// workload), with the bounds of the repository's BENCHMARK.json; nonzero
/// when any pair is worse or unresolved.
int compare_results(const std::string& a_path, const std::string& b_path, std::ostream& out);

quarc::json::Value read_json_file(const std::string& path);

}  // namespace bench
