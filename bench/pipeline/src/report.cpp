#include "report.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_CXX_FLAGS
#define BENCH_CXX_FLAGS "unknown"
#endif
#ifndef BENCH_QUARC_NATIVE
#define BENCH_QUARC_NATIVE 0
#endif

namespace bench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"curves_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"trace.root_ms", "ms"},
    {"trace.attributed_share", "share"},
    {"trace.overhead_share", "share"},
    {"trace.spans", "count"},
    {"api.self_share", "share"},
    {"route.self_share", "share"},
    {"model.self_share", "share"},
    {"sweep.self_share", "share"},
    {"sim.self_share", "share"},
    {"batch.self_share", "share"},
    {"util.self_share", "share"},
    {"api.serialize_ms", "ms"},
    {"api.serialize_bytes", "bytes"},
    {"route.plan_ms", "ms"},
    {"route.plan_links", "count"},
    {"route.plan_bytes_computed", "bytes"},
    {"model.flowgraph_ms", "ms"},
    {"model.flows", "count"},
    {"model.stencil_ms", "ms"},
    {"model.solve_iterations", "count"},
    {"model.solve_lanes", "count"},
    {"model.solve_batches", "count"},
    {"sweep.probe_ms", "ms"},
    {"sweep.probe_solves", "count"},
    {"sweep.probe_iterations", "count"},
    {"sweep.spine_ms", "ms"},
    {"sweep.spine_solves", "count"},
    {"sweep.points_ms", "ms"},
    {"sim.cycles", "count"},
    {"sim.cycles_skipped", "count"},
    {"sim.channel_visits", "count"},
    {"sim.source_polls", "count"},
    {"sim.visits_per_cycle", "1/cycle"},
    {"sim.mcycles_per_s", "Mcycles/s"},
    {"batch.parse_ms", "ms"},
    {"batch.plans_compiled", "count"},
    {"batch.plans_reused", "count"},
    {"batch.flows_compiled", "count"},
    {"batch.flows_reused", "count"},
    {"batch.store_hits", "count"},
    {"batch.store_misses", "count"},
    {"batch.store_hit_ratio", "share"},
    {"batch.thread_speedup", "x"},
    {"util.json_dump_ms", "ms"},
};

Metrics per_layer_metrics(const Tracer& tracer, const Metrics& counts, double untraced_wall_s,
                          double span_cost_ns) {
  Metrics m;
  for (const MetricSpec& spec : kPerLayerMetrics) m[spec.name] = {0.0, spec.unit};
  for (const auto& [name, metric] : counts) {
    if (const auto it = m.find(name); it != m.end()) it->second.value = metric.value;
  }
  const std::map<std::string, double> total = tracer.total_ms_by_name();
  auto total_ms = [&](const std::string& span) {
    const auto it = total.find(span);
    return it == total.end() ? 0.0 : it->second;
  };
  const double root_ms = total_ms("trace.pass");
  m["trace.root_ms"].value = root_ms;
  double attributed_ms = 0.0;
  for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
    if (layer == "trace") continue;
    attributed_ms += ms;
    if (const auto it = m.find(layer + ".self_share"); it != m.end()) it->second.value = ms / root_ms;
  }
  const auto spans = static_cast<double>(tracer.spans().size());
  m["trace.attributed_share"].value = attributed_ms / root_ms;
  m["trace.overhead_share"].value = spans * span_cost_ns * 1e-6 / root_ms;
  m["trace.spans"].value = spans;
  for (const char* span : {"api.serialize", "route.plan", "model.flowgraph", "model.stencil",
                           "sweep.probe", "sweep.spine", "sweep.points", "batch.parse",
                           "util.json_dump"}) {
    m[std::string(span) + "_ms"].value = total_ms(span);
  }
  const double cycles = m["sim.cycles"].value;
  const double sim_s = (total_ms("sim.build") + total_ms("sim.run")) * 1e-3;
  if (cycles > 0.0) {
    m["sim.visits_per_cycle"].value = m["sim.channel_visits"].value / cycles;
    m["sim.mcycles_per_s"].value = cycles / sim_s * 1e-6;
  }
  const double lookups = m["batch.store_hits"].value + m["batch.store_misses"].value;
  if (lookups > 0.0) m["batch.store_hit_ratio"].value = m["batch.store_hits"].value / lookups;
  m["batch.thread_speedup"].value = root_ms * 1e-3 / untraced_wall_s;
  return m;
}

quarc::json::Value machine_descriptor(const std::string& git_sha, int nproc) {
  quarc::json::Value d = quarc::json::Value::object();
#if defined(__clang__)
  d.set("compiler", "clang");
#elif defined(__GNUC__)
  d.set("compiler", "gcc");
#else
  d.set("compiler", "unknown");
#endif
  d.set("compiler_version", __VERSION__);
  d.set("build_type", BENCH_BUILD_TYPE);
  d.set("flags", BENCH_CXX_FLAGS);
  d.set("quarc_native", BENCH_QUARC_NATIVE != 0);
  d.set("nproc", nproc);
  d.set("git_sha", git_sha);
  return d;
}

quarc::json::Value read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return quarc::json::Value::parse(text.str());
}

}  // namespace bench
