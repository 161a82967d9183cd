#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>

#include "quarc/api/registry.hpp"
#include "quarc/model/flow_graph.hpp"
#include "quarc/model/latency_stencil.hpp"
#include "quarc/route/route_plan.hpp"
#include "quarc/sim/simulator.hpp"
#include "quarc/util/rng.hpp"

namespace bench {

void accumulate(Metrics& m, const std::string& name, double value, const std::string& unit) {
  Metric& metric = m[name];
  metric.value += value;
  metric.unit = unit;
}

namespace {

/// route.plan_links and route.plan_bytes_computed of one compiled plan.
void count_plan(const quarc::RoutePlan& plan, Metrics& counts) {
  // The plan's pools are private; their size is worked out from the public
  // views: every link id with its virtual-channel byte, one route record
  // per ordered pair, one record per stream, the stops and destinations.
  const int n = plan.topology().num_nodes();
  double links = 0.0;
  double streams = 0.0;
  double stops = 0.0;
  double dests = 0.0;
  for (quarc::NodeId s = 0; s < n; ++s) {
    for (quarc::NodeId d = 0; d < n; ++d) {
      if (s != d) links += static_cast<double>(plan.route(s, d).links.size());
    }
    dests += static_cast<double>(plan.multicast_dests(s).size());
    for (std::size_t i = 0; i < plan.stream_count(s); ++i) {
      const quarc::StreamView st = plan.stream(s, i);
      links += static_cast<double>(st.links.size());
      stops += static_cast<double>(st.stops.size());
      streams += 1.0;
    }
  }
  constexpr double kLinkBytes = sizeof(quarc::ChannelId) + sizeof(std::uint8_t);
  constexpr double kRouteRecordBytes =
      sizeof(quarc::PortId) + 2 * sizeof(quarc::ChannelId) + 2 * sizeof(std::uint32_t);
  constexpr double kStreamRecordBytes =
      sizeof(quarc::PortId) + sizeof(quarc::ChannelId) + 4 * sizeof(std::uint32_t);
  const double nodes = static_cast<double>(n);
  const double bytes = links * kLinkBytes + nodes * nodes * kRouteRecordBytes +
                       streams * kStreamRecordBytes + stops * sizeof(quarc::MulticastStop) +
                       dests * sizeof(quarc::NodeId);
  accumulate(counts, "route.plan_links", links, "count");
  accumulate(counts, "route.plan_bytes_computed", bytes, "bytes");
}

/// model.flows of one compiled flow graph.
void count_flows(const quarc::FlowGraph& flows, Metrics& counts) {
  accumulate(counts, "model.flows", static_cast<double>(flows.flow_count()), "count");
}

/// sweep.probe_*, sweep.spine_solves, sweep.probes and sweep.build_solves of
/// one probe and the spine built from it.
void count_probe(const quarc::SaturationProbeResult& probe, const quarc::ContinuationSpine* spine,
                 Metrics& counts) {
  accumulate(counts, "sweep.probe_solves", probe.solves, "count");
  accumulate(counts, "sweep.probe_iterations", static_cast<double>(probe.iterations), "count");
  const int build_solves = spine != nullptr ? spine->build_solves() : 0;
  accumulate(counts, "sweep.spine_solves", spine != nullptr ? build_solves - probe.solves : 0,
             "count");
  accumulate(counts, "sweep.probes", 1.0, "count");
  accumulate(counts, "sweep.build_solves", build_solves, "count");
}

/// sim.* activity counters of one run.
void count_sim(const quarc::sim::SimProfile& profile, std::int64_t cycles_run, Metrics& counts) {
  accumulate(counts, "sim.cycles", static_cast<double>(cycles_run), "count");
  accumulate(counts, "sim.cycles_skipped", static_cast<double>(profile.cycles_skipped), "count");
  accumulate(counts, "sim.channel_visits", static_cast<double>(profile.channel_visits), "count");
  accumulate(counts, "sim.source_polls", static_cast<double>(profile.source_polls), "count");
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, int nproc) {
  if (name == "curve-fleet") return make_curve_fleet(std::min(4, nproc));
  if (name == "validate-sim") return make_validate_sim();
  if (name == "serve-replay") return make_serve_replay();
  if (name == "scale-ladder") return make_scale_ladder();
  return nullptr;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<std::uint64_t> distinct_seeds(quarc::Rng& rng, std::size_t count) {
  std::vector<std::uint64_t> seeds;
  while (seeds.size() < count) {
    const auto s = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    if (std::find(seeds.begin(), seeds.end(), s) == seeds.end()) seeds.push_back(s);
  }
  return seeds;
}

std::int64_t outputs_differing(const std::vector<std::string>& outputs,
                               std::vector<std::string>& first, std::string_view workload) {
  if (first.empty()) first = outputs;
  std::int64_t differing = 0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (i >= first.size() || outputs[i] != first[i]) ++differing;
  }
  if (differing > 0) {
    std::cerr << workload << ": " << differing << " outputs differ from the first pass's\n";
  }
  return differing;
}

std::int64_t replay_mismatches(const Metrics& counts, const Counters& untraced,
                               std::string_view workload) {
  std::int64_t mismatches = 0;
  for (const auto& [name, expected] : untraced) {
    const auto it = counts.find(name);
    const double replayed = it == counts.end() ? 0.0 : it->second.value;
    if (replayed == expected) continue;
    std::cerr << workload << ": the traced replay counts " << name << " = " << replayed
              << " but the untraced call " << expected
              << "; the replay no longer makes the library's calls\n";
    ++mismatches;
  }
  return mismatches;
}

void count_untraced_probes(quarc::api::Scenario& scenario, Counters& counters) {
  counters["sweep.probes"] += scenario.saturation_probe_runs();
  const std::shared_ptr<const quarc::ContinuationSpine> spine = scenario.continuation_spine();
  counters["sweep.build_solves"] += spine != nullptr ? spine->build_solves() : 0;
}

void trace_shared_compile(const quarc::batch::ScenarioSpec& spec,
                          quarc::batch::ArtifactCache& artifacts, Tracer& tracer,
                          SharedCompiles& compiled) {
  ++compiled.requests;
  quarc::batch::PlanRequest req;
  req.topology_spec = spec.topology;
  req.pattern_spec = spec.alpha > 0.0 ? spec.pattern : "none";
  req.pattern_seed = spec.pattern_seed_set ? spec.pattern_seed : spec.seed;
  req.multicast = spec.alpha > 0.0;
  {
    const Tracer::Scope span(tracer, "route.plan");
    const std::int64_t before = artifacts.stats().plans_compiled;
    auto plan = artifacts.plan(req);
    if (artifacts.stats().plans_compiled > before) compiled.plans.push_back(std::move(plan));
  }
  const Tracer::Scope span(tracer, "model.flowgraph");
  const std::int64_t before = artifacts.stats().flows_compiled;
  auto flows = artifacts.flows(req, spec.alpha, spec.msg);
  if (artifacts.stats().flows_compiled > before) compiled.graphs.push_back(std::move(flows));
}

void count_shared(const SharedCompiles& compiled, const quarc::batch::ArtifactCache& artifacts,
                  Metrics& counts) {
  for (const auto& p : compiled.plans) count_plan(*p->plan, counts);
  for (const auto& g : compiled.graphs) count_flows(*g, counts);
  const quarc::batch::ArtifactCacheStats as = artifacts.stats();
  accumulate(counts, "batch.plans_compiled", static_cast<double>(as.plans_compiled), "count");
  accumulate(counts, "batch.plans_reused",
             static_cast<double>(as.plans_reused - compiled.requests), "count");
  accumulate(counts, "batch.flows_compiled", static_cast<double>(as.flows_compiled), "count");
  accumulate(counts, "batch.flows_reused",
             static_cast<double>(as.flows_reused - compiled.requests), "count");
}

void count_solves(const quarc::BatchSolveStats& stats, Metrics& counts) {
  accumulate(counts, "model.solve_batches", static_cast<double>(stats.batches.load()), "count");
  accumulate(counts, "model.solve_lanes", static_cast<double>(stats.lanes.load()), "count");
  accumulate(counts, "model.solve_iterations", static_cast<double>(stats.lane_iterations.load()),
             "count");
}

double trace_probe_and_spine(const quarc::FlowGraph& flows, const quarc::Workload& base,
                             quarc::api::Scenario& knobs, Tracer& tracer, Metrics& counts,
                             std::shared_ptr<const quarc::ContinuationSpine>& spine) {
  quarc::SaturationProbeResult probe;
  {
    const Tracer::Scope span(tracer, "sweep.probe");
    probe = quarc::probe_saturation_rate(flows, base, knobs.model_options());
  }
  {
    const Tracer::Scope span(tracer, "sweep.spine");
    spine = quarc::finalize_spine(flows, base, knobs.model_options(), knobs.spine_points(), probe);
  }
  count_probe(probe, spine.get(), counts);
  return probe.rate;
}

std::vector<quarc::SweepTask> tasks_for(std::span<const double> rates, std::uint64_t seed) {
  std::vector<quarc::SweepTask> tasks;
  for (const double r : rates) tasks.push_back({r, quarc::sweep_point_seed(seed, r)});
  return tasks;
}

std::vector<quarc::RatePointResult> trace_points(
    const quarc::FlowGraph& flows, const quarc::Workload& base, quarc::api::Scenario& knobs,
    std::span<const quarc::SweepTask> tasks, std::shared_ptr<const quarc::ContinuationSpine> spine,
    bool run_sim, std::shared_ptr<quarc::BatchSolveStats> solve_stats, Tracer& tracer) {
  const Tracer::Scope span(tracer, "sweep.points");
  quarc::SweepConfig cfg;
  cfg.sim = knobs.sim_config();
  cfg.model = knobs.model_options();
  cfg.run_sim = run_sim;
  cfg.threads = 1;
  cfg.spine_points = knobs.spine_points();
  cfg.spine = std::move(spine);
  cfg.solve_stats = std::move(solve_stats);
  return quarc::sweep_tasks(flows, base, tasks, cfg);
}

std::vector<quarc::RatePointResult> trace_private_curve(const quarc::batch::ScenarioSpec& spec,
                                                        std::size_t sim_points, Tracer& tracer,
                                                        Metrics& counts) {
  using namespace quarc;
  // Knobs only: make_scenario compiles nothing until validated.
  api::Scenario knobs = spec.make_scenario();
  std::unique_ptr<Topology> topology;
  quarc::Workload base;
  {
    const Tracer::Scope span(tracer, "api.registry");
    topology = api::make_topology(spec.topology);
    base.message_rate = 0.004;  // Scenario's default; sweeps set each point's rate
    base.multicast_fraction = spec.alpha;
    base.message_length = spec.msg;
    if (spec.alpha > 0.0) {
      Rng rng(spec.pattern_seed_set ? spec.pattern_seed : spec.seed);
      base.pattern = api::make_pattern(spec.pattern, topology->num_nodes(), rng);
    }
    base.validate(*topology);
  }
  std::optional<RoutePlan> plan;
  {
    const Tracer::Scope span(tracer, "route.plan");
    plan.emplace(*topology, base.pattern.get());
  }
  std::optional<FlowGraph> flows;
  {
    const Tracer::Scope span(tracer, "model.flowgraph");
    flows.emplace(*plan, base);
  }
  {
    const Tracer::Scope span(tracer, "model.stencil");
    flows->stencil();
  }
  std::shared_ptr<const ContinuationSpine> spine;
  const double saturation = trace_probe_and_spine(*flows, base, knobs, tracer, counts, spine);
  const std::vector<SweepTask> tasks =
      tasks_for(rate_grid_from_saturation(saturation, spec.sweep_points, spec.fill), spec.seed);
  const auto solve_stats = std::make_shared<BatchSolveStats>();
  std::vector<RatePointResult> points =
      trace_points(*flows, base, knobs, tasks, spine, false, solve_stats, tracer);
  for (std::size_t i = points.size() - std::min(sim_points, points.size()); i < points.size();
       ++i) {
    sim::SimConfig cfg = knobs.sim_config();
    cfg.workload = base;
    cfg.workload.message_rate = tasks[i].rate;
    cfg.seed = tasks[i].sim_seed;
    std::optional<sim::Simulator> simulator;
    {
      const Tracer::Scope span(tracer, "sim.build");
      simulator.emplace(*plan, cfg);
    }
    {
      const Tracer::Scope span(tracer, "sim.run");
      points[i].sim = simulator->run();
    }
    points[i].sim_run = true;
    count_sim(simulator->profile(), points[i].sim.cycles_run, counts);
  }
  count_plan(*plan, counts);
  count_flows(*flows, counts);
  count_solves(*solve_stats, counts);
  return points;
}

}  // namespace bench
