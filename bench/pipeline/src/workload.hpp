// The four workloads of bench_pipeline and what they share.
//
// Each workload generates its inputs from one seed (setup), then runs
// passes. An untraced pass times the public top-level call a user makes;
// a traced pass makes the calls that top-level call makes internally,
// one span each, and reads the layers' counters. Every pass checks its
// outputs; a check that does not hold counts as a failed operation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "quarc/api/scenario.hpp"
#include "quarc/batch/artifact_cache.hpp"
#include "quarc/batch/scenario_set.hpp"
#include "quarc/sweep/sweep.hpp"
#include "quarc/util/rng.hpp"
#include "trace.hpp"

namespace bench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Adds `value` to the metric `name` (creating it with `unit`).
void accumulate(Metrics& m, const std::string& name, double value, const std::string& unit);

/// What one pass did.
struct PassOutcome {
  double wall_s = 0.0;          ///< host time of the pass's timed calls
  std::int64_t attempted = 0;   ///< operations: curves, sim points, requests
  std::int64_t failed = 0;
  std::int64_t curves = 0;      ///< model curves completed
  Metrics detail;               ///< workload-specific values of this pass
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const = 0;
  /// Generates the inputs from `seed` and parses them. Repeated to time
  /// set-up; the last call's inputs are the ones the passes use.
  virtual void setup(std::uint64_t seed) = 0;
  virtual PassOutcome run_pass() = 0;
  /// One pass broken into spans under `tracer`, with the layers' counters
  /// added to `counts`.
  virtual PassOutcome run_traced(Tracer& tracer, Metrics& counts) = 0;
};

inline constexpr std::string_view kWorkloadNames[] = {"curve-fleet", "validate-sim",
                                                      "serve-replay", "scale-ladder"};

// The design-space grid curve-fleet and serve-replay draw their scenarios
// from, each with an 8-point auto grid.
inline constexpr const char* kFleetTopologies[] = {"quarc:16",  "quarc:32",    "quarc:64",
                                                   "mesh:8x8",  "torus:8x8",   "hypercube:6",
                                                   "spidergon:32"};
inline constexpr const char* kFleetPatterns[] = {"random:4", "localized:0.2:0.8:4", "uniform:4"};
inline constexpr double kFleetAlphas[] = {0.05, 0.1};
inline constexpr int kFleetCurvePoints = 8;

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, int nproc);

std::unique_ptr<Workload> make_curve_fleet(int threads);
std::unique_ptr<Workload> make_validate_sim();
std::unique_ptr<Workload> make_serve_replay();
std::unique_ptr<Workload> make_scale_ladder();

// ---- helpers shared by the workloads ----

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile of `v` (q in [0, 1]); NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// `count` distinct scenario seeds drawn from `rng`.
std::vector<std::uint64_t> distinct_seeds(quarc::Rng& rng, std::size_t count);

/// Compares each operation's output with the first pass's (`first` is
/// filled on the first call); returns how many differ.
std::int64_t outputs_differing(const std::vector<std::string>& outputs,
                               std::vector<std::string>& first, std::string_view workload);

/// Counter name -> value.
using Counters = std::map<std::string, double>;

/// The traced replay's counters in `counts` against the same counters the
/// untraced top-level call reported; returns how many differ. The replay
/// repeats the library's call sequence from outside, so a mismatch means
/// the library changed the calls it makes and the replay must follow.
std::int64_t replay_mismatches(const Metrics& counts, const Counters& untraced,
                               std::string_view workload);

/// Adds to `counters` the sweep.probes and sweep.build_solves of a Scenario
/// whose run_sweep has returned: the probes it ran and the solves of its
/// memoized spine, which trace_probe_and_spine counts for the replay.
void count_untraced_probes(quarc::api::Scenario& scenario, Counters& counters);

/// probe_saturation_rate and finalize_spine with `knobs`' model options and
/// spine count, one span each, counted into `counts` (sweep.probe_*,
/// sweep.spine_solves, and for the replay check sweep.probes and
/// sweep.build_solves); the spine lands in `spine` and the saturation rate
/// is returned.
double trace_probe_and_spine(const quarc::FlowGraph& flows, const quarc::Workload& base,
                             quarc::api::Scenario& knobs, Tracer& tracer, Metrics& counts,
                             std::shared_ptr<const quarc::ContinuationSpine>& spine);

/// `rates` with the per-point simulator seeds a sweep from `seed` uses.
std::vector<quarc::SweepTask> tasks_for(std::span<const double> rates, std::uint64_t seed);

/// sweep_tasks on one thread with `knobs`' settings, seeded from `spine`,
/// as one "sweep.points" span.
std::vector<quarc::RatePointResult> trace_points(
    const quarc::FlowGraph& flows, const quarc::Workload& base, quarc::api::Scenario& knobs,
    std::span<const quarc::SweepTask> tasks, std::shared_ptr<const quarc::ContinuationSpine> spine,
    bool run_sim, std::shared_ptr<quarc::BatchSolveStats> solve_stats, Tracer& tracer);

/// The calls Scenario::run_sweep(spec.sweep_points, spec.fill) makes for a
/// scenario without an artifact cache, one span each: registry, RoutePlan,
/// FlowGraph, stencil, probe, spine and the model-only sweep, then a
/// Simulator (build and run spans) for each of the last `sim_points` grid
/// points, seeded as run_sweep seeds it. Simulated points come back with
/// sim_run set. It must change whenever run_sweep changes the calls it
/// makes; count_untraced_probes catches the changes that move the probe.
std::vector<quarc::RatePointResult> trace_private_curve(const quarc::batch::ScenarioSpec& spec,
                                                        std::size_t sim_points, Tracer& tracer,
                                                        Metrics& counts);

/// What a traced pass compiled through an ArtifactCache, counted after it.
struct SharedCompiles {
  std::vector<std::shared_ptr<const quarc::batch::PlanArtifact>> plans;
  std::vector<std::shared_ptr<const quarc::FlowGraph>> graphs;
  std::int64_t requests = 0;  ///< trace_shared_compile calls
};

/// The ArtifactCache::plan and ::flows requests Scenario::validate makes
/// for `spec`, one span each; what they compile is kept in `compiled`.
/// The Scenario validated next finds both in the cache.
void trace_shared_compile(const quarc::batch::ScenarioSpec& spec,
                          quarc::batch::ArtifactCache& artifacts, Tracer& tracer,
                          SharedCompiles& compiled);
/// route.* and model.flows of everything in `compiled`, and the cache's
/// batch.plans_* / batch.flows_* counters less the requests
/// trace_shared_compile added, so they count what the untraced path asks.
void count_shared(const SharedCompiles& compiled, const quarc::batch::ArtifactCache& artifacts,
                  Metrics& counts);

/// Adds the solve counters of `stats` as model.solve_*.
void count_solves(const quarc::BatchSolveStats& stats, Metrics& counts);

}  // namespace bench
