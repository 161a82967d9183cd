// curve-fleet: a cold, model-only design-space fleet through
// BatchRunner::run — the path a user takes to get many latency curves.
// At n <= 64 compilation is cheap, so the work is the saturation probe,
// the continuation spine, the batched solve and the serial member
// preparation; the simulator never runs.
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "quarc/batch/artifact_cache.hpp"
#include "quarc/batch/batch_runner.hpp"
#include "quarc/batch/scenario_set.hpp"
#include "quarc/sweep/sweep.hpp"
#include "quarc/util/hash.hpp"
#include "quarc/util/json.hpp"
#include "quarc/util/rng.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace quarc;

constexpr std::size_t kSeedsPerCell = 24;
/// One member in this many is re-run alone through Scenario::run_sweep.
constexpr std::size_t kSoloEvery = 50;

class CurveFleet final : public Workload {
 public:
  explicit CurveFleet(int threads) : threads_(threads) {}

  int threads() const override { return threads_; }

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    const std::vector<std::uint64_t> seeds = distinct_seeds(rng, kSeedsPerCell);
    std::ostringstream text;
    for (const char* topology : kFleetTopologies) {
      for (const char* pattern : kFleetPatterns) {
        for (const double alpha : kFleetAlphas) {
          for (const std::uint64_t s : seeds) {
            json::Value line = json::Value::object();
            line.set("topology", topology);
            line.set("pattern", pattern);
            line.set("alpha", alpha);
            line.set("seed", s);
            line.set("sweep", kFleetCurvePoints);
            text << line.dump() << "\n";
          }
        }
      }
    }
    fleet_text_ = text.str();
    fleet_ = batch::ScenarioSet::parse_text(fleet_text_);
  }

  PassOutcome run_pass() override {
    PassOutcome out;
    out.attempted = static_cast<std::int64_t>(fleet_.size());
    batch::BatchOptions options;
    options.threads = threads_;
    batch::BatchRunner runner(fleet_, options);
    std::ostringstream stream;
    try {
      const Clock::time_point t0 = Clock::now();
      const std::vector<api::ResultSet> results = runner.run(&stream, nullptr);
      out.wall_s = seconds_since(t0);
      out.curves = static_cast<std::int64_t>(results.size());
      const batch::BatchStats& stats = runner.stats();
      untraced_counters_ = {
          {"model.solve_batches", static_cast<double>(stats.solve_batches)},
          {"model.solve_lanes", static_cast<double>(stats.solve_lanes)},
          {"model.solve_iterations", static_cast<double>(stats.solved_iterations)},
          {"batch.store_hits", static_cast<double>(stats.cache_hits)},
          {"batch.store_misses", static_cast<double>(stats.cache_misses)},
          {"batch.plans_compiled", static_cast<double>(stats.artifacts.plans_compiled)},
          {"batch.plans_reused", static_cast<double>(stats.artifacts.plans_reused)},
          {"batch.flows_compiled", static_cast<double>(stats.artifacts.flows_compiled)},
          {"batch.flows_reused", static_cast<double>(stats.artifacts.flows_reused)},
      };
      if (!check_stream(stream.str())) out.failed = out.attempted;
      if (!solo_checked_) {
        out.failed += check_solo(results);
        solo_checked_ = true;
      }
    } catch (const std::exception& e) {
      std::cerr << "curve-fleet: " << e.what() << "\n";
      out.failed = out.attempted;
    }
    return out;
  }

  PassOutcome run_traced(Tracer& tracer, Metrics& counts) override {
    PassOutcome out;
    out.attempted = static_cast<std::int64_t>(fleet_.size());
    const auto artifacts = std::make_shared<batch::ArtifactCache>();
    const auto solve_stats = std::make_shared<BatchSolveStats>();
    SharedCompiles compiled;
    std::string stream;
    const Clock::time_point t0 = Clock::now();
    try {
      const Tracer::Scope root(tracer, "trace.pass");
      batch::ScenarioSet fleet;
      {
        const Tracer::Scope span(tracer, "batch.parse");
        fleet = batch::ScenarioSet::parse_text(fleet_text_);
      }
      // Phase 1 of BatchRunner::run per member, then the member's curve
      // solved on its own: the calls the batched path makes, one at a time.
      for (std::size_t m = 0; m < fleet.size(); ++m) {
        const batch::ScenarioSpec& spec = fleet[m];
        api::Scenario scenario;
        {
          const Tracer::Scope span(tracer, "api.scenario");
          scenario = spec.make_scenario();
          scenario.artifacts(artifacts);
        }
        trace_shared_compile(spec, *artifacts, tracer, compiled);
        ScenarioFingerprint fp;
        quarc::Workload base;
        {
          const Tracer::Scope span(tracer, "api.fingerprint");
          fp = scenario.fingerprint();
        }
        // Each of these accessors validates the scenario again.
        const FlowGraph* flow_graph = nullptr;
        {
          const Tracer::Scope span(tracer, "api.validate");
          flow_graph = &scenario.flow_graph();
          base = scenario.build_workload();
        }
        const FlowGraph& flows = *flow_graph;
        {
          const Tracer::Scope span(tracer, "model.stencil");
          flows.stencil();
        }
        std::shared_ptr<const ContinuationSpine> spine;
        const double saturation =
            trace_probe_and_spine(flows, base, scenario, tracer, counts, spine);
        const std::vector<SweepTask> tasks = tasks_for(
            rate_grid_from_saturation(saturation, spec.sweep_points, spec.fill), scenario.seed());
        const std::vector<RatePointResult> points =
            trace_points(flows, base, scenario, tasks, spine, false, solve_stats, tracer);
        for (const RatePointResult& point : points) {
          json::Value line = json::Value::object();
          {
            const Tracer::Scope span(tracer, "api.serialize");
            line.set("schema", batch::kBatchStreamSchemaVersion);
            line.set("scenario", static_cast<int>(m));
            line.set("fp", fp.hex());
            line.set("row", api::row_to_json(api::ResultRow::from_point(point)));
          }
          const Tracer::Scope span(tracer, "util.json_dump");
          stream += line.dump();
          stream += "\n";
        }
        ++out.curves;
      }
    } catch (const std::exception& e) {
      std::cerr << "curve-fleet (traced): " << e.what() << "\n";
      out.failed = out.attempted;
    }
    out.wall_s = seconds_since(t0);
    if (out.failed == 0 && !check_stream(stream)) out.failed = out.attempted;

    count_shared(compiled, *artifacts, counts);
    count_solves(*solve_stats, counts);
    accumulate(counts, "api.serialize_bytes", static_cast<double>(stream.size()), "bytes");
    out.failed += replay_mismatches(counts, untraced_counters_, "curve-fleet");
    return out;
  }

 private:
  /// The JSONL stream must be the same bytes on every pass, traced or not.
  bool check_stream(const std::string& stream) {
    const std::uint64_t digest = fnv1a64(stream);
    if (!stream_digest_) stream_digest_ = digest;
    if (*stream_digest_ == digest) return true;
    std::cerr << "curve-fleet: stream digest differs between passes\n";
    return false;
  }

  /// Every kSoloEvery-th member re-run alone must give the same document.
  std::int64_t check_solo(const std::vector<api::ResultSet>& results) const {
    std::int64_t failed = 0;
    for (std::size_t m = 0; m < fleet_.size(); m += kSoloEvery) {
      api::Scenario scenario = fleet_[m].make_scenario();
      scenario.threads(1);
      const api::ResultSet solo = scenario.run_sweep(fleet_[m].sweep_points, fleet_[m].fill);
      if (solo.to_json().dump() != results[m].to_json().dump()) {
        std::cerr << "curve-fleet: member " << m << " differs from its solo run_sweep\n";
        ++failed;
      }
    }
    return failed;
  }

  int threads_;
  std::string fleet_text_;
  batch::ScenarioSet fleet_;
  std::optional<std::uint64_t> stream_digest_;
  bool solo_checked_ = false;
  /// BatchRunner's counters of the last untraced pass.
  Counters untraced_counters_;
};

}  // namespace

std::unique_ptr<Workload> make_curve_fleet(int threads) {
  return std::make_unique<CurveFleet>(threads);
}

}  // namespace bench
