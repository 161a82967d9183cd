// validate-sim: the paper's own validation — model curves checked against
// the flit-level simulator with Scenario::run_sweep, simulator on. The
// simulator is nearly all of the host time; the model's error against it
// is this workload's accuracy result.
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "quarc/api/scenario.hpp"
#include "quarc/sim/simulator.hpp"
#include "quarc/util/hash.hpp"
#include "quarc/util/json.hpp"
#include "quarc/util/rng.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace quarc;

struct Cell {
  const char* topology;
  const char* pattern;
};

// The Fig. 6/7 cells (fanout max(3, N/8), random and localized sets), a
// software-multicast cell and the mesh, where the model is least accurate.
constexpr Cell kCells[] = {
    {"quarc:16", "random:3"},     {"quarc:16", "localized:0.2:0.8:3"},
    {"quarc:32", "random:4"},     {"quarc:32", "localized:0.2:0.8:4"},
    {"quarc:64", "random:8"},     {"quarc:64", "localized:0.2:0.8:8"},
    {"spidergon:32", "random:4"}, {"mesh:8x8", "random:8"},
};
constexpr double kAlpha = 0.05;
/// Destination sets are held fixed, as in the paper's figures; the run seed
/// varies the simulator's randomness. Fixed sets keep a pass's work, which
/// follows each set's saturation rate, the same for every seed.
constexpr std::uint64_t kPatternSeed = 42;
constexpr int kPoints = 4;
constexpr double kFill = 0.85;
constexpr int kWarmup = 5000;
constexpr int kMeasure = 400000;

class ValidateSim final : public Workload {
 public:
  int threads() const override { return 1; }

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    std::ostringstream text;
    for (const Cell& cell : kCells) {
      json::Value line = json::Value::object();
      line.set("topology", cell.topology);
      line.set("pattern", cell.pattern);
      line.set("alpha", kAlpha);
      line.set("seed", static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30)));
      line.set("pattern_seed", kPatternSeed);
      line.set("sweep", kPoints);
      line.set("fill", kFill);
      line.set("sim", true);
      line.set("warmup", kWarmup);
      line.set("measure", kMeasure);
      text << line.dump() << "\n";
    }
    cells_text_ = text.str();
    cells_ = batch::ScenarioSet::parse_text(cells_text_);
  }

  PassOutcome run_pass() override {
    PassOutcome out;
    std::vector<std::string> rows;
    std::vector<double> errors;
    double cycles = 0.0;
    untraced_counters_.clear();
    for (const batch::ScenarioSpec& spec : cells_.members()) {
      out.attempted += spec.sweep_points;
      try {
        api::Scenario scenario = spec.make_scenario();
        scenario.threads(1);
        const Clock::time_point t0 = Clock::now();
        const api::ResultSet rs = scenario.run_sweep(spec.sweep_points, spec.fill);
        out.wall_s += seconds_since(t0);
        ++out.curves;
        count_untraced_probes(scenario, untraced_counters_);
        for (const api::ResultRow& row : rs.rows) {
          rows.push_back(api::row_to_json(row).dump());
          cycles += static_cast<double>(row.sim_cycles);
          const double err = row.multicast_error();
          if (row.sim_completed && row.sim_stable && std::isfinite(err)) {
            errors.push_back(std::abs(err));
          }
        }
      } catch (const std::exception& e) {
        std::cerr << "validate-sim: " << spec.describe() << ": " << e.what() << "\n";
        out.failed += spec.sweep_points;
        rows.resize(rows.size() + static_cast<std::size_t>(spec.sweep_points));
      }
    }
    out.failed += outputs_differing(rows, rows_, "validate-sim");
    // The model's share of run_sweep is under 1%, so the sweeps' wall time
    // stands for the simulator's construct+run time here.
    out.detail["sim_mcycles_per_s"] = {cycles / out.wall_s * 1e-6, "Mcycles/s"};
    out.detail["model_sim_err_p50"] = {quantile(errors, 0.5), "ratio"};
    out.detail["model_sim_err_max"] = {quantile(errors, 1.0), "ratio"};
    out.detail["model_sim_err_points"] = {static_cast<double>(errors.size()), "count"};
    return out;
  }

  PassOutcome run_traced(Tracer& tracer, Metrics& counts) override {
    PassOutcome out;
    std::vector<std::string> rows;
    std::vector<std::string> digests;
    std::size_t serialized = 0;
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope root(tracer, "trace.pass");
      batch::ScenarioSet cells;
      {
        const Tracer::Scope span(tracer, "batch.parse");
        cells = batch::ScenarioSet::parse_text(cells_text_);
      }
      for (const batch::ScenarioSpec& spec : cells.members()) {
        out.attempted += spec.sweep_points;
        try {
          const std::vector<RatePointResult> points = trace_private_curve(
              spec, static_cast<std::size_t>(spec.sweep_points), tracer, counts);
          ++out.curves;
          for (const RatePointResult& point : points) {
            json::Value row;
            {
              const Tracer::Scope span(tracer, "api.serialize");
              row = api::row_to_json(api::ResultRow::from_point(point));
            }
            {
              const Tracer::Scope span(tracer, "util.json_dump");
              rows.push_back(row.dump());
            }
            serialized += rows.back().size();
            digests.push_back(std::to_string(fnv1a64(sim::debug_serialize(point.sim))));
          }
        } catch (const std::exception& e) {
          std::cerr << "validate-sim (traced): " << spec.describe() << ": " << e.what() << "\n";
          out.failed += spec.sweep_points;
          rows.resize(rows.size() + static_cast<std::size_t>(spec.sweep_points));
          digests.resize(rows.size());
        }
      }
    }
    out.wall_s = seconds_since(t0);
    // The Simulator runs of the traced pass must equal run_sweep's sim rows,
    // and each point's full SimResult must repeat on every traced pass.
    out.failed += outputs_differing(rows, rows_, "validate-sim");
    out.failed += outputs_differing(digests, sim_digests_, "validate-sim");
    accumulate(counts, "api.serialize_bytes", static_cast<double>(serialized), "bytes");
    out.failed += replay_mismatches(counts, untraced_counters_, "validate-sim");
    return out;
  }

 private:
  std::string cells_text_;
  batch::ScenarioSet cells_;
  std::vector<std::string> rows_;
  std::vector<std::string> sim_digests_;
  /// The probes run_sweep ran in the last untraced pass.
  Counters untraced_counters_;
};

}  // namespace

std::unique_ptr<Workload> make_validate_sim() { return std::make_unique<ValidateSim>(); }

}  // namespace bench
