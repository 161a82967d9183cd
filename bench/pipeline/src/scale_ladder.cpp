// scale-ladder: one cold model curve and one simulated point per network
// size, up to 256 nodes. Compilation dominates the model here — the
// reverse of curve-fleet — peak memory follows the O(n^2) unicast route
// table, and hypercube:8's channel-visit rate makes it the workload where
// a change to the simulator's active set shows.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "quarc/api/scenario.hpp"
#include "quarc/sim/simulator.hpp"
#include "quarc/util/json.hpp"
#include "quarc/util/rng.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace quarc;

struct Rung {
  const char* topology;
  int message_length;
};

constexpr Rung kRungs[] = {{"quarc:64", 32},    {"quarc:128", 64},  {"quarc:256", 128},
                           {"mesh:16x16", 64},  {"torus:16x16", 64}, {"hypercube:8", 32}};
constexpr const char* kPattern = "random:8";
constexpr double kAlpha = 0.05;
/// Destination sets are held fixed, as in the paper's figures; the run seed
/// varies the simulator's randomness. Fixed sets keep a pass's work, which
/// follows each set's saturation rate, the same for every seed.
constexpr std::uint64_t kPatternSeed = 42;
constexpr int kPoints = 8;
/// The simulated point is the curve's last: this fraction of saturation.
constexpr double kFill = 0.85;
constexpr int kWarmup = 2000;
constexpr int kMeasure = 20000;

class ScaleLadder final : public Workload {
 public:
  int threads() const override { return 1; }

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    std::ostringstream text;
    for (const Rung& rung : kRungs) {
      json::Value line = json::Value::object();
      line.set("topology", rung.topology);
      line.set("pattern", kPattern);
      line.set("alpha", kAlpha);
      line.set("msg", rung.message_length);
      line.set("seed", static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30)));
      line.set("pattern_seed", kPatternSeed);
      line.set("sweep", kPoints);
      line.set("fill", kFill);
      line.set("warmup", kWarmup);
      line.set("measure", kMeasure);
      text << line.dump() << "\n";
    }
    rungs_text_ = text.str();
    rungs_ = batch::ScenarioSet::parse_text(rungs_text_);
  }

  PassOutcome run_pass() override {
    PassOutcome out;
    std::vector<std::string> outputs;
    double sim_seconds = 0.0;
    double cycles = 0.0;
    untraced_counters_.clear();
    for (const batch::ScenarioSpec& spec : rungs_.members()) {
      out.attempted += 2;  // the curve and the simulated point
      try {
        api::Scenario scenario = spec.make_scenario();
        scenario.threads(1);
        const Clock::time_point t0 = Clock::now();
        const api::ResultSet rs = scenario.run_sweep(spec.sweep_points, spec.fill);
        const double curve_s = seconds_since(t0);
        ++out.curves;
        count_untraced_probes(scenario, untraced_counters_);

        const double rate = rs.rows.back().rate;
        sim::SimConfig cfg = scenario.sim_config();
        cfg.workload = scenario.build_workload();
        cfg.workload.message_rate = rate;
        cfg.seed = sweep_point_seed(scenario.seed(), rate);
        const Clock::time_point t1 = Clock::now();
        sim::Simulator simulator(scenario.route_plan(), cfg);
        const sim::SimResult result = simulator.run();
        const double sim_s = seconds_since(t1);

        out.wall_s += curve_s + sim_s;
        sim_seconds += sim_s;
        cycles += static_cast<double>(result.cycles_run);
        std::string label = spec.topology;
        std::replace(label.begin(), label.end(), ':', '-');
        out.detail["ladder." + label + ".curve_ms"] = {curve_s * 1e3, "ms"};
        out.detail["ladder." + label + ".sim_ms"] = {sim_s * 1e3, "ms"};
        out.detail["ladder." + label + ".visits_per_cycle"] = {
            static_cast<double>(simulator.profile().channel_visits) /
                static_cast<double>(result.cycles_run),
            "1/cycle"};
        std::string curve;
        for (const api::ResultRow& row : rs.rows) curve += api::row_to_json(row).dump() + "\n";
        outputs.push_back(std::move(curve));
        outputs.push_back(api::row_to_json(api::ResultRow::from_sim(rate, result)).dump() + "\n");
      } catch (const std::exception& e) {
        std::cerr << "scale-ladder: " << spec.describe() << ": " << e.what() << "\n";
        out.failed += 2;
        outputs.resize(outputs.size() + 2);
      }
    }
    out.failed += outputs_differing(outputs, outputs_, "scale-ladder");
    out.detail["sim_mcycles_per_s"] = {cycles / sim_seconds * 1e-6, "Mcycles/s"};
    return out;
  }

  PassOutcome run_traced(Tracer& tracer, Metrics& counts) override {
    PassOutcome out;
    std::vector<std::string> outputs;
    std::size_t serialized = 0;
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope root(tracer, "trace.pass");
      batch::ScenarioSet rungs;
      {
        const Tracer::Scope span(tracer, "batch.parse");
        rungs = batch::ScenarioSet::parse_text(rungs_text_);
      }
      for (const batch::ScenarioSpec& spec : rungs.members()) {
        out.attempted += 2;
        try {
          std::vector<RatePointResult> points = trace_private_curve(spec, 1, tracer, counts);
          ++out.curves;
          // The untraced path reports the curve model-only and the
          // simulated point as a row of its own.
          RatePointResult& last = points.back();
          std::vector<json::Value> docs;
          {
            const Tracer::Scope span(tracer, "api.serialize");
            for (RatePointResult& point : points) {
              RatePointResult model_only = point;
              model_only.sim_run = false;
              model_only.sim = {};
              docs.push_back(api::row_to_json(api::ResultRow::from_point(model_only)));
            }
            docs.push_back(api::row_to_json(api::ResultRow::from_sim(last.rate, last.sim)));
          }
          const Tracer::Scope span(tracer, "util.json_dump");
          std::string curve;
          for (std::size_t i = 0; i + 1 < docs.size(); ++i) curve += docs[i].dump() + "\n";
          outputs.push_back(std::move(curve));
          outputs.push_back(docs.back().dump() + "\n");
          serialized += outputs[outputs.size() - 2].size() + outputs.back().size();
        } catch (const std::exception& e) {
          std::cerr << "scale-ladder (traced): " << spec.describe() << ": " << e.what() << "\n";
          out.failed += 2;
          outputs.resize(outputs.size() + 2);
        }
      }
    }
    out.wall_s = seconds_since(t0);
    out.failed += outputs_differing(outputs, outputs_, "scale-ladder");
    accumulate(counts, "api.serialize_bytes", static_cast<double>(serialized), "bytes");
    out.failed += replay_mismatches(counts, untraced_counters_, "scale-ladder");
    return out;
  }

 private:
  std::string rungs_text_;
  batch::ScenarioSet rungs_;
  /// Per rung, the curve's rows and the simulated point's row, as the
  /// first pass gave them; every pass, traced or not, must repeat them.
  std::vector<std::string> outputs_;
  /// The probes run_sweep ran in the last untraced pass.
  Counters untraced_counters_;
};

}  // namespace

std::unique_ptr<Workload> make_scale_ladder() { return std::make_unique<ScaleLadder>(); }

}  // namespace bench
