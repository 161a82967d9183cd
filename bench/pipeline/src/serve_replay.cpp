// serve-replay: one batch::serve session, closed loop with one client.
// Cold requests each name a new scenario and are solved and stored; the
// warm repeats that follow are answered from the store. It is the only
// workload that writes the store and then reads it, and the only one that
// parses and dumps JSON per request. Warm repeats in the "sweep" form and
// in the "rates" form take the same path except that the "sweep" form
// probes saturation again, so the two separate probe cost from store and
// JSON cost.
#include <iostream>
#include <iterator>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "quarc/batch/artifact_cache.hpp"
#include "quarc/batch/batch_runner.hpp"
#include "quarc/batch/scenario_set.hpp"
#include "quarc/batch/serve.hpp"
#include "quarc/model/latency_stencil.hpp"
#include "quarc/sweep/sweep_cache.hpp"
#include "quarc/util/error.hpp"
#include "quarc/util/hash.hpp"
#include "quarc/util/json.hpp"
#include "quarc/util/rng.hpp"
#include "workload.hpp"

namespace bench {
namespace {

using namespace quarc;

constexpr std::size_t kColdRequests = 280;
constexpr std::size_t kWarmRequests = 2800;
/// Sent after the script by the untraced pass: serve's own counters, which
/// the traced replay's must equal.
constexpr const char* kStatsRequest = "{\"cmd\":\"stats\"}\n";
/// Each replay counter and the key of the stats reply it must equal.
constexpr std::pair<const char*, const char*> kServeCounters[] = {
    {"batch.store_hits", "store_hits"},         {"batch.store_misses", "store_misses"},
    {"batch.plans_compiled", "plans_compiled"}, {"batch.plans_reused", "plans_reused"},
    {"batch.flows_compiled", "flows_compiled"}, {"batch.flows_reused", "flows_reused"},
};

enum Tag : int { kCold, kWarmSweep, kWarmRates };
constexpr const char* kTagNames[] = {"cold", "warm-sweep", "warm-rates"};

/// The request script. Cold request i names scenario i; warm requests
/// repeat a cold scenario in the "sweep" form or in the "rates" form with
/// the grid of the cold response, so the script is completed as cold
/// responses arrive. Responses past the script (the stats reply) are not
/// recorded.
class Script {
 public:
  Script(const std::vector<json::Value>* cold, const std::vector<std::size_t>* repeat_of,
         const std::vector<int>* tags)
      : cold_(cold), repeat_of_(repeat_of), tags_(tags), grids_(cold->size()) {}

  std::size_t size() const { return tags_->size(); }
  int tag(std::size_t i) const { return (*tags_)[i]; }
  std::size_t scenario(std::size_t i) const { return (*repeat_of_)[i]; }

  /// Request line i, newline included.
  std::string line(std::size_t i) const {
    json::Value request = json::Value::object();
    request.set("id", static_cast<std::int64_t>(i));
    for (const auto& [key, value] : (*cold_)[scenario(i)].as_object()) request.set(key, value);
    if (tag(i) == kWarmRates) {
      request.set("rates", grids_[scenario(i)]);
    } else {
      request.set("sweep", kFleetCurvePoints);
    }
    return request.dump() + "\n";
  }

  /// Records response i (the grid of a cold response).
  void respond(std::size_t i, const std::string& response) {
    if (i >= size() || tag(i) != kCold) return;
    json::Value grid = json::Value::array();
    const json::Value doc = json::Value::parse(response);
    if (const json::Value* rows = doc.find("rows")) {
      for (const json::Value& row : rows->as_array()) grid.push_back(row.at("rate"));
    }
    grids_[scenario(i)] = std::move(grid);
  }

 private:
  const std::vector<json::Value>* cold_;
  const std::vector<std::size_t>* repeat_of_;
  const std::vector<int>* tags_;
  std::vector<json::Value> grids_;
};

/// serve()'s input: hands out request i+1 only after response i flushed,
/// and stamps the moment it does. After the script it sends kStatsRequest.
class ClientIn final : public std::streambuf {
 public:
  ClientIn(Script& script, std::vector<Clock::time_point>& handed_out)
      : script_(script), handed_out_(handed_out) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ > script_.size()) return traits_type::eof();
    line_ = next_ < script_.size() ? script_.line(next_) : kStatsRequest;
    ++next_;
    setg(line_.data(), line_.data(), line_.data() + line_.size());
    handed_out_.push_back(Clock::now());
    return traits_type::to_int_type(line_[0]);
  }

 private:
  Script& script_;
  std::vector<Clock::time_point>& handed_out_;
  std::size_t next_ = 0;
  std::string line_;
};

/// serve()'s output: each flush completes one response.
class ClientOut final : public std::streambuf {
 public:
  ClientOut(Script& script, std::vector<Clock::time_point>& flushed,
            std::vector<std::string>& responses)
      : script_(script), flushed_(flushed), responses_(responses) {}

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) pending_.push_back(static_cast<char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    pending_.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int sync() override {
    if (pending_.empty()) return 0;
    flushed_.push_back(Clock::now());
    if (pending_.back() == '\n') pending_.pop_back();
    script_.respond(responses_.size(), pending_);
    responses_.push_back(std::move(pending_));
    pending_.clear();
    return 0;
  }

 private:
  Script& script_;
  std::vector<Clock::time_point>& flushed_;
  std::vector<std::string>& responses_;
  std::string pending_;
};

class NullBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

class ServeReplay final : public Workload {
 public:
  int threads() const override { return 1; }

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    const std::vector<std::uint64_t> seeds = distinct_seeds(rng, kColdRequests);
    constexpr std::size_t kPatternCount = std::size(kFleetPatterns);
    constexpr std::size_t kAlphaCount = std::size(kFleetAlphas);
    cold_.clear();
    for (std::size_t i = 0; i < kColdRequests; ++i) {
      const std::size_t cell = i % (std::size(kFleetTopologies) * kPatternCount * kAlphaCount);
      json::Value spec = json::Value::object();
      spec.set("topology", kFleetTopologies[cell / (kPatternCount * kAlphaCount)]);
      spec.set("pattern", kFleetPatterns[(cell / kAlphaCount) % kPatternCount]);
      spec.set("alpha", kFleetAlphas[cell % kAlphaCount]);
      spec.set("seed", seeds[i]);
      cold_.push_back(std::move(spec));
    }
    // Warm repeats: every cold scenario repeated equally often, half in each
    // form, in seeded order. Equal counts keep the mix of cheap and costly
    // scenarios, and with it the pass time, the same for every seed.
    constexpr std::size_t kRepeats = kWarmRequests / kColdRequests;
    static_assert(kRepeats % 2 == 0 && kRepeats * kColdRequests == kWarmRequests);
    std::vector<std::pair<std::size_t, int>> warm;
    for (std::size_t i = 0; i < kColdRequests; ++i) {
      for (std::size_t r = 0; r < kRepeats; ++r) warm.emplace_back(i, r % 2 ? kWarmRates : kWarmSweep);
    }
    for (std::size_t i = warm.size() - 1; i > 0; --i) {
      std::swap(warm[i], warm[rng.uniform_below(i + 1)]);
    }
    repeat_of_.clear();
    tags_.clear();
    for (std::size_t i = 0; i < kColdRequests; ++i) {
      repeat_of_.push_back(i);
      tags_.push_back(kCold);
    }
    for (const auto& [scenario, form] : warm) {
      repeat_of_.push_back(scenario);
      tags_.push_back(form);
    }
  }

  PassOutcome run_pass() override {
    PassOutcome out;
    out.attempted = static_cast<std::int64_t>(tags_.size());
    Script script(&cold_, &repeat_of_, &tags_);
    std::vector<Clock::time_point> handed_out;
    std::vector<Clock::time_point> flushed;
    std::vector<std::string> responses;
    handed_out.reserve(tags_.size());
    flushed.reserve(tags_.size());
    responses.reserve(tags_.size());
    ClientIn in_buf(script, handed_out);
    ClientOut out_buf(script, flushed, responses);
    NullBuf log_buf;
    std::istream in(&in_buf);
    std::ostream response_stream(&out_buf);
    std::ostream log(&log_buf);
    batch::ServeOptions options;
    options.threads = 1;
    try {
      const Clock::time_point t0 = Clock::now();
      batch::serve(in, response_stream, log, options);
      out.wall_s = seconds_since(t0);
    } catch (const std::exception& e) {
      std::cerr << "serve-replay: " << e.what() << "\n";
      out.failed = out.attempted;
      return out;
    }
    if (flushed.size() != handed_out.size() || responses.size() != tags_.size() + 1) {
      std::cerr << "serve-replay: " << handed_out.size() << " requests but " << flushed.size()
                << " responses\n";
      out.failed = out.attempted;
      return out;
    }
    try {
      const json::Value stats = json::Value::parse(responses.back());
      untraced_counters_.clear();
      for (const auto& [counter, key] : kServeCounters) {
        untraced_counters_[counter] = stats.at(key).as_double();
      }
    } catch (const std::exception& e) {
      std::cerr << "serve-replay: stats reply: " << e.what() << "\n";
      ++out.failed;
    }
    responses.pop_back();
    flushed.pop_back();
    handed_out.pop_back();
    std::vector<double> cold_ms;
    std::vector<double> warm_ms;
    std::vector<double> warm_sweep_ms;
    std::vector<double> warm_rates_ms;
    double bytes = 0.0;
    for (std::size_t i = 0; i < flushed.size(); ++i) {
      const double ms = std::chrono::duration<double, std::milli>(flushed[i] - handed_out[i]).count();
      (tags_[i] == kCold ? cold_ms : warm_ms).push_back(ms);
      if (tags_[i] == kWarmSweep) warm_sweep_ms.push_back(ms);
      if (tags_[i] == kWarmRates) warm_rates_ms.push_back(ms);
      bytes += static_cast<double>(responses[i].size());
    }
    out.failed += check_responses(responses);
    out.curves = out.attempted - out.failed;
    out.detail["cold_req_p50_ms"] = {quantile(cold_ms, 0.5), "ms"};
    out.detail["cold_req_p95_ms"] = {quantile(cold_ms, 0.95), "ms"};
    out.detail["warm_req_p50_ms"] = {quantile(warm_ms, 0.5), "ms"};
    out.detail["warm_req_p99_ms"] = {quantile(warm_ms, 0.99), "ms"};
    out.detail["warm_sweep_req_p50_ms"] = {quantile(warm_sweep_ms, 0.5), "ms"};
    out.detail["warm_rates_req_p50_ms"] = {quantile(warm_rates_ms, 0.5), "ms"};
    out.detail["serve.response_bytes"] = {bytes, "bytes"};
    return out;
  }

  PassOutcome run_traced(Tracer& tracer, Metrics& counts) override {
    PassOutcome out;
    out.attempted = static_cast<std::int64_t>(tags_.size());
    Script script(&cold_, &repeat_of_, &tags_);
    std::vector<std::string> responses;
    Session session;
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope root(tracer, "trace.pass");
      for (std::size_t i = 0; i < script.size(); ++i) {
        const std::string line = script.line(i);
        tracer.set_tag(kTagNames[tags_[i]]);
        std::string response;
        try {
          response = serve_one(line, session, tracer, counts);
        } catch (const std::exception& e) {
          json::Value error = json::Value::object();
          error.set("schema", batch::kServeSchemaVersion);
          error.set("error", std::string(e.what()));
          response = error.dump();
        }
        tracer.set_tag("");
        script.respond(i, response);
        responses.push_back(std::move(response));
      }
    }
    out.wall_s = seconds_since(t0);
    out.failed = check_responses(responses);
    out.curves = out.attempted - out.failed;

    double bytes = 0.0;
    for (const std::string& r : responses) bytes += static_cast<double>(r.size());
    count_shared(session.compiled, *session.artifacts, counts);
    count_solves(*session.solve_stats, counts);
    const SweepCacheStats cs = session.store->stats();
    accumulate(counts, "batch.store_hits", static_cast<double>(cs.hits), "count");
    accumulate(counts, "batch.store_misses", static_cast<double>(cs.misses), "count");
    accumulate(counts, "api.serialize_bytes", bytes, "bytes");
    out.failed += replay_mismatches(counts, untraced_counters_, "serve-replay");
    return out;
  }

 private:
  /// What a serve() call keeps for its lifetime.
  struct Session {
    std::shared_ptr<SweepCache> store = std::make_shared<SweepCache>();
    std::shared_ptr<batch::ArtifactCache> artifacts = std::make_shared<batch::ArtifactCache>();
    std::shared_ptr<BatchSolveStats> solve_stats = std::make_shared<BatchSolveStats>();
    SharedCompiles compiled;
  };

  /// One request through the calls serve() and BatchRunner::run make for
  /// it, one span each; returns the response line serve() would write.
  /// It must change whenever those two change the calls they make: the
  /// response bytes do not show such a change, and the stats check shows
  /// it only when it moves the store or artifact counters.
  static std::string serve_one(const std::string& line, Session& session, Tracer& tracer,
                               Metrics& counts) {
    json::Value response = json::Value::object();
    response.set("schema", batch::kServeSchemaVersion);
    json::Value request;
    {
      const Tracer::Scope span(tracer, "util.json_parse");
      request = json::Value::parse(line);
    }
    if (const json::Value* id = request.find("id")) response.set("id", *id);
    batch::ScenarioSet one;
    {
      const Tracer::Scope span(tracer, "batch.parse");
      json::Value spec_doc = json::Value::object();
      for (const auto& [key, value] : request.as_object()) {
        if (key != "id") spec_doc.set(key, value);
      }
      std::istringstream spec_line(spec_doc.dump());
      one = batch::ScenarioSet::parse(spec_line);
    }
    const batch::ScenarioSpec& spec = one[0];
    trace_shared_compile(spec, *session.artifacts, tracer, session.compiled);
    ScenarioFingerprint fp;
    {
      const Tracer::Scope span(tracer, "api.fingerprint");
      api::Scenario keyed = spec.make_scenario();
      keyed.artifacts(session.artifacts);
      fp = keyed.fingerprint();
    }
    // BatchRunner::run over the one-member set: a fresh member scenario.
    api::Scenario member;
    quarc::Workload base;
    api::ResultSet rs;
    {
      const Tracer::Scope span(tracer, "api.fingerprint");
      member = spec.make_scenario();
      member.artifacts(session.artifacts);
      member.fingerprint();
    }
    // Each of these accessors validates the scenario again.
    const FlowGraph* flow_graph = nullptr;
    {
      const Tracer::Scope span(tracer, "api.validate");
      rs = member.empty_result_set();
      flow_graph = &member.flow_graph();
      base = member.build_workload();
    }
    const FlowGraph& flows = *flow_graph;
    std::shared_ptr<const ContinuationSpine> spine;
    std::vector<double> rates = spec.rates;
    if (rates.empty()) {
      const double saturation = trace_probe_and_spine(flows, base, member, tracer, counts, spine);
      rates = rate_grid_from_saturation(saturation, spec.sweep_points, spec.fill);
    }
    rs.rows.resize(rates.size());
    std::vector<SweepTask> tasks;
    std::vector<std::size_t> task_rows;
    {
      const Tracer::Scope span(tracer, "batch.store_lookup");
      for (std::size_t i = 0; i < rates.size(); ++i) {
        if (std::optional<api::ResultRow> hit = session.store->lookup(fp, rates[i])) {
          rs.rows[i] = std::move(*hit);
          ++rs.cache_hits;
          continue;
        }
        ++rs.cache_misses;
        tasks.push_back({rates[i], sweep_point_seed(member.seed(), rates[i])});
        task_rows.push_back(i);
      }
    }
    std::int64_t iterations = 0;
    if (!tasks.empty()) {
      if (spine == nullptr && member.spine_points() > 0) {
        try {
          trace_probe_and_spine(flows, base, member, tracer, counts, spine);
        } catch (const ComputationError&) {
          spine = nullptr;
        }
      }
      {
        const Tracer::Scope span(tracer, "model.stencil");
        flows.stencil();
      }
      const std::vector<RatePointResult> points =
          trace_points(flows, base, member, tasks, spine, spec.sim, session.solve_stats, tracer);
      const Tracer::Scope span(tracer, "batch.store");
      for (std::size_t j = 0; j < points.size(); ++j) {
        api::ResultRow row = api::ResultRow::from_point(points[j]);
        session.store->store(fp, row, base.multicast_fraction > 0.0);
        iterations += row.solver_iterations;
        rs.rows[task_rows[j]] = std::move(row);
      }
    }
    {
      const Tracer::Scope span(tracer, "api.serialize");
      json::Value rows = json::Value::array();
      for (const api::ResultRow& row : rs.rows) rows.push_back(api::row_to_json(row));
      response.set("fp", fp.hex());
      response.set("rows", std::move(rows));
      response.set("served", rs.cache_hits);
      response.set("solved", rs.cache_misses);
      response.set("iterations", iterations);
    }
    const Tracer::Scope span(tracer, "util.json_dump");
    return response.dump();
  }

  /// No error lines; every warm response solved nothing and carries the
  /// rows of its cold response; every response is the first pass's bytes.
  std::int64_t check_responses(const std::vector<std::string>& responses) {
    std::int64_t failed = 0;
    std::vector<std::string> cold_rows(kColdRequests);
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      digests.push_back(fnv1a64(responses[i]));
      try {
        const json::Value doc = json::Value::parse(responses[i]);
        if (const json::Value* error = doc.find("error")) {
          throw std::runtime_error(error->as_string());
        }
        const std::string rows = doc.at("rows").dump();
        if (tags_[i] == kCold) {
          cold_rows[repeat_of_[i]] = rows;
        } else if (doc.at("solved").as_int() != 0) {
          throw std::runtime_error("a warm request solved points");
        } else if (rows != cold_rows[repeat_of_[i]]) {
          throw std::runtime_error("warm rows differ from the cold response's");
        }
      } catch (const std::exception& e) {
        std::cerr << "serve-replay: request " << i << ": " << e.what() << "\n";
        ++failed;
      }
    }
    if (response_digests_.empty()) response_digests_ = digests;
    if (digests != response_digests_) {
      std::cerr << "serve-replay: responses differ between passes\n";
      return static_cast<std::int64_t>(responses.size());
    }
    return failed;
  }

  std::vector<json::Value> cold_;
  std::vector<std::size_t> repeat_of_;
  std::vector<int> tags_;
  std::vector<std::uint64_t> response_digests_;
  /// serve's stats reply of the last untraced pass.
  Counters untraced_counters_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_replay() { return std::make_unique<ServeReplay>(); }

}  // namespace bench
