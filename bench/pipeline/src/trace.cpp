#include "trace.hpp"

#include <algorithm>
#include <ostream>

#include "quarc/util/json.hpp"

namespace bench {

std::string_view layer_of(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

Tracer::Tracer() : origin_(Clock::now()) {}

void Tracer::set_tag(std::string_view tag) {
  const auto it = std::find(tag_names_.begin(), tag_names_.end(), tag);
  tag_ = static_cast<int>(it - tag_names_.begin());
  if (it == tag_names_.end()) tag_names_.emplace_back(tag);
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  Span span;
  span.name = std::string(name);
  span.parent = tracer.open_;
  span.tag = tracer.tag_;
  tracer.spans_.push_back(std::move(span));
  tracer.open_ = index_;
  // Read the clock last, so the bookkeeping above is not charged to the span.
  tracer.spans_[static_cast<std::size_t>(index_)].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - tracer.origin_).count();
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - tracer_.origin_).count();
  tracer_.open_ = span.parent;
}

std::vector<double> Tracer::self_ns() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  return self;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  const std::vector<double> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i] * 1e-6;
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, ms] : self_ms_by_name()) out[std::string(layer_of(name))] += ms;
  return out;
}

std::map<std::string, double> Tracer::total_ms_by_name() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_tag_layer() const {
  const std::vector<double> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& tag = tag_names_[static_cast<std::size_t>(spans_[i].tag)];
    const std::string layer(layer_of(spans_[i].name));
    out[tag.empty() ? layer : tag + "." + layer] += self[i] * 1e-6;
  }
  return out;
}

void Tracer::write_jsonl(std::ostream& os) const {
  for (const Span& s : spans_) {
    quarc::json::Value line = quarc::json::Value::object();
    line.set("name", s.name);
    line.set("start_ns", s.start_ns);
    line.set("end_ns", s.end_ns);
    line.set("parent", s.parent);
    line.set("tag", tag_names_[static_cast<std::size_t>(s.tag)]);
    os << line.dump() << "\n";
  }
}

double Tracer::span_cost_ns() {
  constexpr int kSpans = 20000;
  Tracer probe;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const Scope scope(probe, "trace.probe");
  }
  const std::chrono::duration<double, std::nano> elapsed = Clock::now() - t0;
  return elapsed.count() / kSpans;
}

}  // namespace bench
