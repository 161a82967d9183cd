// Span recorder for the traced pass.
//
// A span is one public call into a library layer, recorded from outside:
// its name ("layer.what", e.g. "route.plan"), start and end on
// steady_clock, its parent span and a tag (the serve workload tags each
// request cold, warm-sweep or warm-rates). Spans are kept in memory and
// written out when the benchmark ends. A span's self time is its
// duration minus the time its children cover; the layer of a span is the
// part of its name before the first '.'.
//
// Recording is single-threaded: every traced pass runs its calls one
// after another on the calling thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the tracer's origin
    std::int64_t end_ns = 0;
    int parent = -1;            ///< index into spans(), -1 for a root
    int tag = 0;                ///< index into the tracer's tag names
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  Tracer();

  /// Tag stamped on spans opened from now on ("" for none).
  void set_tag(std::string_view tag);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in ms of every layer, summed over its spans.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Total duration in ms of every span name, summed.
  std::map<std::string, double> total_ms_by_name() const;
  /// Self time in ms of every "tag.layer" (just "layer" for untagged spans).
  std::map<std::string, double> self_ms_by_tag_layer() const;

  /// One JSON object per span: {"name","start_ns","end_ns","parent","tag"}.
  void write_jsonl(std::ostream& os) const;

  /// Measured cost in ns of opening and closing one span.
  static double span_cost_ns();

 private:
  std::vector<double> self_ns() const;
  std::map<std::string, double> self_ms_by_name() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
  std::vector<std::string> tag_names_{""};
  int tag_ = 0;
};

std::string_view layer_of(std::string_view span_name);

}  // namespace bench
