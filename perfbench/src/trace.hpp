// The benchmark's own spans and the per-layer self-time table.
//
// Spans are recorded only around the library's public calls, from the
// benchmark's code; no span is added inside the library and its obs
// tracer stays off. A span carries its name, the src/memfront layer the
// call belongs to, start, end, parent span and repetition id. Stats the
// library returns (Analysis::timings, SchedStats::idle_ns,
// OocExecStats::stall_seconds) become *derived* child spans laid end to
// end from the parent's start, so a call's time splits across layers.
//
// A span's self time is its duration minus the share of it its children
// cover: dur - sum(child dur) / lanes, where `lanes` is how many threads
// the children run on (1 for a call, the pool width for a parallel_map
// phase, whose self time is then its idle lane time). A child's self
// time is weighted by 1/lanes of each ancestor, so the rows of every
// call's subtree sum to the call's wall time exactly; only a negative
// self time (derived children claiming more than the call took) is
// clipped, and the clipped amount is the accounting error reported
// against the tolerance.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  std::string layer;
  int parent = -1;
  int rep = -1;          // repetition id; -1 for set-up and probes
  int lanes = 1;         // threads this span's children run on
  bool derived = false;  // laid out from a stats struct, not clocked here
  std::size_t thread = 0;
  double start = 0.0;    // seconds since the log's epoch
  double end = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Only between repetitions, while no call is in flight.
  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string name, std::string layer, int parent, int rep,
           int lanes, Clock::time_point start) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.parent = parent;
    s.rep = rep;
    s.lanes = lanes;
    s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    s.start = s.end = seconds_between(epoch_, start);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id, Clock::time_point end) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = seconds_between(epoch_, end);
  }

  /// A child of `parent` whose duration a stats struct reports, placed
  /// after the parent's previous derived child (or at its start).
  void derived(int parent, std::string name, std::string layer,
               double seconds) {
    if (parent < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    double start = p.start;
    for (const Span& s : spans_)
      if (s.parent == parent && s.derived) start = std::max(start, s.end);
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.parent = parent;
    s.rep = p.rep;
    s.derived = true;
    s.thread = p.thread;
    s.start = start;
    s.end = start + std::max(0.0, seconds);
    spans_.push_back(std::move(s));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One timed public call: always clocked (the metrics use it), recorded
/// as a span only when the log is enabled.
class Call {
 public:
  Call(SpanLog& log, std::string name, std::string layer, int parent,
       int rep, int lanes = 1)
      : log_(log), start_(Clock::now()) {
    id_ = log_.open(std::move(name), std::move(layer), parent, rep, lanes,
                    start_);
  }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

  int id() const { return id_; }

  double stop() {
    const Clock::time_point end = Clock::now();
    log_.close(id_, end);
    return seconds_between(start_, end);
  }

 private:
  SpanLog& log_;
  Clock::time_point start_;
  int id_ = -1;
};

struct LayerTable {
  std::map<std::string, double> self_s;  // layer -> self time, all roots
  double wall_s = 0.0;                   // summed root durations
  int roots = 0;
  int calls_checked = 0;
  double max_err_frac = 0.0;  // worst clipped share of a call's wall
  std::string worst_call;
};

/// Self-time table over the spans of repetitions (rep >= 0), rooted at
/// their parentless spans.
inline LayerTable layer_table(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
  LayerTable table;
  const auto dur = [&](int i) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    return s.end - s.start;
  };
  // Returns the subtree's clipped amount in this span's wall units.
  std::function<double(int, double)> visit = [&](int i, double weight) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    const auto& kids = children[static_cast<std::size_t>(i)];
    double covered = 0.0;
    for (int k : kids) covered += dur(k);
    const double self = dur(i) - covered / s.lanes;
    table.self_s[s.layer] += std::max(0.0, self) * weight;
    double clipped = std::max(0.0, -self);
    for (int k : kids) clipped += visit(k, weight / s.lanes) / s.lanes;
    if (!s.derived && dur(i) > 0.0) {
      ++table.calls_checked;
      const double err = clipped / dur(i);
      if (err > table.max_err_frac) {
        table.max_err_frac = err;
        table.worst_call = s.name;
      }
    }
    return clipped;
  };
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent < 0 && spans[i].rep >= 0) {
      ++table.roots;
      table.wall_s += dur(static_cast<int>(i));
      visit(static_cast<int>(i), 1.0);
    }
  return table;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Writes every span and the layer table as one JSON document.
inline bool write_spans(const std::string& path,
                        const std::vector<Span>& spans,
                        const LayerTable& table, double tolerance) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"parent\": %d, \"rep\": %d, \"lanes\": %d, "
                 "\"derived\": %s, \"thread\": %zu, \"start_s\": %.9f, "
                 "\"end_s\": %.9f}%s\n",
                 i, json_escape(s.name).c_str(),
                 json_escape(s.layer).c_str(), s.parent, s.rep, s.lanes,
                 s.derived ? "true" : "false", s.thread, s.start, s.end,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"layers\": {");
  bool first = true;
  for (const auto& [layer, self] : table.self_s) {
    std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ",
                 json_escape(layer).c_str(), self);
    first = false;
  }
  std::fprintf(f,
               "},\n\"wall_s\": %.9f, \"roots\": %d, \"calls_checked\": %d, "
               "\"max_err_frac\": %.9f, \"tolerance_frac\": %g}\n",
               table.wall_s, table.roots, table.calls_checked,
               table.max_err_frac, tolerance);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
