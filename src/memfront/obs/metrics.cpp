#include "memfront/obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>

#include "memfront/core/parallel_factor.hpp"
#include "memfront/core/prepared_cache.hpp"
#include "memfront/ooc/config.hpp"
#include "memfront/solver/parallel_numeric.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace memfront::obs {

void Histogram::observe(std::int64_t v) noexcept {
  std::size_t idx = 0;
  if (v > 0)
    idx = static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(v)));
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::int64_t>::max(),
             std::memory_order_relaxed);
  max_.store(std::numeric_limits<std::int64_t>::min(),
             std::memory_order_relaxed);
}

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // std::map: sorted iteration gives a stable JSON layout; unique_ptr
  // slots give stable references across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<FloatGauge>> float_gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FloatGauge& MetricsRegistry::float_gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->float_gauges[name];
  if (!slot) slot = std::make_unique<FloatGauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->histograms[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
    slot->reset();  // min/max start at the identity elements
  }
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->counters.find(name);
  return it != impl_->counters.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->gauges.find(name);
  return it != impl_->gauges.end() ? it->second.get() : nullptr;
}

const FloatGauge* MetricsRegistry::find_float_gauge(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->float_gauges.find(name);
  return it != impl_->float_gauges.end() ? it->second.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->histograms.find(name);
  return it != impl_->histograms.end() ? it->second.get() : nullptr;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : impl_->counters) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << c->value();
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << g->value();
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"float_gauges\": {";
  first = true;
  for (const auto& [name, g] : impl_->float_gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << g->value();
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : impl_->histograms) {
    const std::int64_t n = h->count();
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": " << n
       << ", \"sum\": " << h->sum() << ", \"min\": " << (n > 0 ? h->min() : 0)
       << ", \"max\": " << (n > 0 ? h->max() : 0) << ", \"mean\": "
       << (n > 0 ? static_cast<double>(h->sum()) / static_cast<double>(n)
                 : 0.0)
       << ", \"buckets\": [";
    bool bfirst = true;
    // Bucket i counts observations v with bit_width(v) == i, i.e.
    // v in [2^(i-1), 2^i); bucket 0 counts v <= 0.
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::int64_t c = h->bucket(i);
      if (c == 0) continue;
      os << (bfirst ? "" : ", ") << "{\"pow2\": " << i << ", \"count\": " << c
         << "}";
      bfirst = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "}\n" : "\n  }\n") << "}\n";
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, g] : impl_->float_gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
}

std::int64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<std::int64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;  // kB on Linux
#endif
  }
#endif
  return 0;
}

// ---- adapters --------------------------------------------------------------

namespace {

inline std::int64_t seconds_to_ns(double s) {
  return static_cast<std::int64_t>(std::llround(s * 1e9));
}
inline std::int64_t seconds_to_us(double s) {
  return static_cast<std::int64_t>(std::llround(s * 1e6));
}

}  // namespace

void record_factor_stats(const FactorStats& stats) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("solver.factor.runs").add();
  m.counter("solver.factor.factor_entries").add(stats.factor_entries);
  m.counter("solver.factor.perturbations").add(stats.perturbations);
  // Taxonomy alias of the perturbation counter plus the new numeric-
  // robustness signals (ISSUE 8 failure-model metrics).
  m.counter("solver.factor.perturbed_pivots").add(stats.perturbations);
  m.counter("solver.factor.exact_zero_pivots").add(stats.exact_zero_pivots);
  m.float_gauge("solver.factor.pivot_growth_max")
      .max_of(stats.pivot_growth_max);
  m.gauge("solver.factor.arena_peak_doubles")
      .max_of(stats.arena_peak_doubles);
  m.gauge("solver.factor.arena_peak_bytes")
      .max_of(doubles_to_bytes(stats.arena_peak_doubles));
}

void record_parallel_numeric_stats(const ParallelNumericStats& stats,
                                   double wall_seconds) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("solver.parallel.runs").add();
  m.counter("solver.parallel.subtree_tasks").add(stats.num_subtrees);
  m.counter("solver.parallel.upper_tasks").add(stats.num_upper_nodes);
  m.gauge("solver.parallel.workers").set(stats.workers);
  m.gauge("solver.parallel.total_arena_peak_doubles")
      .max_of(stats.total_arena_peak_doubles);
  m.gauge("solver.parallel.total_arena_peak_bytes")
      .max_of(doubles_to_bytes(stats.total_arena_peak_doubles));
  m.histogram("solver.parallel.run_wall_ns")
      .observe(seconds_to_ns(wall_seconds));
}

void record_sched_stats(const ParallelNumericStats& stats) {
  MetricsRegistry& m = MetricsRegistry::global();
  // The dynamic scheduler (solver/scheduler): policy consults, stealing
  // traffic, and the targeted-wakeup discipline (wakeups << completions
  // is the point — the old pool notified everyone on every completion).
  m.gauge("solver.sched.dynamic").set(stats.steal ? 1 : 0);
  m.counter("solver.sched.steals")
      .add(static_cast<std::int64_t>(stats.sched.steals));
  m.counter("solver.sched.steal_chunks")
      .add(static_cast<std::int64_t>(stats.sched.steal_chunks));
  m.counter("solver.sched.wakeups")
      .add(static_cast<std::int64_t>(stats.sched.wakeups));
  m.counter("solver.sched.completions")
      .add(static_cast<std::int64_t>(stats.sched.completions));
  m.counter("solver.sched.dispatch_consults")
      .add(static_cast<std::int64_t>(stats.sched.dispatch_consults));
  m.counter("solver.sched.admit_consults")
      .add(static_cast<std::int64_t>(stats.sched.admit_consults));
  m.counter("solver.sched.idle_ns")
      .add(static_cast<std::int64_t>(stats.sched.idle_ns));
  // Intra-front sharing: trailing updates posted to idle workers, the
  // column blocks those helpers ran, and the sleepers each post woke.
  m.counter("solver.sched.shared_updates")
      .add(static_cast<std::int64_t>(stats.sched.shared_updates));
  m.counter("solver.sched.helper_blocks")
      .add(static_cast<std::int64_t>(stats.sched.helper_blocks));
  m.counter("solver.sched.helper_wakeups")
      .add(static_cast<std::int64_t>(stats.sched.helper_wakeups));
  // Of the helper blocks, those run by workers waiting for OOC memory;
  // the sleeps of those waits; and the waits only the safety-net tick
  // ended (lost wakeups).
  m.counter("solver.sched.memory_wait_blocks")
      .add(static_cast<std::int64_t>(stats.sched.memory_wait_blocks));
  m.counter("solver.sched.memory_waits")
      .add(static_cast<std::int64_t>(stats.sched.memory_waits));
  m.counter("solver.sched.tick_rescues")
      .add(static_cast<std::int64_t>(stats.sched.tick_rescues));
  m.gauge("solver.sched.max_queue_depth")
      .max_of(static_cast<std::int64_t>(stats.sched.max_queue_depth));
}

void record_sim_result(const ParallelResult& result, double wall_seconds) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("sim.runs").add();
  m.counter("sim.events_processed")
      .add(static_cast<std::int64_t>(result.events_processed));
  m.counter("sim.io_events").add(static_cast<std::int64_t>(result.io_events));
  m.counter("sim.messages").add(result.messages);
  m.counter("sim.comm_entries").add(result.comm_entries);
  m.gauge("sim.max_stack_peak_entries").max_of(result.max_stack_peak);
  m.gauge("sim.max_stack_peak_bytes")
      .max_of(entries_to_bytes(result.max_stack_peak));
  m.histogram("sim.run_wall_ns").observe(seconds_to_ns(wall_seconds));
  if (wall_seconds > 0.0)
    m.gauge("sim.last_events_per_sec")
        .set(static_cast<std::int64_t>(
            static_cast<double>(result.events_processed) / wall_seconds));
  if (result.ooc_enabled) {
    m.counter("sim.ooc.runs").add();
    m.counter("sim.ooc.factor_write_entries")
        .add(result.ooc_factor_write_entries);
    m.counter("sim.ooc.spill_entries").add(result.ooc_spill_entries);
    m.counter("sim.ooc.reload_entries").add(result.ooc_reload_entries);
    // Simulated seconds, kept at microsecond resolution so the counters
    // stay integers.
    m.counter("sim.ooc.stall_sim_us").add(seconds_to_us(result.ooc_stall_time));
    m.counter("sim.ooc.overlap_sim_us")
        .add(seconds_to_us(result.ooc_overlap_time));
    m.gauge("sim.ooc.buffer_high_water_entries")
        .max_of(result.ooc_buffer_high_water);
    m.gauge("sim.ooc.overrun_peak_entries").max_of(result.ooc_overrun_peak);
  }
}

void record_cache_stats(const PreparedCacheStats& stats) {
  MetricsRegistry& m = MetricsRegistry::global();
  // The cache keeps its own monotone counters; mirror the snapshot as
  // absolute gauge values instead of re-accumulating.
  m.gauge("cache.analysis_hits").set(static_cast<std::int64_t>(stats.analysis_hits));
  m.gauge("cache.analysis_misses")
      .set(static_cast<std::int64_t>(stats.analysis_misses));
  m.gauge("cache.mapping_hits").set(static_cast<std::int64_t>(stats.mapping_hits));
  m.gauge("cache.mapping_misses")
      .set(static_cast<std::int64_t>(stats.mapping_misses));
  m.gauge("cache.planner_hits").set(static_cast<std::int64_t>(stats.planner_hits));
  m.gauge("cache.planner_misses")
      .set(static_cast<std::int64_t>(stats.planner_misses));
  m.gauge("cache.factorization_hits")
      .set(static_cast<std::int64_t>(stats.factorization_hits));
  m.gauge("cache.factorization_misses")
      .set(static_cast<std::int64_t>(stats.factorization_misses));
  m.gauge("cache.recomputes").set(static_cast<std::int64_t>(stats.recomputes));
  m.gauge("cache.evictions").set(static_cast<std::int64_t>(stats.evictions));
  const std::uint64_t lookups = stats.hits() + stats.misses();
  if (lookups > 0)
    m.gauge("cache.hit_ratio_ppm")
        .set(static_cast<std::int64_t>(stats.hits() * 1'000'000 / lookups));
  m.gauge("cache.analysis_seconds_us")
      .set(seconds_to_us(stats.analysis_seconds));
  m.gauge("cache.mapping_seconds_us").set(seconds_to_us(stats.mapping_seconds));
  m.gauge("cache.planner_seconds_us").set(seconds_to_us(stats.planner_seconds));
  m.gauge("cache.factor_seconds_us").set(seconds_to_us(stats.factor_seconds));
}

void record_solve_stats(index_t nrhs, unsigned workers, double wall_seconds) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("solver.solve.count").add();
  m.counter("solver.solve.rhs_cols").add(nrhs);
  m.gauge("solver.solve.workers").set(static_cast<std::int64_t>(workers));
  m.histogram("solver.solve.latency_ns").observe(seconds_to_ns(wall_seconds));
}

void record_ooc_exec_stats(const OocExecStats& stats) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("solver.ooc.runs").add();
  m.gauge("solver.ooc.budget_bytes")
      .max_of(doubles_to_bytes(stats.budget_doubles));
  m.gauge("solver.ooc.charged_peak_bytes")
      .max_of(doubles_to_bytes(stats.charged_peak_doubles));
  m.gauge("solver.ooc.overrun_peak_bytes")
      .max_of(doubles_to_bytes(stats.overrun_peak_doubles));
  m.gauge("solver.ooc.buffer_high_water_bytes")
      .max_of(doubles_to_bytes(stats.buffer_high_water_doubles));
  m.counter("solver.ooc.spill_bytes")
      .add(doubles_to_bytes(stats.spill_doubles));
  m.counter("solver.ooc.reload_bytes")
      .add(doubles_to_bytes(stats.reload_doubles));
  m.counter("solver.ooc.factor_write_bytes")
      .add(doubles_to_bytes(stats.factor_write_doubles));
  m.counter("solver.ooc.spill_events").add(stats.spill_events);
  m.counter("solver.ooc.reload_events").add(stats.reload_events);
  m.counter("solver.ooc.io_retries").add(stats.io_retries);
  m.counter("solver.ooc.stall_ns").add(seconds_to_ns(stats.stall_seconds));
  m.counter("solver.ooc.overlap_ns")
      .add(seconds_to_ns(stats.overlap_seconds));
  m.counter("solver.ooc.policy_admissions").add(stats.policy_admissions);
  m.counter("solver.ooc.policy_stall_ns")
      .add(seconds_to_ns(stats.policy_stall_seconds));
}

void record_process_metrics() {
  MetricsRegistry::global().gauge("process.peak_rss_bytes")
      .set(peak_rss_bytes());
}

}  // namespace memfront::obs
