// Process-wide metrics registry: named counters, gauges, and histograms.
//
// Absorbs the ad-hoc stats structs scattered across the layers
// (FactorStats, ParallelNumericStats, ParallelResult's OOC aggregates,
// PreparedCacheStats) behind stable dot-separated metric names, so every
// bench and the trace_viewer example can snapshot one JSON document
// instead of hand-rolling per-struct output.
//
// Naming scheme (see DESIGN.md "Observability"):
//   <layer>.<object>.<measure>[_<unit>]
// e.g. solver.factor.arena_peak_bytes, cache.analysis_hits,
// sim.events_processed. Units are explicit suffixes; memory appears in
// *bytes* at this boundary (with the model-unit twin kept under its own
// `_doubles` / `_entries` suffix where the model unit matters).
//
// Concurrency: metric updates are relaxed atomics — safe from any
// thread, never locking. Registration (the name -> slot lookup) takes a
// mutex; hot call sites should cache the returned reference (metric
// references are stable for the registry's lifetime).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "memfront/support/types.hpp"

namespace memfront {
struct FactorStats;
struct OocExecStats;
struct ParallelNumericStats;
struct ParallelResult;
struct PreparedCacheStats;
}  // namespace memfront

namespace memfront::obs {

/// Monotone counter.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins level, with a lock-free running-max helper for
/// high-water marks.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if larger (high-water semantics).
  void max_of(std::int64_t v) noexcept {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins double-valued level with a running-max helper — for
/// the few metrics that are genuinely real-valued (pivot growth,
/// backward error) where integer quantization would lose the signal.
class FloatGauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (high-water semantics).
  void max_of(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two-bucketed histogram of non-negative values (latency in
/// nanoseconds is the intended unit): bucket i counts observations v
/// with bit_width(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds
/// v <= 0. All updates are relaxed atomics.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::int64_t v) noexcept;

  std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::int64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  std::int64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

class MetricsRegistry {
 public:
  /// The process-wide registry the record_* adapters feed.
  static MetricsRegistry& global();

  /// Finds or creates the named metric. References stay valid for the
  /// registry's lifetime; cache them at hot call sites.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  FloatGauge& float_gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Lookup without creation (0 / nullptr when absent) — for tests and
  /// report code that must not materialize empty metrics.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const FloatGauge* find_float_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// One JSON document: {"counters": {...}, "gauges": {...},
  /// "float_gauges": {...}, "histograms": {...}}, keys sorted, stable
  /// across runs.
  void write_json(std::ostream& os) const;

  /// Zeroes every registered metric (registrations survive).
  void reset();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- unit normalization ----------------------------------------------------
//
// The layers report memory in mixed units: the numeric ledger in
// doubles of full-square storage, the simulator in model entries,
// getrusage in kilobytes. At the metrics boundary everything gains a
// `_bytes` twin.

constexpr std::int64_t doubles_to_bytes(count_t doubles) noexcept {
  return static_cast<std::int64_t>(doubles) *
         static_cast<std::int64_t>(sizeof(double));
}
constexpr std::int64_t entries_to_bytes(count_t entries) noexcept {
  return static_cast<std::int64_t>(entries) *
         static_cast<std::int64_t>(sizeof(double));
}

/// Peak resident set size in bytes (0 when the platform hides it).
std::int64_t peak_rss_bytes();

// ---- adapters: the ad-hoc stats structs -> stable metric names -------------

/// solver.factor.* — one numeric_factorize call.
void record_factor_stats(const FactorStats& stats);
/// solver.parallel.* — one parallel_numeric_factorize call.
void record_parallel_numeric_stats(const ParallelNumericStats& stats,
                                   double wall_seconds);
/// solver.sched.* — the tree-task scheduler of one factorization, serial
/// (one worker) or parallel.
void record_sched_stats(const ParallelNumericStats& stats);
/// sim.* and sim.ooc.* — one simulated parallel factorization.
void record_sim_result(const ParallelResult& result, double wall_seconds);
/// cache.* — the prepared-cache counter snapshot (absolute values; this
/// *sets* gauges rather than accumulating, matching the cache's own
/// monotone counters).
void record_cache_stats(const PreparedCacheStats& stats);
/// solver.solve.* — one triangular-solve sweep (any nrhs, any worker
/// count): solve count + RHS-column counters, worker gauge, and the
/// per-solve latency histogram bench_solve's percentiles come from.
void record_solve_stats(index_t nrhs, unsigned workers, double wall_seconds);
/// solver.ooc.* — one real out-of-core factorization: the budget gate's
/// charged high-water mark vs the budget, spill/reload/factor-write
/// traffic, buffer high water, and the stall/overlap seconds.
void record_ooc_exec_stats(const OocExecStats& stats);
/// process.* — peak RSS, recorded at snapshot time.
void record_process_metrics();

}  // namespace memfront::obs
