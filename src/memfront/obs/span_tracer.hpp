// Low-overhead span tracing for the real execution paths.
//
// The simulator always had a timeline (sim/trace.hpp); the real code —
// the tree-task factorization (serial runs included), the prepared
// cache, the kernels — was a black box. This tracer gives it
// the same visibility at near-zero cost:
//
//   - RAII spans behind macros (MEMFRONT_SPAN("factor_front", node)):
//     a single relaxed atomic load while tracing is disabled at runtime
//     (the default).
//   - Per-thread bounded ring buffers: a recording thread writes only to
//     its own ring (registered once, under a mutex, on its first event),
//     so the hot path takes no lock and performs no allocation. When a
//     ring is full the oldest events are overwritten and counted as
//     dropped — tracing never grows memory without bound.
//   - steady_clock timestamps in nanoseconds since the tracer epoch, the
//     single time convention every exporter (Chrome JSON, CSV) shares.
//
// Snapshots require quiescence: take them after the traced threads have
// been joined (parallel_for joins every worker), never concurrently with
// recording. The benches and the trace_viewer example export at process
// end, which satisfies this for free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace memfront::obs {

/// What one ring-buffer record describes.
enum class TraceEventKind : unsigned char {
  kSpan,     // [t0_ns, t1_ns] slice; arg = id (-1 = none)
  kInstant,  // point at t0_ns; arg = id
  kCounter,  // sample at t0_ns; arg = value
};

/// One record. `name` must point at storage that outlives the tracer —
/// the macros pass string literals, which is the intended use.
struct TraceEvent {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  const char* name = nullptr;
  std::int64_t arg = -1;
  TraceEventKind kind = TraceEventKind::kSpan;
};

class Tracer {
 public:
  /// The process-wide tracer every macro records into.
  static Tracer& global();

  /// The runtime switch the span macros check before doing anything.
  static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Nanoseconds since the tracer epoch (reset by clear()).
  std::uint64_t now_ns() const;

  // ---- recording (called by the macros; enabled() is checked first) --------
  void record_span(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                   std::int64_t id = -1);
  void record_instant(const char* name, std::int64_t id = -1);
  void record_counter(const char* name, std::int64_t value);
  /// Names the calling thread's track in exported timelines.
  void set_thread_name(std::string name);

  /// Ring capacity (events) for tracks registered after this call.
  void set_ring_capacity(std::size_t events);
  std::size_t ring_capacity() const;

  // ---- snapshot (requires quiescence, see the header comment) --------------
  struct TrackSnapshot {
    std::uint32_t tid = 0;      // stable per-thread id, registration order
    std::string name;           // thread name ("" if never named)
    std::uint64_t dropped = 0;  // events lost to ring wraparound
    std::vector<TraceEvent> events;  // oldest first
  };
  std::vector<TrackSnapshot> snapshot() const;

  /// Drops every track and restarts the epoch clock. Threads that
  /// recorded before re-register on their next event.
  void clear();

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct ThreadTrack;  // public only for the thread_local cache in the .cpp

 private:
  struct Impl;
  ThreadTrack& track();

  static std::atomic<bool> enabled_;
  std::unique_ptr<Impl> impl_;
};

/// RAII span: timestamps the scope and records it at exit. When the
/// tracer is disabled at construction the destructor does nothing — no
/// clock reads, no ring write, no allocation.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::int64_t id = -1) {
    if (Tracer::enabled()) {
      name_ = name;
      id_ = id;
      t0_ = Tracer::global().now_ns();
    }
  }
  ~SpanScope() {
    if (name_ != nullptr) {
      Tracer& t = Tracer::global();
      t.record_span(name_, t0_, t.now_ns(), id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::int64_t id_ = -1;
};

}  // namespace memfront::obs

// ---- the instrumentation macros --------------------------------------------
//
// MEMFRONT_SPAN(name[, id])      — RAII slice covering the enclosing scope
// MEMFRONT_INSTANT(name[, id])   — point event
// MEMFRONT_COUNTER(name, value)  — counter-track sample
// MEMFRONT_THREAD_NAME(name)     — labels the calling thread's track
//
// Each costs one relaxed load while tracing is disabled.
#define MEMFRONT_OBS_CONCAT2(a, b) a##b
#define MEMFRONT_OBS_CONCAT(a, b) MEMFRONT_OBS_CONCAT2(a, b)
#define MEMFRONT_SPAN(...) \
  ::memfront::obs::SpanScope MEMFRONT_OBS_CONCAT(mf_span_, __LINE__) { \
    __VA_ARGS__ \
  }
#define MEMFRONT_INSTANT(...)                                   \
  do {                                                          \
    if (::memfront::obs::Tracer::enabled())                     \
      ::memfront::obs::Tracer::global().record_instant(__VA_ARGS__); \
  } while (0)
#define MEMFRONT_COUNTER(name, value)                                 \
  do {                                                                \
    if (::memfront::obs::Tracer::enabled())                           \
      ::memfront::obs::Tracer::global().record_counter(name, value);  \
  } while (0)
#define MEMFRONT_THREAD_NAME(name)                                 \
  do {                                                             \
    if (::memfront::obs::Tracer::enabled())                        \
      ::memfront::obs::Tracer::global().set_thread_name(name);     \
  } while (0)
