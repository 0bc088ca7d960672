// The observability layer: span tracer ring semantics, thread-track
// separation, metrics registry concurrency, the Chrome trace-event
// export, the CSV compatibility wrappers, and the disabled-mode
// zero-allocation guarantee.
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "memfront/obs/chrome_trace.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/sim/trace.hpp"
#include "memfront/support/parallel_for.hpp"

// ---- allocation counting for the disabled-mode test ------------------------
//
// Every global allocation in this test binary bumps the counter; the
// disabled-mode test asserts the macros perform none. GCC pairs the
// replacement operators with the libc malloc/free it can see through
// them and warns about the "mismatch"; the pairing is exact, so the
// warning is suppressed for this file.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace memfront;
using namespace memfront::obs;

/// Minimal structural JSON validator: brace/bracket balance outside
/// strings, escape-aware. Enough to catch broken emitters without a
/// JSON library.
bool balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"')
      in_string = true;
    else if (c == '{' || c == '[')
      ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

/// Every tracer test starts from a clean global tracer and leaves it
/// disabled with the default ring capacity.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::set_enabled(false);
    Tracer::global().set_ring_capacity(1 << 16);
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::set_enabled(false);
    Tracer::global().set_ring_capacity(1 << 16);
    Tracer::global().clear();
  }
};

TEST_F(TracerTest, SpanNestingRecordsContainedIntervals) {
  Tracer::set_enabled(true);
  {
    MEMFRONT_SPAN("outer", 1);
    { MEMFRONT_SPAN("inner", 2); }
  }
  Tracer::set_enabled(false);

  const std::vector<Tracer::TrackSnapshot> tracks = Tracer::global().snapshot();
  ASSERT_EQ(tracks.size(), 1u);
  ASSERT_EQ(tracks[0].events.size(), 2u);
  // Spans are recorded at scope exit: the inner one lands first.
  const TraceEvent& inner = tracks[0].events[0];
  const TraceEvent& outer = tracks[0].events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.arg, 2);
  EXPECT_EQ(outer.arg, 1);
  EXPECT_EQ(inner.kind, TraceEventKind::kSpan);
  // Containment: the inner interval lies inside the outer one.
  EXPECT_LE(outer.t0_ns, inner.t0_ns);
  EXPECT_LE(inner.t0_ns, inner.t1_ns);
  EXPECT_LE(inner.t1_ns, outer.t1_ns);
}

TEST_F(TracerTest, DisabledMacrosAllocateNothing) {
  Tracer::set_enabled(false);
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    MEMFRONT_SPAN("disabled_span", i);
    MEMFRONT_INSTANT("disabled_instant", i);
    MEMFRONT_COUNTER("disabled_counter", i);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  // And nothing was recorded either.
  const std::vector<Tracer::TrackSnapshot> tracks = Tracer::global().snapshot();
  std::size_t events = 0;
  for (const Tracer::TrackSnapshot& t : tracks) events += t.events.size();
  EXPECT_EQ(events, 0u);
}

TEST_F(TracerTest, RingWraparoundKeepsNewestEvents) {
  Tracer::global().set_ring_capacity(8);
  Tracer::set_enabled(true);
  for (int i = 0; i < 20; ++i) Tracer::global().record_instant("tick", i);
  Tracer::set_enabled(false);

  const std::vector<Tracer::TrackSnapshot> tracks = Tracer::global().snapshot();
  ASSERT_EQ(tracks.size(), 1u);
  const Tracer::TrackSnapshot& track = tracks[0];
  EXPECT_EQ(track.dropped, 12u);
  ASSERT_EQ(track.events.size(), 8u);
  // Oldest-first: ids 12..19 survive.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(track.events[i].arg, 12 + i);
}

TEST_F(TracerTest, ThreadsGetSeparateNamedTracks) {
  constexpr int kThreads = 4;
  Tracer::set_enabled(true);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([i] {
      Tracer::global().set_thread_name("tracked-" + std::to_string(i));
      Tracer::global().record_instant("mark", i);
    });
  for (std::thread& t : threads) t.join();
  Tracer::set_enabled(false);

  const std::vector<Tracer::TrackSnapshot> tracks = Tracer::global().snapshot();
  ASSERT_EQ(tracks.size(), static_cast<std::size_t>(kThreads));
  std::set<std::uint32_t> tids;
  std::set<std::string> names;
  for (const Tracer::TrackSnapshot& track : tracks) {
    tids.insert(track.tid);
    names.insert(track.name);
    // Each thread recorded exactly one event, and its name matches the
    // id it stamped on the event.
    ASSERT_EQ(track.events.size(), 1u);
    EXPECT_EQ(track.name,
              "tracked-" + std::to_string(track.events[0].arg));
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TracerTest, ParallelForWorkersRecordToTheirOwnTracks) {
  // The sweep harness's thread pool: every index is recorded exactly
  // once, whichever worker's ring it lands in.
  constexpr std::size_t kItems = 64;
  Tracer::set_enabled(true);
  parallel_for(kItems, [](std::size_t i) {
    Tracer::global().record_instant("item", static_cast<std::int64_t>(i));
  }, 4);
  Tracer::set_enabled(false);

  const std::vector<Tracer::TrackSnapshot> tracks = Tracer::global().snapshot();
  EXPECT_GE(tracks.size(), 1u);
  std::set<std::int64_t> seen;
  for (const Tracer::TrackSnapshot& track : tracks) {
    EXPECT_EQ(track.dropped, 0u);
    for (const TraceEvent& ev : track.events) {
      EXPECT_TRUE(seen.insert(ev.arg).second)
          << "item " << ev.arg << " recorded twice";
    }
  }
  EXPECT_EQ(seen.size(), kItems);
}

TEST_F(TracerTest, ClearRestartsEpochAndDropsTracks) {
  Tracer::set_enabled(true);
  Tracer::global().record_instant("before_clear", 1);
  Tracer::global().clear();
  EXPECT_TRUE(Tracer::global().snapshot().empty());
  // A thread that recorded before re-registers on its next event.
  Tracer::global().record_instant("after_clear", 2);
  Tracer::set_enabled(false);
  const std::vector<Tracer::TrackSnapshot> tracks = Tracer::global().snapshot();
  ASSERT_EQ(tracks.size(), 1u);
  ASSERT_EQ(tracks[0].events.size(), 1u);
  EXPECT_STREQ(tracks[0].events[0].name, "after_clear");
}

// ---- metrics ---------------------------------------------------------------

TEST(MetricsTest, CountersAndGaugesSurviveConcurrentHammering) {
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  Counter& counter =
      MetricsRegistry::global().counter("obs_test.concurrent_counter");
  Gauge& gauge = MetricsRegistry::global().gauge("obs_test.concurrent_gauge");
  Histogram& hist =
      MetricsRegistry::global().histogram("obs_test.concurrent_hist");
  counter.reset();
  gauge.reset();
  hist.reset();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t, &counter, &gauge, &hist] {
      for (int i = 0; i < kIters; ++i) {
        counter.add(1);
        gauge.max_of(t * kIters + i);
        hist.observe(1);
      }
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter.value(), kThreads * kIters);
  EXPECT_EQ(gauge.value(), kThreads * kIters - 1);  // the largest max_of
  EXPECT_EQ(hist.count(), kThreads * kIters);
  EXPECT_EQ(hist.sum(), kThreads * kIters);
  EXPECT_EQ(hist.bucket(1), kThreads * kIters);  // all observations were 1
}

TEST(MetricsTest, HistogramBucketsByPowerOfTwo) {
  Histogram& hist = MetricsRegistry::global().histogram("obs_test.buckets");
  hist.reset();
  hist.observe(0);   // bucket 0: v <= 0
  hist.observe(-5);  // bucket 0 too
  hist.observe(1);   // bucket 1: [1, 2)
  hist.observe(2);   // bucket 2: [2, 4)
  hist.observe(3);   // bucket 2
  hist.observe(900); // bucket 10: [512, 1024)
  EXPECT_EQ(hist.count(), 6);
  EXPECT_EQ(hist.bucket(0), 2);
  EXPECT_EQ(hist.bucket(1), 1);
  EXPECT_EQ(hist.bucket(2), 2);
  EXPECT_EQ(hist.bucket(10), 1);
  EXPECT_EQ(hist.min(), -5);
  EXPECT_EQ(hist.max(), 900);
  EXPECT_EQ(hist.sum(), 901);
}

TEST(MetricsTest, RegistryWritesSortedValidJson) {
  MetricsRegistry::global().counter("obs_test.json_a").add(3);
  MetricsRegistry::global().counter("obs_test.json_b").add(7);
  MetricsRegistry::global().gauge("obs_test.json_gauge").set(42);
  std::ostringstream os;
  MetricsRegistry::global().write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_a\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_b\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_gauge\": 42"), std::string::npos);
  // Sorted keys: a before b.
  EXPECT_LT(json.find("obs_test.json_a"), json.find("obs_test.json_b"));
}

TEST(MetricsTest, FindDoesNotMaterialize) {
  EXPECT_EQ(MetricsRegistry::global().find_counter("obs_test.never_created"),
            nullptr);
  MetricsRegistry::global().counter("obs_test.created_once").add(5);
  const Counter* found =
      MetricsRegistry::global().find_counter("obs_test.created_once");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 5);
}

TEST(MetricsTest, UnitConversions) {
  EXPECT_EQ(doubles_to_bytes(10), 80);
  EXPECT_EQ(entries_to_bytes(1024), 8192);
  // getrusage should report something on Linux; never negative.
  EXPECT_GE(peak_rss_bytes(), 0);
}

// ---- Chrome trace export ---------------------------------------------------

Tracer::TrackSnapshot make_track(std::uint32_t tid, const std::string& name) {
  Tracer::TrackSnapshot track;
  track.tid = tid;
  track.name = name;
  track.events.push_back({1000, 3000, "work", 7, TraceEventKind::kSpan});
  track.events.push_back({1500, 1500, "blip", -1, TraceEventKind::kInstant});
  track.events.push_back({2000, 2000, "depth", 42, TraceEventKind::kCounter});
  return track;
}

TEST(ChromeTraceTest, ExportsTracksAsValidTraceEvents) {
  ChromeTraceWriter writer;
  writer.add_tracer_snapshot({make_track(0, "worker-0"), make_track(1, "")},
                             "unit test");
  std::ostringstream os;
  writer.write(os);
  const std::string json = os.str();
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Process and thread metadata; the unnamed track gets a fallback name.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"unit test\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(json.find("\"thread-1\""), std::string::npos);
  // The span: 1000 ns -> ts 1.000 us, dur 2.000 us, id arg attached.
  EXPECT_NE(json.find("\"name\": \"work\", \"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1.000, \"dur\": 2.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"id\": 7}"), std::string::npos);
  // Instant without id carries no args clause.
  EXPECT_NE(json.find("\"name\": \"blip\", \"ph\": \"i\""), std::string::npos);
  // Counter value.
  EXPECT_NE(json.find("\"args\": {\"value\": 42}"), std::string::npos);
  EXPECT_EQ(writer.dropped(), 0u);
}

TEST(ChromeTraceTest, SimTimelineSharesTheMicrosecondAxis) {
  Trace trace;
  trace.record(0.5, 2, 128);
  trace.record_io(0.25, 0.75, 1, 64, TraceIo::kSpill);
  trace.annotate(1.0, 0, "root finished");
  ChromeTraceWriter writer;
  writer.add_sim_timeline("sim", trace);
  std::ostringstream os;
  writer.write(os);
  const std::string json = os.str();
  EXPECT_TRUE(balanced_json(json)) << json;
  // 0.5 simulated seconds -> 500000 us on the shared axis.
  EXPECT_NE(json.find("\"name\": \"stack.p2\", \"ph\": \"C\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\": 500000.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"entries\": 128}"), std::string::npos);
  // The spill is a slice from 250000 us lasting 500000 us.
  EXPECT_NE(json.find("\"name\": \"spill\", \"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 250000.000, \"dur\": 500000.000"),
            std::string::npos);
  // The annotation becomes an instant, proc tracks get names.
  EXPECT_NE(json.find("\"root finished\""), std::string::npos);
  EXPECT_NE(json.find("\"proc-0\""), std::string::npos);
}

TEST(ChromeTraceTest, CountsDroppedEventsAcrossTracks) {
  Tracer::TrackSnapshot a = make_track(0, "a");
  a.dropped = 5;
  Tracer::TrackSnapshot b = make_track(1, "b");
  b.dropped = 7;
  ChromeTraceWriter writer;
  writer.add_tracer_snapshot({a, b}, "dropped");
  EXPECT_EQ(writer.dropped(), 12u);
}

// ---- CSV compatibility wrappers --------------------------------------------

TEST(CsvWrapperTest, StackCsvIsByteIdenticalToLegacyFormat) {
  Trace trace;
  trace.record(0.5, 1, 100);
  trace.record(1.25, 3, 250);
  std::ostringstream via_trace, via_obs;
  trace.write_csv(via_trace);
  obs::write_stack_csv(via_obs, trace);
  EXPECT_EQ(via_trace.str(), via_obs.str());
  EXPECT_EQ(via_trace.str(),
            "time,proc,stack_entries\n"
            "0.5,1,100\n"
            "1.25,3,250\n");
}

TEST(CsvWrapperTest, IoCsvIsByteIdenticalToLegacyFormat) {
  Trace trace;
  trace.record_io(0.5, 0.75, 2, 64, TraceIo::kFactorWrite);
  trace.record_io(1.0, 1.5, 0, 32, TraceIo::kReload);
  std::ostringstream via_trace, via_obs;
  trace.write_io_csv(via_trace);
  obs::write_io_csv(via_obs, trace);
  EXPECT_EQ(via_trace.str(), via_obs.str());
  EXPECT_EQ(via_trace.str(),
            "time,finish,proc,entries,kind\n"
            "0.5,0.75,2,64,factor-write\n"
            "1,1.5,0,32,reload\n");
}

}  // namespace
