#include "memfront/ooc/engine.hpp"

#include <algorithm>

#include "memfront/support/error.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/status.hpp"

namespace memfront {

namespace {
/// Transient-I/O retry discipline: up to this many attempts per op, each
/// retry delayed by a doubling backoff in simulated seconds.
constexpr int kMaxIoAttempts = 3;
constexpr double kIoRetryBackoff = 1e-3;
}  // namespace

const char* ooc_io_mode_name(OocIoMode mode) {
  switch (mode) {
    case OocIoMode::kAdmissionDrain: return "admission-drain";
    case OocIoMode::kSynchronous: return "synchronous";
    case OocIoMode::kWriteBehind: return "write-behind";
  }
  return "?";
}

namespace {
count_t auto_capacity(const OocConfig& config) {
  if (config.write_buffer_entries > 0) return config.write_buffer_entries;
  // Auto: double buffering — an I/O buffer as large as the budget;
  // unbounded when the budget is unlimited too.
  return config.budget;
}
}  // namespace

OocEngine::OocEngine(const OocConfig& config, index_t nprocs, OocHost& host)
    : mode_(config.io_mode),
      budget_(config.budget),
      capacity_(auto_capacity(config)),
      spill_policy_(config.spill_policy),
      host_(host),
      disk_(config.disk, nprocs) {
  procs_.resize(static_cast<std::size_t>(nprocs));
}

double OocEngine::disk_write_checked(index_t p, count_t entries, double now) {
  double backoff = kIoRetryBackoff;
  const std::int64_t op = io_ops_++;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (!MEMFRONT_FAULT("ooc.write", op * kMaxIoAttempts + attempt))
      return disk_.write(p, entries, now);
    ++host_.ooc_stats(p).io_retries;
    now += backoff;
    backoff *= 2;
  }
  throw SolverError(ErrorCode::kIoError,
                    "ooc: disk write failed after bounded retries",
                    std::source_location::current(),
                    ErrorContext{.node = p, .input_line = -1,
                                 .detail = "entries=" + std::to_string(entries)});
}

double OocEngine::disk_read_checked(index_t p, count_t entries, double now) {
  double backoff = kIoRetryBackoff;
  const std::int64_t op = io_ops_++;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (!MEMFRONT_FAULT("ooc.read", op * kMaxIoAttempts + attempt))
      return disk_.read(p, entries, now);
    ++host_.ooc_stats(p).io_retries;
    now += backoff;
    backoff *= 2;
  }
  throw SolverError(ErrorCode::kIoError,
                    "ooc: disk read failed after bounded retries",
                    std::source_location::current(),
                    ErrorContext{.node = p, .input_line = -1,
                                 .detail = "entries=" + std::to_string(entries)});
}

double OocEngine::buffer_push(index_t p, count_t entries, TraceIo kind) {
  ProcState& ps = proc(p);
  const double now = host_.now();
  double stall = 0.0;
  if (capacity_ > 0) {
    // Full buffer: wait for the earliest in-flight writes to land (their
    // disk time is already scheduled; the wait is the whole cost). An
    // oversized block degrades gracefully: drain everything, then push.
    for (InFlightWrite& bw : ps.in_flight) {
      if (ps.buffer_used + entries <= capacity_) break;
      if (bw.released) continue;
      bw.released = true;
      ps.buffer_used -= bw.entries;
      stall = std::max(stall, bw.finish - now);
    }
  }
  ps.buffer_used += entries;
  OocProcStats& st = host_.ooc_stats(p);
  st.buffer_high_water = std::max(st.buffer_high_water, ps.buffer_used);
  // Overlap is this write's *service* window (the channel may first have
  // to drain earlier writes, whose service was already counted when they
  // were pushed), minus any buffer-full wait the processor did absorb.
  const double service_start = disk_.busy_until(p, now);
  const double finish = disk_write_checked(p, entries, now);
  host_.record_io(now, finish, p, entries, kind);
  st.overlap_time += std::max(0.0, (finish - service_start) - stall);
  ps.in_flight.push(InFlightWrite{finish, entries, false});
  host_.schedule_io(finish, OocLanding{OocLandingKind::kBufferSlot, p});
  return stall;
}

double OocEngine::write_back_factors(index_t p, count_t entries) {
  if (entries <= 0) return 0.0;
  host_.ooc_stats(p).factor_write_entries += entries;
  switch (mode_) {
    case OocIoMode::kAdmissionDrain: {
      // The entries stay on the stack (they were allocated as part of the
      // front) until the write lands; budget admission may account them
      // as freed early.
      const double finish = disk_write_checked(p, entries, host_.now());
      proc(p).pending_writes.push(InFlightWrite{finish, entries, false});
      host_.record_io(host_.now(), finish, p, entries,
                      TraceIo::kFactorWrite);
      host_.schedule_io(finish, OocLanding{OocLandingKind::kFactorWrite, p});
      return 0.0;
    }
    case OocIoMode::kSynchronous: {
      // Blocking write: the processor stalls until the panel lands.
      host_.release(p, entries);
      host_.announce_mem(p, -entries);
      const double finish = disk_write_checked(p, entries, host_.now());
      host_.record_io(host_.now(), finish, p, entries,
                      TraceIo::kFactorWrite);
      const double stall = finish - host_.now();
      host_.ooc_stats(p).stall_time += stall;
      return stall;
    }
    case OocIoMode::kWriteBehind: {
      // The panel moves from the stack into the I/O buffer and the stack
      // frees immediately.
      host_.release(p, entries);
      host_.announce_mem(p, -entries);
      const double stall = buffer_push(p, entries, TraceIo::kFactorWrite);
      if (stall > 0) host_.ooc_stats(p).stall_time += stall;
      return stall;
    }
  }
  return 0.0;
}

void OocEngine::on_landing(const OocLanding& landing) {
  // Disk channels serve writes in issue order, and landings are scheduled
  // in issue order too (FIFO at equal timestamps), so the completion
  // always resolves to the front of the matching FIFO.
  ProcState& ps = proc(landing.proc);
  switch (landing.kind) {
    case OocLandingKind::kFactorWrite: {
      check(!ps.pending_writes.empty(), "ooc: landing without pending write");
      const InFlightWrite w = ps.pending_writes.front();
      ps.pending_writes.pop_front();
      if (!w.released) {
        host_.release(landing.proc, w.entries);
        host_.announce_mem(landing.proc, -w.entries);
      }
      break;
    }
    case OocLandingKind::kBufferSlot: {
      check(!ps.in_flight.empty(), "ooc: landing without in-flight write");
      const InFlightWrite w = ps.in_flight.front();
      ps.in_flight.pop_front();
      if (!w.released) ps.buffer_used -= w.entries;
      break;
    }
  }
}

double OocEngine::admit(index_t p, count_t incoming) {
  if (budget_ <= 0) return 0.0;
  ProcState& ps = proc(p);
  count_t over = host_.stack(p) + incoming - budget_;
  if (over <= 0) return 0.0;
  OocProcStats& st = host_.ooc_stats(p);
  double stall = 0.0;
  if (mode_ == OocIoMode::kAdmissionDrain) {
    // 1. Drain factor writes already in flight, earliest-finishing first
    //    (pending_writes is in issue order = finish order per channel).
    for (InFlightWrite& pw : ps.pending_writes) {
      if (over <= 0) break;
      if (pw.released) continue;
      pw.released = true;
      host_.release(p, pw.entries);
      host_.announce_mem(p, -pw.entries);
      stall = std::max(stall, pw.finish - host_.now());
      over -= pw.entries;
    }
  }
  // 2. Spill resident contribution blocks. Admission-drain and
  //    synchronous modes stall until the eviction writes land;
  //    write-behind moves them to the buffer and stalls only if it is
  //    full.
  if (over > 0 && !ps.resident_cbs.empty()) {
    std::vector<SpillCandidate> candidates;
    candidates.reserve(ps.resident_cbs.size());
    for (index_t n : ps.resident_cbs)
      candidates.push_back({n, host_.resident_entries(n, p)});
    const std::vector<std::size_t> victims = choose_spill_victims(
        candidates, over, spill_policy_, ps.spill_cursor);
    if (spill_policy_ == SpillPolicy::kRoundRobin)
      ps.spill_cursor += victims.size();
    std::vector<index_t> evicted;
    evicted.reserve(victims.size());
    for (std::size_t k : victims) {
      const index_t n = candidates[k].id;
      const count_t entries = candidates[k].entries;
      host_.mark_spilled(n, p);
      host_.release(p, entries);
      host_.announce_mem(p, -entries);
      if (mode_ == OocIoMode::kWriteBehind) {
        stall = std::max(stall, buffer_push(p, entries, TraceIo::kSpill));
      } else {
        const double finish = disk_write_checked(p, entries, host_.now());
        host_.record_io(host_.now(), finish, p, entries, TraceIo::kSpill);
        stall = std::max(stall, finish - host_.now());
      }
      st.spill_entries += entries;
      ++st.spill_events;
      over -= entries;
      evicted.push_back(n);
    }
    std::erase_if(ps.resident_cbs, [&](index_t n) {
      return std::find(evicted.begin(), evicted.end(), n) != evicted.end();
    });
  }
  if (over > 0) st.overrun_peak = std::max(st.overrun_peak, over);
  st.stall_time += stall;
  return stall;
}

void OocEngine::track_resident(index_t p, index_t node) {
  proc(p).resident_cbs.push_back(node);
}

void OocEngine::forget_resident(index_t p, index_t node) {
  std::erase(proc(p).resident_cbs, node);
}

double OocEngine::reload(index_t p, count_t entries) {
  OocProcStats& st = host_.ooc_stats(p);
  st.reload_entries += entries;
  ++st.reload_events;
  const double finish = disk_read_checked(p, entries, host_.now());
  host_.record_io(host_.now(), finish, p, entries, TraceIo::kReload);
  return finish - host_.now();
}

}  // namespace memfront
