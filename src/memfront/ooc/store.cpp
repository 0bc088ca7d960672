#include "memfront/ooc/store.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "memfront/obs/span_tracer.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/hash.hpp"
#include "memfront/support/status.hpp"

namespace memfront {

namespace {

/// Transient-I/O retry discipline, identical to the simulator's
/// (OocEngine::disk_write_checked): up to kMaxIoAttempts per op with a
/// doubling backoff, then a structured kIoError. The fault id is
/// node * kMaxIoAttempts + attempt, so a period-1 override on a site
/// exhausts the retries while coarser periods exercise the absorb path.
constexpr int kMaxIoAttempts = 3;
constexpr auto kIoRetryBackoff = std::chrono::microseconds(50);

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string resolve_spill_root(const std::string& dir) {
  if (!dir.empty()) return dir;
  if (const char* env = std::getenv("MEMFRONT_SPILL_DIR");
      env != nullptr && *env != '\0')
    return env;
  std::error_code ec;
  const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  return ec ? std::string{"/tmp"} : tmp.string();
}

ErrorContext io_context(index_t node, const std::string& path,
                        std::uint64_t offset, const std::string& what) {
  return ErrorContext{.node = node,
                      .input_line = -1,
                      .detail = what + " file=" + path +
                                " offset=" + std::to_string(offset)};
}

/// The iovecs covering bytes [from, to) of a frame: the header, then
/// the payload (the caller's buffer). Returns how many it filled.
int frame_iov(iovec (&iov)[2], const SpillBlockHeader& header,
              const double* payload, std::size_t from, std::size_t to) {
  constexpr std::size_t kHeader = sizeof(SpillBlockHeader);
  int n = 0;
  if (from < kHeader)
    iov[n++] = {const_cast<char*>(reinterpret_cast<const char*>(&header)) +
                    from,
                std::min(to, kHeader) - from};
  if (to > kHeader) {
    const std::size_t p0 = std::max(from, kHeader) - kHeader;
    iov[n++] = {const_cast<char*>(reinterpret_cast<const char*>(payload)) +
                    p0,
                to - kHeader - p0};
  }
  return n;
}

}  // namespace

std::uint64_t spill_checksum(const double* data, std::size_t count) {
  // Four independent chains keep four multiplies in flight; a single
  // chain is bound by the latency of one.
  std::uint64_t h0 = 0x243f6a8885a308d3ULL, h1 = 0x13198a2e03707344ULL,
                h2 = 0xa4093822299f31d0ULL, h3 = 0x082efa98ec4e6c89ULL;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    h0 = hash_mix(h0, data[i]);
    h1 = hash_mix(h1, data[i + 1]);
    h2 = hash_mix(h2, data[i + 2]);
    h3 = hash_mix(h3, data[i + 3]);
  }
  if (i < count) h0 = hash_mix(h0, data[i++]);
  if (i < count) h1 = hash_mix(h1, data[i++]);
  if (i < count) h2 = hash_mix(h2, data[i]);
  std::uint64_t h = hash_mix(0x452821e638d01377ULL,
                             static_cast<std::uint64_t>(count));
  h = hash_mix(h, h0);
  h = hash_mix(h, h1);
  h = hash_mix(h, h2);
  return hash_mix(h, h3);
}

std::uint64_t SpillBlockHeader::compute_header_check() const {
  std::uint64_t h = hash_mix(0x13198a2e03707344ULL,
                             static_cast<std::uint64_t>(magic));
  h = hash_mix(h, static_cast<std::uint64_t>(version));
  h = hash_mix(h, static_cast<std::uint64_t>(node));
  h = hash_mix(h, payload_bytes);
  return hash_mix(h, payload_check);
}

SpillStore::SpillStore(const SpillStoreOptions& options, LandingFn on_landing)
    : write_behind_(options.write_behind),
      remove_files_(options.remove_files),
      buffer_cap_(options.buffer_bytes),
      landing_(std::move(on_landing)) {
  static std::atomic<std::uint64_t> store_counter{0};
  const std::filesystem::path root = resolve_spill_root(options.dir);
  const std::filesystem::path sub =
      root / ("memfront-spill-" + std::to_string(::getpid()) + "-" +
              std::to_string(store_counter.fetch_add(1)));
  std::error_code ec;
  std::filesystem::create_directories(sub, ec);
  require(!ec, "spill store: cannot create spill directory " + sub.string());
  dir_ = sub.string();

  const index_t nfiles = options.files > 0 ? options.files : 1;
  for (index_t f = 0; f < nfiles; ++f) {
    std::string path =
        (sub / ("worker" + std::to_string(f) + ".spill")).string();
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd < 0)
      throw SolverError(
          ErrorCode::kIoError, "spill store: cannot create spill file",
          std::source_location::current(),
          io_context(kNone, path, 0, std::string("errno=") +
                                         std::strerror(errno)));
    paths_.push_back(std::move(path));
    files_.push_back(fd);
  }
  next_offset_.assign(paths_.size(), 0);
  queued_writes_.assign(paths_.size(), 0);
  if (write_behind_) io_thread_ = std::thread([this] { io_thread_loop(); });
}

SpillStore::~SpillStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    landing_ = {};
    io_cv_.notify_all();
    cv_.notify_all();
  }
  if (io_thread_.joinable()) io_thread_.join();
  for (int fd : files_) ::close(fd);
  if (remove_files_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

void SpillStore::set_landing(LandingFn fn) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return callbacks_in_progress_ == 0; });
  landing_ = std::move(fn);
}

void SpillStore::rethrow_pending_error() {
  std::lock_guard<std::mutex> lock(mu_);
  if (failure_) std::rethrow_exception(failure_);
}

SpillStore::BlockId SpillStore::reserve_block_locked(index_t file,
                                                     index_t node,
                                                     std::size_t count) {
  check(file >= 0 && static_cast<std::size_t>(file) < files_.size(),
        "spill store: file index out of range");
  Block b;
  b.file = file;
  b.node = node;
  b.payload_bytes = static_cast<std::uint64_t>(count) * sizeof(double);
  // Offsets are reserved at append time (not write time), so queued
  // writes to one file never contend and positional reads are exact.
  b.offset = next_offset_[static_cast<std::size_t>(file)];
  next_offset_[static_cast<std::size_t>(file)] +=
      sizeof(SpillBlockHeader) + b.payload_bytes;
  blocks_.push_back(b);
  return static_cast<BlockId>(blocks_.size()) - 1;
}

void SpillStore::write_block_checked(const Block& block, const double* data,
                                     std::size_t count) {
  MEMFRONT_SPAN("ooc.store.write", block.node);
  const std::string& path = paths_[static_cast<std::size_t>(block.file)];
  const int fd = files_[static_cast<std::size_t>(block.file)];

  // A full disk is not transient: surface it immediately, no retries.
  if (MEMFRONT_FAULT("store.enospc", block.node))
    throw SolverError(ErrorCode::kIoError,
                      "spill store: no space left on device (injected)",
                      std::source_location::current(),
                      io_context(block.node, path, block.offset,
                                 "errno=ENOSPC"));

  SpillBlockHeader header;
  header.node = block.node;
  header.payload_bytes = block.payload_bytes;
  header.payload_check = spill_checksum(data, count);
  header.header_check = header.compute_header_check();
  const std::size_t frame = sizeof(header) + block.payload_bytes;
  // Bytes [from, to) of the frame, straight from `header` and `data`.
  const auto pwrite_frame = [&](std::size_t from, std::size_t to) {
    iovec iov[2];
    const int n = frame_iov(iov, header, data, from, to);
    return ::pwritev(fd, iov, n, static_cast<off_t>(block.offset + from));
  };

  auto backoff = kIoRetryBackoff;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (MEMFRONT_FAULT("store.write",
                       static_cast<std::int64_t>(block.node) * kMaxIoAttempts +
                           attempt)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.io_retries;
      }
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
      continue;
    }
    std::size_t done = 0;
    // A short write (a real one, or the injected short_write tear)
    // resumes from the byte where it stopped, inside the header or the
    // payload — partial progress is not an error.
    if (attempt == 0 && MEMFRONT_FAULT("store.short_write", block.node)) {
      const ssize_t w = pwrite_frame(0, frame / 2);
      if (w > 0) done = static_cast<std::size_t>(w);
    }
    bool io_failed = false;
    while (done < frame) {
      const ssize_t w = pwrite_frame(done, frame);
      if (w < 0) {
        if (errno == EINTR) continue;
        io_failed = true;
        break;
      }
      done += static_cast<std::size_t>(w);
    }
    if (!io_failed) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.io_retries;
    }
    std::this_thread::sleep_for(backoff);
    backoff *= 2;
  }
  throw SolverError(ErrorCode::kIoError,
                    "spill store: block write failed after bounded retries",
                    std::source_location::current(),
                    io_context(block.node, path, block.offset,
                               "bytes=" + std::to_string(frame)));
}

void SpillStore::read_block_checked(BlockId id, double* out) {
  Block block;
  {
    std::lock_guard<std::mutex> lock(mu_);
    block = blocks_[static_cast<std::size_t>(id)];
  }
  MEMFRONT_SPAN("ooc.store.read", block.node);
  const std::string& path = paths_[static_cast<std::size_t>(block.file)];
  const int fd = files_[static_cast<std::size_t>(block.file)];
  const std::size_t frame_bytes =
      sizeof(SpillBlockHeader) + block.payload_bytes;

  auto backoff = kIoRetryBackoff;
  std::string reason;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    const auto retry = [&](const std::string& why) {
      reason = why;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.io_retries;
      }
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    };
    if (MEMFRONT_FAULT("store.read",
                       static_cast<std::int64_t>(block.node) * kMaxIoAttempts +
                           attempt)) {
      retry("injected transient read failure");
      continue;
    }
    // The header lands in `header`, the payload straight in `out`.
    SpillBlockHeader header;
    std::size_t done = 0;
    bool truncated = false, io_failed = false;
    while (done < frame_bytes) {
      iovec iov[2];
      const int n = frame_iov(iov, header, out, done, frame_bytes);
      const ssize_t r =
          ::preadv(fd, iov, n, static_cast<off_t>(block.offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        io_failed = true;
        break;
      }
      if (r == 0) {
        truncated = true;
        break;
      }
      done += static_cast<std::size_t>(r);
    }
    if (io_failed) {
      retry(std::string("errno=") + std::strerror(errno));
      continue;
    }
    if (truncated)
      // EOF inside the frame is corruption (a lost write), not a
      // transient condition: the writer landed before any read starts.
      throw SolverError(
          ErrorCode::kIoError, "spill store: truncated block on reload",
          std::source_location::current(),
          io_context(block.node, path, block.offset,
                     "got=" + std::to_string(done) + " want=" +
                         std::to_string(frame_bytes)));

    if (block.payload_bytes > 0 &&
        MEMFRONT_FAULT("store.torn_read",
                       static_cast<std::int64_t>(block.node) * kMaxIoAttempts +
                           attempt))
      reinterpret_cast<unsigned char*>(out)[frame_bytes %
                                            block.payload_bytes] ^= 0x5a;

    if (header.magic != SpillBlockHeader::kMagic ||
        header.version != SpillBlockHeader::kVersion ||
        header.header_check != header.compute_header_check() ||
        header.payload_bytes != block.payload_bytes ||
        header.node != block.node)
      throw SolverError(ErrorCode::kIoError,
                        "spill store: corrupted block header on reload",
                        std::source_location::current(),
                        io_context(block.node, path, block.offset,
                                   "magic=" + std::to_string(header.magic)));

    if (spill_checksum(out, block.payload_bytes / sizeof(double)) !=
        header.payload_check) {
      // A checksum mismatch could be a transient transfer error:
      // reread within the bounded attempts, then surface it.
      retry("payload checksum mismatch");
      continue;
    }
    return;
  }
  throw SolverError(
      ErrorCode::kIoError,
      "spill store: block read failed after bounded retries",
      std::source_location::current(),
      io_context(block.node, path, block.offset, reason));
}

void SpillStore::land_locked(std::unique_lock<std::mutex>& lock, BlockId id,
                             std::size_t bytes, bool ok) {
  Block& block = blocks_[static_cast<std::size_t>(id)];
  // A block dropped while queued stays dead.
  if (block.state == BlockState::kQueued)
    block.state = ok ? BlockState::kWritten : BlockState::kFailed;
  queued_bytes_ -= bytes;
  --queued_writes_[static_cast<std::size_t>(block.file)];
  ++callbacks_in_progress_;
  LandingFn fn = landing_;
  const index_t node = block.node;
  cv_.notify_all();
  lock.unlock();
  if (fn) fn(id, node, bytes, ok);
  lock.lock();
  --callbacks_in_progress_;
  cv_.notify_all();
}

/// Call before io_waiters_ or writing_ changes: accounts the interval
/// since the last change to waited_write_seconds when, throughout it,
/// the I/O thread wrote while someone waited for it.
void SpillStore::tick_io_clock_locked() {
  const auto now = std::chrono::steady_clock::now();
  if (writing_ && io_waiters_ > 0)
    stats_.waited_write_seconds +=
        std::chrono::duration<double>(now - io_clock_).count();
  io_clock_ = now;
}

void SpillStore::io_wait_begin_locked() {
  tick_io_clock_locked();
  ++io_waiters_;
}

void SpillStore::io_wait_end_locked() {
  tick_io_clock_locked();
  --io_waiters_;
}

void SpillStore::io_wait_begin() {
  std::lock_guard<std::mutex> lock(mu_);
  io_wait_begin_locked();
}

void SpillStore::io_wait_end() {
  std::lock_guard<std::mutex> lock(mu_);
  io_wait_end_locked();
}

void SpillStore::io_thread_loop() {
  MEMFRONT_THREAD_NAME("ooc-io");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    io_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    IoTask task = std::move(queue_.front());
    queue_.pop_front();
    const Block block = blocks_[static_cast<std::size_t>(task.id)];
    const std::size_t bytes = task.data.size() * sizeof(double);
    if (task.is_prefetch) {
      // Claimed by a demand read or dropped since it was queued: skip.
      Block& target = blocks_[static_cast<std::size_t>(task.id)];
      if (target.prefetch != Prefetch::kQueued) continue;
      target.prefetch = Prefetch::kRunning;
      lock.unlock();
      auto payload = std::make_unique_for_overwrite<double[]>(
          block.payload_bytes / sizeof(double));
      bool ok = true;
      try {
        read_block_checked(task.id, payload.get());
      } catch (...) {
        // Prefetch is advisory: a failed read-ahead is dropped and the
        // demand read reproduces (and surfaces) the error.
        ok = false;
      }
      lock.lock();
      Block& landed = blocks_[static_cast<std::size_t>(task.id)];
      landed.prefetch = Prefetch::kNone;
      if (ok && landed.state == BlockState::kWritten)
        read_ahead_.emplace(task.id, std::move(payload));
      cv_.notify_all();
      continue;
    }
    // A failed store fails every later write fast (their landings must
    // still fire so waiters holding charges unwind). A block dropped
    // while it was queued is dead: its landing fires, its write is
    // skipped.
    bool ok = !failure_;
    if (ok && block.state != BlockState::kDropped) {
      const auto t0 = std::chrono::steady_clock::now();
      tick_io_clock_locked();
      writing_ = true;
      lock.unlock();
      try {
        write_block_checked(block, task.data.data(), task.data.size());
      } catch (...) {
        ok = false;
        lock.lock();
        if (!failure_) failure_ = std::current_exception();
        lock.unlock();
      }
      lock.lock();
      tick_io_clock_locked();
      writing_ = false;
      stats_.write_busy_seconds += seconds_since(t0);
      if (ok) {
        ++stats_.blocks_written;
        stats_.bytes_written += static_cast<std::int64_t>(bytes);
      }
    }
    land_locked(lock, task.id, bytes, ok);
  }
}

SpillStore::BlockId SpillStore::append(index_t file, index_t node,
                                       std::vector<double> data) {
  const std::size_t bytes = data.size() * sizeof(double);
  std::unique_lock<std::mutex> lock(mu_);
  if (failure_) std::rethrow_exception(failure_);
  const BlockId id = reserve_block_locked(file, node, data.size());
  ++queued_writes_[static_cast<std::size_t>(file)];

  if (!write_behind_) {
    const Block block = blocks_[static_cast<std::size_t>(id)];
    lock.unlock();
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = true;
    std::exception_ptr err;
    try {
      write_block_checked(block, data.data(), data.size());
    } catch (...) {
      ok = false;
      err = std::current_exception();
    }
    lock.lock();
    stats_.write_busy_seconds += seconds_since(t0);
    if (ok) {
      ++stats_.blocks_written;
      stats_.bytes_written += static_cast<std::int64_t>(bytes);
    }
    queued_bytes_ += bytes;  // land_locked symmetric release
    land_locked(lock, id, bytes, ok);
    if (err) std::rethrow_exception(err);
    return id;
  }

  const auto room = [&] {
    return failure_ || stopping_ || buffer_cap_ == 0 ||
           queued_bytes_ + bytes <= buffer_cap_ || queued_bytes_ == 0;
  };
  if (!room()) {
    // Full buffer: stall until enough in-flight writes land. An
    // oversized block degrades gracefully: drain everything, then push.
    const auto t0 = std::chrono::steady_clock::now();
    io_wait_begin_locked();
    cv_.wait(lock, room);
    io_wait_end_locked();
    stats_.append_stall_seconds += seconds_since(t0);
  }
  if (failure_) {
    --queued_writes_[static_cast<std::size_t>(file)];
    blocks_[static_cast<std::size_t>(id)].state = BlockState::kFailed;
    std::rethrow_exception(failure_);
  }
  queued_bytes_ += bytes;
  stats_.buffer_high_water_bytes =
      std::max(stats_.buffer_high_water_bytes,
               static_cast<std::int64_t>(queued_bytes_));
  queue_.push_back(IoTask{id, std::move(data), false});
  io_cv_.notify_one();
  return id;
}

SpillStore::BlockId SpillStore::write_now(index_t file, index_t node,
                                          const double* data,
                                          std::size_t count) {
  std::unique_lock<std::mutex> lock(mu_);
  if (failure_) std::rethrow_exception(failure_);
  const BlockId id = reserve_block_locked(file, node, count);
  const Block block = blocks_[static_cast<std::size_t>(id)];
  lock.unlock();
  const auto t0 = std::chrono::steady_clock::now();
  try {
    write_block_checked(block, data, count);
  } catch (...) {
    std::lock_guard<std::mutex> relock(mu_);
    blocks_[static_cast<std::size_t>(id)].state = BlockState::kFailed;
    throw;
  }
  lock.lock();
  stats_.direct_write_seconds += seconds_since(t0);
  ++stats_.blocks_written;
  stats_.bytes_written +=
      static_cast<std::int64_t>(count * sizeof(double));
  blocks_[static_cast<std::size_t>(id)].state = BlockState::kWritten;
  cv_.notify_all();
  return id;
}

void SpillStore::wait_written(std::unique_lock<std::mutex>& lock,
                              BlockId id) {
  const Block& block = blocks_[static_cast<std::size_t>(id)];
  if (block.state == BlockState::kQueued) {
    io_wait_begin_locked();
    cv_.wait(lock, [&] {
      return block.state != BlockState::kQueued || failure_ || stopping_;
    });
    io_wait_end_locked();
  }
  if (block.state != BlockState::kWritten) {
    if (failure_) std::rethrow_exception(failure_);
    throw SolverError(ErrorCode::kIoError,
                      "spill store: read of a failed or dropped block",
                      std::source_location::current(),
                      ErrorContext{.node = block.node,
                                   .input_line = -1,
                                   .detail = {}});
  }
}

void SpillStore::read(BlockId id, double* out, std::size_t count) {
  std::unique_lock<std::mutex> lock(mu_);
  check(count * sizeof(double) ==
            blocks_[static_cast<std::size_t>(id)].payload_bytes,
        "spill store: read size mismatch");
  wait_written(lock, id);
  Block& block = blocks_[static_cast<std::size_t>(id)];
  // A read-ahead of this block still queued is claimed; one running is
  // the fastest way to the bytes.
  if (block.prefetch == Prefetch::kQueued) block.prefetch = Prefetch::kNone;
  cv_.wait(lock, [&] { return block.prefetch == Prefetch::kNone; });
  if (auto it = read_ahead_.find(id); it != read_ahead_.end()) {
    const std::unique_ptr<double[]> payload = std::move(it->second);
    read_ahead_.erase(it);
    ++stats_.prefetch_hits;
    ++stats_.blocks_read;
    stats_.bytes_read += static_cast<std::int64_t>(count * sizeof(double));
    lock.unlock();
    std::memcpy(out, payload.get(), count * sizeof(double));
    return;
  }
  lock.unlock();
  const auto t0 = std::chrono::steady_clock::now();
  read_block_checked(id, out);
  lock.lock();
  stats_.read_seconds += seconds_since(t0);
  ++stats_.blocks_read;
  stats_.bytes_read += static_cast<std::int64_t>(count * sizeof(double));
}

std::vector<double> SpillStore::read(BlockId id) {
  std::vector<double> out(block_doubles(id));
  read(id, out.data(), out.size());
  return out;
}

void SpillStore::prefetch(BlockId id) {
  if (!write_behind_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (failure_ || stopping_) return;
  Block& block = blocks_[static_cast<std::size_t>(id)];
  if (block.state != BlockState::kWritten)
    return;  // still in flight: the demand read will wait for it anyway
  if (block.prefetch != Prefetch::kNone || read_ahead_.contains(id)) return;
  block.prefetch = Prefetch::kQueued;
  queue_.push_back(IoTask{id, {}, true});
  io_cv_.notify_one();
}

void SpillStore::drop(BlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  Block& block = blocks_[static_cast<std::size_t>(id)];
  if (block.state == BlockState::kQueued ||
      block.state == BlockState::kWritten)
    block.state = BlockState::kDropped;
  if (block.prefetch == Prefetch::kQueued) block.prefetch = Prefetch::kNone;
  read_ahead_.erase(id);
}

void SpillStore::discard(index_t file) {
  check(file >= 0 && static_cast<std::size_t>(file) < files_.size(),
        "spill store: file index out of range");
  const std::size_t f = static_cast<std::size_t>(file);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queued_writes_[f] > 0) {
      const auto t0 = std::chrono::steady_clock::now();
      io_wait_begin_locked();
      cv_.wait(lock, [&] { return failure_ || queued_writes_[f] == 0; });
      io_wait_end_locked();
      stats_.flush_wait_seconds += seconds_since(t0);
    }
    if (failure_) std::rethrow_exception(failure_);
    for (const Block& b : blocks_)
      check(b.file != file || (b.state != BlockState::kQueued &&
                               b.state != BlockState::kWritten),
            "spill store: discard of a file that holds a live block");
    next_offset_[f] = 0;
  }
  while (::ftruncate(files_[f], 0) != 0)
    if (errno != EINTR)
      throw SolverError(ErrorCode::kIoError,
                        "spill store: cannot truncate a discarded file",
                        std::source_location::current(),
                        io_context(kNone, paths_[f], 0,
                                   std::string("errno=") +
                                       std::strerror(errno)));
}

void SpillStore::flush() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queued_bytes_ > 0) {
      const auto t0 = std::chrono::steady_clock::now();
      io_wait_begin_locked();
      cv_.wait(lock, [&] { return failure_ || queued_bytes_ == 0; });
      io_wait_end_locked();
      stats_.flush_wait_seconds += seconds_since(t0);
    }
    if (failure_) std::rethrow_exception(failure_);
  }
  for (std::size_t f = 0; f < files_.size(); ++f) {
    auto backoff = kIoRetryBackoff;
    int attempt = 0;
    for (; attempt < kMaxIoAttempts; ++attempt) {
      const bool injected =
          MEMFRONT_FAULT("store.fsync", static_cast<std::int64_t>(f) *
                                                kMaxIoAttempts +
                                            attempt);
      if (!injected && ::fsync(files_[f]) == 0) break;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.io_retries;
      }
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    if (attempt == kMaxIoAttempts)
      throw SolverError(ErrorCode::kIoError,
                        "spill store: fsync failed after bounded retries",
                        std::source_location::current(),
                        io_context(kNone, paths_[f], 0, "fsync"));
  }
}

std::size_t SpillStore::block_doubles(BlockId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_[static_cast<std::size_t>(id)].payload_bytes /
         sizeof(double);
}

index_t SpillStore::block_node(BlockId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_[static_cast<std::size_t>(id)].node;
}

const std::string& SpillStore::file_path(index_t file) const {
  return paths_[static_cast<std::size_t>(file)];
}

SpillStoreStats SpillStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace memfront
