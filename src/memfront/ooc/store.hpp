// Real spill storage of the out-of-core execution mode.
//
// A SpillStore owns a set of append-only spill files (the coordinator
// opens two per worker, one per block lifetime: write streams never
// seek, mirroring the simulator's per-processor disk channels) and moves
// blocks of doubles between RAM and disk. Every block carries a
// checksummed header, so a truncated or corrupted file is detected on
// reload and surfaces as a structured kIoError with file/offset/node
// context — never a silent wrong answer.
//
// Two I/O disciplines (OocExecConfig::write_behind), the simulator's
// synchronous and write-behind modes:
//
//  * synchronous — append() writes on the calling thread and returns
//    after the block is on disk;
//  * write-behind — append() hands the block to a background I/O
//    thread through a bounded in-flight buffer and returns immediately;
//    the caller stalls only when the buffer is full (an oversized block
//    degrades gracefully: drain everything, then push — the same rule
//    OocEngine::buffer_push applies). Each landing fires a callback so
//    the budget coordinator can release the block's memory charge.
//
// Blocks move without intermediate copies: a write is one pwritev of
// the header and the caller's payload, a read one preadv of the header
// and the caller's destination, and the checksums are verified in
// place. Reads wait for the block's write to land (positional, so they
// never contend with the append stream's offsets); prefetch() warms an
// internal read-ahead cache from the same I/O thread, and a hit costs
// one memcpy. A file whose blocks are all dead can be discard()ed:
// truncated to 0 bytes, so its dirty pages are never written back.
//
// Fault sites (deterministic ids = the block's tree node):
//   store.write       transient write failure, bounded-retry absorbed
//   store.short_write first pwritev stops at half the frame (resumed)
//   store.enospc      hard out-of-space, no retry
//   store.read        transient read failure, bounded-retry absorbed
//   store.torn_read   payload corrupted in transit (checksum catches)
//   store.fsync       transient fsync failure, bounded-retry absorbed
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "memfront/support/types.hpp"

namespace memfront {

/// On-disk framing of one spilled block. The header itself is
/// checksummed (header_check) so a torn header is distinguishable from
/// a torn payload; payload_check covers the raw bytes of the doubles.
/// Version 2: payload_check is the four-lane spill_checksum.
struct SpillBlockHeader {
  static constexpr std::uint32_t kMagic = 0x4253464DU;  // "MFSB"
  static constexpr std::uint32_t kVersion = 2;

  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::int64_t node = kNone;          // owning tree node (diagnostics)
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_check = 0;
  std::uint64_t header_check = 0;     // over all fields above

  std::uint64_t compute_header_check() const;
};

/// Payload checksum: four interleaved hash_mix chains (double k feeds
/// chain k % 4) folded with the count. Every step is a bijection of the
/// chain state, so changing any one double always changes the result.
std::uint64_t spill_checksum(const double* data, std::size_t count);

struct SpillStoreOptions {
  /// Directory for the spill files; "" resolves MEMFRONT_SPILL_DIR and
  /// falls back to the system temp directory. A unique per-store
  /// subdirectory is always created inside it.
  std::string dir;
  /// Number of spill files (the coordinator opens two per worker).
  index_t files = 1;
  /// Write-behind: bound on the in-flight (queued, not yet landed)
  /// bytes. 0 = unbounded.
  std::size_t buffer_bytes = 0;
  /// false = synchronous appends on the calling thread (no I/O thread).
  bool write_behind = true;
  /// Unlink the spill files and their directory on destruction.
  bool remove_files = true;
};

struct SpillStoreStats {
  std::int64_t blocks_written = 0;
  std::int64_t blocks_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t bytes_read = 0;
  std::int64_t prefetch_hits = 0;
  std::int64_t io_retries = 0;
  std::int64_t buffer_high_water_bytes = 0;
  double write_busy_seconds = 0;   // I/O-thread (or sync append) pwrite time
  double direct_write_seconds = 0; // write_now() time on the caller
  double read_seconds = 0;         // blocking pread time on callers
  double append_stall_seconds = 0; // callers blocked on a full buffer
  double flush_wait_seconds = 0;   // flush()/discard() queue-drain waits
  /// Of write_busy_seconds, the wall seconds during which at least one
  /// caller waited for queued writes to land (full-buffer appends, reads
  /// of unlanded blocks, the final drains, and the waits marked by
  /// io_wait_begin/io_wait_end): the background writing nobody hid.
  double waited_write_seconds = 0;
};

class SpillStore {
 public:
  using BlockId = std::int64_t;
  /// Landing notification: the block's write finished (ok) or the I/O
  /// thread failed it (ok == false; the error is rethrown by the next
  /// store call). Invoked with no store lock held.
  using LandingFn =
      std::function<void(BlockId, index_t node, std::size_t bytes, bool ok)>;

  explicit SpillStore(const SpillStoreOptions& options,
                      LandingFn on_landing = {});
  ~SpillStore();
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Queues `data` for writing to file `file` and returns its id. In
  /// write-behind mode this blocks only while the in-flight buffer is
  /// full; in synchronous mode it blocks until the block is on disk.
  BlockId append(index_t file, index_t node, std::vector<double> data);

  /// Writes `count` doubles at `data` synchronously (even in
  /// write-behind mode) without copying or charging the in-flight
  /// buffer — the path factor panels too large for the buffer take.
  BlockId write_now(index_t file, index_t node, const double* data,
                    std::size_t count);

  /// Reads the block back into `out` (exactly block_doubles(id) long),
  /// waiting for its write to land first. Structured kIoError on a
  /// truncated file, bad magic, or checksum mismatch.
  void read(BlockId id, double* out, std::size_t count);
  std::vector<double> read(BlockId id);

  /// Queues a background read of `id` into the read-ahead cache (a hit
  /// makes the following read() a memcpy; a read() that comes first
  /// cancels it). No-op in synchronous mode.
  void prefetch(BlockId id);

  /// Forgets a block: the id dies at once, even while its write is
  /// still queued (the landing still fires; a write not yet started is
  /// skipped). Its bytes stay in the file until discard().
  void drop(BlockId id);

  /// Retires file `file`: waits for its queued writes, checks that
  /// every block in it was dropped (InternalError otherwise), and
  /// truncates it to 0 bytes, so its dirty pages are discarded instead
  /// of written back. Later appends start the file over.
  void discard(index_t file);

  /// Waits until every queued write has landed, then fsyncs the files.
  void flush();

  /// Bracket a wait for queued writes that happens outside the store
  /// (the coordinator's admission wait), so waited_write_seconds covers
  /// it. Non-blocking; safe under the caller's own locks.
  void io_wait_begin();
  void io_wait_end();

  std::size_t block_doubles(BlockId id) const;
  index_t block_node(BlockId id) const;
  index_t num_files() const { return static_cast<index_t>(files_.size()); }
  const std::string& file_path(index_t file) const;
  const std::string& directory() const { return dir_; }

  /// Replaces the landing callback; returns after any in-progress
  /// callback has finished, so passing {} guarantees no further calls.
  void set_landing(LandingFn fn);

  /// Rethrows a pending I/O-thread failure, if any.
  void rethrow_pending_error();

  SpillStoreStats stats() const;

 private:
  enum class BlockState : unsigned char { kQueued, kWritten, kFailed,
                                          kDropped };
  /// A block's read-ahead: none, queued on the I/O thread, or being
  /// read by it. A demand read claims a queued one (the I/O thread then
  /// skips it) and waits for a running one, so no block is read twice
  /// and no read-ahead outlives its demand read.
  enum class Prefetch : unsigned char { kNone, kQueued, kRunning };
  struct Block {
    index_t file = 0;
    index_t node = kNone;
    std::uint64_t offset = 0;
    std::uint64_t payload_bytes = 0;
    BlockState state = BlockState::kQueued;
    Prefetch prefetch = Prefetch::kNone;
  };
  struct IoTask {
    BlockId id = -1;
    std::vector<double> data;
    bool is_prefetch = false;
  };

  void io_thread_loop();
  void write_block_checked(const Block& block, const double* data,
                           std::size_t count);
  void read_block_checked(BlockId id, double* out);
  BlockId reserve_block_locked(index_t file, index_t node,
                               std::size_t count);
  void land_locked(std::unique_lock<std::mutex>& lock, BlockId id,
                   std::size_t bytes, bool ok);
  void wait_written(std::unique_lock<std::mutex>& lock, BlockId id);
  void io_wait_begin_locked();
  void io_wait_end_locked();
  void tick_io_clock_locked();

  std::string dir_;
  std::vector<std::string> paths_;
  std::vector<int> files_;  // POSIX fds
  bool write_behind_ = false;
  bool remove_files_ = true;
  std::size_t buffer_cap_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // landings, buffer space, flush
  std::condition_variable io_cv_;     // wakes the I/O thread
  std::deque<Block> blocks_;
  std::vector<std::uint64_t> next_offset_;  // per-file append position
  std::deque<IoTask> queue_;
  std::unordered_map<BlockId, std::unique_ptr<double[]>> read_ahead_;
  std::size_t queued_bytes_ = 0;
  std::vector<std::size_t> queued_writes_;  // per file: appended, unlanded
  int io_waiters_ = 0;                      // callers waiting for landings
  bool writing_ = false;                    // the I/O thread is writing
  std::chrono::steady_clock::time_point io_clock_;  // last change of either
  bool stopping_ = false;
  int callbacks_in_progress_ = 0;
  std::exception_ptr failure_;
  LandingFn landing_;
  SpillStoreStats stats_;
  std::thread io_thread_;
};

}  // namespace memfront
