// The real spill store: block roundtrips in both I/O disciplines, the
// bounded write-behind buffer, landing callbacks, prefetch, the payload
// checksum, discarding dead files, and — the heart of the robustness
// contract — the torn-file corpus: every way a spill file can come back
// wrong (truncated, torn header, corrupted payload) surfaces as a
// structured kIoError carrying file/offset/node context, never a silent
// wrong answer.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "memfront/ooc/store.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/status.hpp"

namespace memfront {
namespace {

std::vector<double> make_block(std::size_t count, double start) {
  std::vector<double> v(count);
  std::iota(v.begin(), v.end(), start);
  return v;
}

TEST(SpillStore, WriteBehindRoundtrip) {
  SpillStoreOptions opt;
  opt.files = 2;
  SpillStore store(opt);
  const auto a = make_block(100, 1.0);
  const auto b = make_block(37, 500.0);
  const auto ida = store.append(0, 7, a);
  const auto idb = store.append(1, 9, b);
  EXPECT_EQ(store.block_doubles(ida), 100u);
  EXPECT_EQ(store.block_node(idb), 9);
  EXPECT_EQ(store.read(ida), a);
  EXPECT_EQ(store.read(idb), b);
  store.flush();
  const SpillStoreStats st = store.stats();
  EXPECT_EQ(st.blocks_written, 2);
  EXPECT_EQ(st.blocks_read, 2);
  EXPECT_EQ(st.bytes_written, static_cast<std::int64_t>(137 * sizeof(double)));
}

TEST(SpillStore, SynchronousRoundtrip) {
  SpillStoreOptions opt;
  opt.write_behind = false;
  SpillStore store(opt);
  const auto a = make_block(64, -3.0);
  const auto id = store.append(0, 3, a);
  EXPECT_EQ(store.read(id), a);
  store.flush();
  EXPECT_EQ(store.stats().blocks_written, 1);
}

TEST(SpillStore, WriteNowBypassesTheBuffer) {
  SpillStoreOptions opt;
  opt.buffer_bytes = 64;  // tiny: an 800-byte append would have to drain
  SpillStore store(opt);
  const auto a = make_block(100, 2.0);
  const auto id = store.write_now(0, 11, a.data(), a.size());
  EXPECT_EQ(store.read(id), a);
  const SpillStoreStats st = store.stats();
  EXPECT_EQ(st.blocks_written, 1);
  EXPECT_GT(st.direct_write_seconds, 0.0);
  EXPECT_EQ(st.buffer_high_water_bytes, 0);  // never touched the queue
}

TEST(SpillStore, BoundedBufferNeverExceedsTheCapAndOversizedDegrades) {
  SpillStoreOptions opt;
  opt.buffer_bytes = 2000;  // 250 doubles
  SpillStore store(opt);
  std::vector<SpillStore::BlockId> ids;
  std::vector<std::vector<double>> blocks;
  for (int i = 0; i < 16; ++i) {
    blocks.push_back(make_block(100, i * 1000.0));  // 800 B each
    ids.push_back(store.append(0, i, blocks.back()));
  }
  // One block larger than the whole cap: graceful degradation (drain,
  // then push), not a deadlock or a rejection.
  blocks.push_back(make_block(400, 1e6));  // 3200 B > cap
  ids.push_back(store.append(0, 99, blocks.back()));
  store.flush();
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(store.read(ids[i]), blocks[i]) << "block " << i;
  const SpillStoreStats st = store.stats();
  // In-flight bytes only ever exceed the cap for the oversized block,
  // which enters alone (queued_bytes_ == 0 at push).
  EXPECT_LE(st.buffer_high_water_bytes,
            std::max<std::int64_t>(2000, 3200));
}

TEST(SpillStore, LandingsFireForEveryAppend) {
  std::atomic<int> landings{0};
  std::atomic<std::int64_t> landed_bytes{0};
  std::atomic<bool> all_ok{true};
  SpillStoreOptions opt;
  SpillStore store(opt, [&](SpillStore::BlockId, index_t, std::size_t bytes,
                            bool ok) {
    ++landings;
    landed_bytes += static_cast<std::int64_t>(bytes);
    if (!ok) all_ok = false;
  });
  for (int i = 0; i < 8; ++i) store.append(0, i, make_block(50, i * 100.0));
  store.flush();
  store.set_landing({});  // barrier: no callback still in progress
  EXPECT_EQ(landings.load(), 8);
  EXPECT_EQ(landed_bytes.load(),
            static_cast<std::int64_t>(8 * 50 * sizeof(double)));
  EXPECT_TRUE(all_ok.load());
}

TEST(SpillStore, PrefetchTurnsTheDemandReadIntoAHit) {
  SpillStoreOptions opt;
  SpillStore store(opt);
  const auto a = make_block(200, 4.0);
  const auto id = store.append(0, 5, a);
  store.flush();
  store.prefetch(id);
  // The prefetch is asynchronous; read() waits for the cache or falls
  // back to a demand read — either way the bytes are right.
  EXPECT_EQ(store.read(id), a);
  store.prefetch(id);  // dropped from the cache by the read: re-warm
  EXPECT_EQ(store.read(id), a);
  EXPECT_GE(store.stats().prefetch_hits, 0);
}

TEST(SpillStore, ReadOfADroppedBlockIsAStructuredError) {
  SpillStoreOptions opt;
  SpillStore store(opt);
  const auto id = store.append(0, 2, make_block(10, 0.0));
  store.flush();
  store.drop(id);
  try {
    store.read(id);
    FAIL() << "read of a dropped block did not throw";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_EQ(e.context().node, 2);
  }
}

// ---- the payload checksum --------------------------------------------------

std::vector<double> distinct_block(std::size_t count) {
  std::vector<double> v(count);
  for (std::size_t i = 0; i < count; ++i)
    v[i] = 1.0 + 0.37 * static_cast<double>(i) -
           1e-3 * static_cast<double>(i * i);
  return v;
}

TEST(SpillChecksum, EverySingleBitFlipChangesIt) {
  // Lengths 0-9 put the last doubles in every lane and every remainder;
  // 1000 is a long block.
  std::vector<std::size_t> lengths(10);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(1000);
  for (std::size_t n : lengths) {
    std::vector<double> v = distinct_block(n);
    const std::uint64_t base = spill_checksum(v.data(), n);
    // The length is folded in: a prefix never collides with the block.
    if (n > 0) EXPECT_NE(spill_checksum(v.data(), n - 1), base) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      const double saved = v[i];
      for (int bit = 0; bit < 64; ++bit) {
        v[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(saved) ^
                                     (std::uint64_t{1} << bit));
        ASSERT_NE(spill_checksum(v.data(), n), base)
            << "n=" << n << " double " << i << " bit " << bit;
      }
      v[i] = saved;
    }
    EXPECT_EQ(spill_checksum(v.data(), n), base) << "n=" << n;
  }
}

TEST(SpillChecksum, SwappingNeighboursChangesIt) {
  for (std::size_t n : {2u, 3u, 4u, 5u, 8u, 9u, 1000u}) {
    std::vector<double> v = distinct_block(n);
    const std::uint64_t base = spill_checksum(v.data(), n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      std::swap(v[i], v[i + 1]);
      EXPECT_NE(spill_checksum(v.data(), n), base)
          << "n=" << n << " swap " << i << "," << i + 1;
      std::swap(v[i], v[i + 1]);
    }
  }
}

// ---- discarding dead files -------------------------------------------------

TEST(SpillStore, DiscardOfAFileWithALiveBlockIsAnInternalError) {
  SpillStoreOptions opt;
  opt.files = 2;
  SpillStore store(opt);
  const auto dead = store.append(0, 1, make_block(40, 1.0));
  const auto live = store.append(0, 2, make_block(40, 2.0));
  store.drop(dead);
  EXPECT_THROW(store.discard(0), InternalError);
  // The file is untouched: the live block still reads back.
  EXPECT_EQ(store.read(live), make_block(40, 2.0));
}

TEST(SpillStore, ABlockDroppedWhileQueuedStaysDead) {
  // The first landing holds the I/O thread, so the second block is
  // still queued when it is dropped.
  std::atomic<bool> release{false};
  std::atomic<int> landings{0};
  SpillStoreOptions opt;
  SpillStore store(opt, [&](SpillStore::BlockId, index_t, std::size_t,
                            bool) {
    if (landings++ == 0)
      while (!release) std::this_thread::yield();
  });
  const auto first = store.append(0, 1, make_block(20, 1.0));
  const auto queued = store.append(0, 2, make_block(20, 2.0));
  while (landings == 0) std::this_thread::yield();
  store.drop(queued);
  store.drop(first);
  release = true;
  store.discard(0);  // no live block: the queued one died with its drop
  store.set_landing({});  // barrier: no callback still in progress
  EXPECT_EQ(landings.load(), 2);
  EXPECT_EQ(store.stats().blocks_written, 1);  // its write was skipped
  EXPECT_THROW(store.read(queued), SolverError);
}

TEST(SpillStore, DiscardTruncatesTheFileAndSparesTheOthers) {
  SpillStoreOptions opt;
  opt.files = 3;
  SpillStore store(opt);
  const auto a = make_block(300, 1.0);
  const auto b = make_block(70, -5.0);
  const auto c = make_block(9, 42.0);
  std::vector<SpillStore::BlockId> cb_ids;
  for (int i = 0; i < 4; ++i) cb_ids.push_back(store.append(1, 10 + i, a));
  const auto kept0 = store.append(0, 20, b);
  const auto kept2 = store.write_now(2, 21, c.data(), c.size());
  // One block dies while its write may still be queued: it stays dead.
  for (SpillStore::BlockId id : cb_ids) store.drop(id);
  store.discard(1);
  EXPECT_EQ(std::filesystem::file_size(store.file_path(1)), 0u);
  EXPECT_THROW(store.read(cb_ids.back()), SolverError);
  EXPECT_EQ(store.read(kept0), b);
  EXPECT_EQ(store.read(kept2), c);
  // The discarded file starts over, and the final flush still fsyncs
  // every file.
  const auto again = store.append(1, 30, c);
  store.flush();
  EXPECT_EQ(store.read(again), c);
  EXPECT_EQ(std::filesystem::file_size(store.file_path(1)),
            sizeof(SpillBlockHeader) + c.size() * sizeof(double));
}

// ---- the torn-file corpus --------------------------------------------------
//
// Each case damages the on-disk bytes of a landed block in a different
// way and asserts the reload contract: a structured kIoError whose
// context names the file, the offset, and the owning node.

class TornFileCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    SpillStoreOptions opt;
    opt.remove_files = false;  // keep the file for corruption
    store_ = std::make_unique<SpillStore>(opt);
    payload_ = make_block(128, 7.0);
    id_ = store_->append(0, 42, payload_);
    store_->flush();
    path_ = store_->file_path(0);
    dir_ = store_->directory();
  }

  void TearDown() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void damage(off_t offset, unsigned char xor_mask) {
    const int fd = ::open(path_.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    unsigned char byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, offset), 1);
    byte ^= xor_mask;
    ASSERT_EQ(::pwrite(fd, &byte, 1, offset), 1);
    ::close(fd);
  }

  void expect_structured_reload_failure(const std::string& what) {
    try {
      store_->read(id_);
      FAIL() << what << ": reload did not throw";
    } catch (const SolverError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIoError) << what;
      EXPECT_EQ(e.context().node, 42) << what;
      EXPECT_NE(e.context().detail.find(path_), std::string::npos)
          << what << ": context does not name the file: "
          << e.context().detail;
      EXPECT_NE(e.context().detail.find("offset="), std::string::npos)
          << what << ": context does not carry the offset";
    }
  }

  std::unique_ptr<SpillStore> store_;
  std::vector<double> payload_;
  SpillStore::BlockId id_ = -1;
  std::string path_;
  std::string dir_;
};

TEST_F(TornFileCorpus, TruncatedFile) {
  ASSERT_EQ(::truncate(path_.c_str(), 64), 0);  // mid-payload EOF
  expect_structured_reload_failure("truncated");
}

TEST_F(TornFileCorpus, TruncatedToZero) {
  ASSERT_EQ(::truncate(path_.c_str(), 0), 0);
  expect_structured_reload_failure("empty file");
}

TEST_F(TornFileCorpus, TornHeaderMagic) {
  damage(0, 0xff);  // first byte of the magic
  expect_structured_reload_failure("bad magic");
}

TEST_F(TornFileCorpus, TornHeaderLength) {
  damage(static_cast<off_t>(offsetof(SpillBlockHeader, payload_bytes)), 0x01);
  expect_structured_reload_failure("torn length");
}

TEST_F(TornFileCorpus, CorruptedPayloadByte) {
  damage(static_cast<off_t>(sizeof(SpillBlockHeader) + 333), 0x5a);
  expect_structured_reload_failure("payload corruption");
}

TEST_F(TornFileCorpus, CorruptedChecksumField) {
  damage(static_cast<off_t>(offsetof(SpillBlockHeader, payload_check)), 0x10);
  expect_structured_reload_failure("torn checksum");
}

TEST_F(TornFileCorpus, UndamagedControlStillReads) {
  EXPECT_EQ(store_->read(id_), payload_);
}

// ---- fault-injection sites -------------------------------------------------

TEST(SpillStoreFaults, TransientWriteFailuresAreAbsorbedByTheRetry) {
  // Fault ids are node * 3 + attempt: firing attempt 0 only (ids that
  // are multiples of 3 with this seed's hash) leaves attempts 1-2 to
  // succeed, so the store must absorb the fault invisibly.
  int absorbed = 0;
  for (std::uint64_t seed = 0; seed < 16 && absorbed == 0; ++seed) {
    fault::ScopedPlan plan({.seed = seed,
                            .period = 0,
                            .overrides = {{"store.write", 3}}});
    SpillStoreOptions opt;
    opt.write_behind = false;
    SpillStore store(opt);
    const auto a = make_block(60, 1.0);
    try {
      const auto id = store.append(0, 4, a);
      EXPECT_EQ(store.read(id), a);
      if (store.stats().io_retries > 0) ++absorbed;
    } catch (const SolverError& e) {
      // This seed exhausted all three attempts — a legal (if unlucky)
      // schedule; keep probing for an absorbed one.
      EXPECT_EQ(e.code(), ErrorCode::kIoError);
    }
  }
  EXPECT_GT(absorbed, 0) << "no seed ever injected a transient write fault";
}

TEST(SpillStoreFaults, ExhaustedWriteRetriesSurfaceAsIoError) {
  fault::ScopedPlan plan({.seed = 1,
                          .period = 0,
                          .overrides = {{"store.write", 1}}});  // every attempt
  SpillStoreOptions opt;
  opt.write_behind = false;
  SpillStore store(opt);
  try {
    store.append(0, 4, make_block(60, 1.0));
    FAIL() << "exhausted retries did not throw";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_EQ(e.context().node, 4);
  }
  EXPECT_EQ(store.stats().io_retries, 3);
}

TEST(SpillStoreFaults, WriteBehindFailureSurfacesOnTheNextStoreCall) {
  fault::ScopedPlan plan({.seed = 1,
                          .period = 0,
                          .overrides = {{"store.write", 1}}});
  int landings_not_ok = 0;
  SpillStoreOptions opt;
  SpillStore store(opt, [&](SpillStore::BlockId, index_t, std::size_t,
                            bool ok) {
    if (!ok) ++landings_not_ok;
  });
  const auto id = store.append(0, 4, make_block(60, 1.0));
  // The landing must still fire (with ok=false) so budget charges
  // unwind, and the failure must surface on the next blocking call.
  EXPECT_THROW(store.read(id), SolverError);
  store.set_landing({});
  EXPECT_EQ(landings_not_ok, 1);
  EXPECT_THROW(store.rethrow_pending_error(), SolverError);
}

TEST(SpillStoreFaults, ShortWriteIsResumedNotAnError) {
  fault::ScopedPlan plan({.seed = 0,
                          .period = 0,
                          .overrides = {{"store.short_write", 1}}});
  SpillStoreOptions opt;
  opt.write_behind = false;
  SpillStore store(opt);
  const auto a = make_block(80, 9.0);
  const auto id = store.append(0, 6, a);
  EXPECT_EQ(store.read(id), a);  // the tear resumed mid-frame
}

TEST(SpillStoreFaults, ShortWriteInsideTheHeaderIsResumed) {
  // A 1-double frame is 56 bytes: the tear stops at byte 28, inside the
  // header, and the resumed write starts mid-header.
  static_assert(sizeof(SpillBlockHeader) > (sizeof(SpillBlockHeader) + 8) / 2);
  fault::ScopedPlan plan({.seed = 0,
                          .period = 0,
                          .overrides = {{"store.short_write", 1}}});
  for (bool write_behind : {false, true}) {
    SpillStoreOptions opt;
    opt.write_behind = write_behind;
    SpillStore store(opt);
    const std::vector<double> one{3.25};
    const auto id = store.append(0, 6, one);
    EXPECT_EQ(store.read(id), one) << "write_behind=" << write_behind;
  }
  EXPECT_GT(fault::Registry::global().injected_count(), 0);
}

TEST(SpillStoreFaults, EnospcIsImmediateNoRetries) {
  fault::ScopedPlan plan({.seed = 0,
                          .period = 0,
                          .overrides = {{"store.enospc", 1}}});
  SpillStoreOptions opt;
  opt.write_behind = false;
  SpillStore store(opt);
  try {
    store.append(0, 8, make_block(10, 0.0));
    FAIL() << "ENOSPC did not throw";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_NE(e.context().detail.find("ENOSPC"), std::string::npos);
  }
  EXPECT_EQ(store.stats().io_retries, 0);
}

TEST(SpillStoreFaults, TornReadIsCaughtByTheChecksumAndRetried) {
  SpillStoreOptions opt;
  opt.write_behind = false;
  SpillStore store(opt);
  const auto a = make_block(90, 3.0);
  const auto id = store.append(0, 5, a);
  {
    // Fire attempt 0 of the torn read only: the re-read comes back
    // clean and the caller never sees the corruption.
    fault::ScopedPlan plan({.seed = 0,
                            .period = 0,
                            .overrides = {{"store.torn_read", 3}}});
    EXPECT_EQ(store.read(id), a);
  }
  {
    // Every attempt torn: bounded retries exhaust into a structured
    // error naming the checksum mismatch.
    fault::ScopedPlan plan({.seed = 0,
                            .period = 0,
                            .overrides = {{"store.torn_read", 1}}});
    try {
      store.read(id);
      FAIL() << "persistent torn read did not throw";
    } catch (const SolverError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kIoError);
      EXPECT_NE(e.context().detail.find("checksum"), std::string::npos);
    }
  }
  // The store is not poisoned: the next read is clean.
  EXPECT_EQ(store.read(id), a);
}

TEST(SpillStoreFaults, FsyncRetriesThenSurfaces) {
  {
    fault::ScopedPlan plan({.seed = 0,
                            .period = 0,
                            .overrides = {{"store.fsync", 3}}});
    SpillStoreOptions opt;
    SpillStore store(opt);
    store.append(0, 1, make_block(10, 0.0));
    store.flush();  // absorbed within the bounded attempts
  }
  {
    fault::ScopedPlan plan({.seed = 0,
                            .period = 0,
                            .overrides = {{"store.fsync", 1}}});
    SpillStoreOptions opt;
    SpillStore store(opt);
    store.append(0, 1, make_block(10, 0.0));
    EXPECT_THROW(store.flush(), SolverError);
  }
}

}  // namespace
}  // namespace memfront
