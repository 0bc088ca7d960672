#include "memfront/core/prepared_cache.hpp"

#include <chrono>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "memfront/obs/span_tracer.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/hash.hpp"
#include "memfront/support/parallel_for.hpp"

namespace memfront {
namespace {

struct AnalysisKey {
  std::uint64_t fingerprint = 0;
  AnalysisOptions options;

  friend bool operator==(const AnalysisKey&, const AnalysisKey&) = default;

  std::uint64_t hash() const {
    std::uint64_t h = hash_mix(0x243f6a8885a308d3ULL, fingerprint);
    h = hash_mix(h, static_cast<std::uint64_t>(options.ordering));
    h = hash_mix(h, static_cast<std::uint64_t>(options.symmetric));
    h = hash_mix(h, static_cast<std::uint64_t>(options.liu_reorder));
    h = hash_mix(h, static_cast<std::uint64_t>(options.want_structure));
    h = hash_mix(h, static_cast<std::uint64_t>(options.split_master_threshold));
    h = hash_mix(h, options.split_relative);
    h = hash_mix(h, static_cast<std::uint64_t>(options.split_min_npiv));
    h = hash_mix(h, static_cast<std::uint64_t>(options.symbolic.symmetric));
    h = hash_mix(h, static_cast<std::uint64_t>(options.symbolic.small_npiv));
    h = hash_mix(h, options.symbolic.fill_ratio_small);
    h = hash_mix(h, options.symbolic.fill_ratio);
    h = hash_mix(h, options.seed);
    return h;
  }
};

struct MappingKey {
  AnalysisKey analysis;
  MappingOptions options;

  friend bool operator==(const MappingKey&, const MappingKey&) = default;

  std::uint64_t hash() const {
    std::uint64_t h =
        hash_mix(analysis.hash(), static_cast<std::uint64_t>(0x13198a2e03707344ULL));
    h = hash_mix(h, static_cast<std::uint64_t>(options.nprocs));
    h = hash_mix(h, static_cast<std::uint64_t>(options.type2_min_front));
    h = hash_mix(h, static_cast<std::uint64_t>(options.type3_min_front));
    h = hash_mix(h, static_cast<std::uint64_t>(options.enable_type2));
    h = hash_mix(h, static_cast<std::uint64_t>(options.enable_type3));
    h = hash_mix(h, options.subtree_options.balance_factor);
    h = hash_mix(h, options.subtree_options.memory_balance_factor);
    return h;
  }
};

/// Planner memo key: the static mapping key plus every SchedConfig field
/// the budgeted simulations consume. setup.ooc.budget / .enabled are
/// deliberately absent — plan_minimum_budget overrides them per probe.
struct PlannerKey {
  MappingKey mapping;
  MachineParams machine;
  SlaveStrategy slave_strategy = SlaveStrategy::kWorkload;
  TaskStrategy task_strategy = TaskStrategy::kLifo;
  bool subtree_broadcast = true;
  bool master_prediction = true;
  index_t max_slaves = 0;
  index_t min_rows_per_slave = 0;
  DiskParams disk;
  SpillPolicy spill_policy = SpillPolicy::kLargestFirst;
  bool spill_penalty = false;
  count_t spill_penalty_weight = 0;
  OocIoMode io_mode = OocIoMode::kAdmissionDrain;
  count_t write_buffer_entries = 0;
  PlannerOptions planner_options;

  friend bool operator==(const PlannerKey&, const PlannerKey&) = default;

  std::uint64_t hash() const {
    std::uint64_t h =
        hash_mix(mapping.hash(), static_cast<std::uint64_t>(0xa4093822299f31d0ULL));
    h = hash_mix(h, static_cast<std::uint64_t>(machine.nprocs));
    h = hash_mix(h, machine.flop_rate);
    h = hash_mix(h, machine.latency);
    h = hash_mix(h, machine.bandwidth);
    h = hash_mix(h, machine.assemble_rate);
    h = hash_mix(h, machine.info_delay);
    h = hash_mix(h, static_cast<std::uint64_t>(slave_strategy));
    h = hash_mix(h, static_cast<std::uint64_t>(task_strategy));
    h = hash_mix(h, static_cast<std::uint64_t>(subtree_broadcast));
    h = hash_mix(h, static_cast<std::uint64_t>(master_prediction));
    h = hash_mix(h, static_cast<std::uint64_t>(max_slaves));
    h = hash_mix(h, static_cast<std::uint64_t>(min_rows_per_slave));
    h = hash_mix(h, disk.write_bandwidth);
    h = hash_mix(h, disk.read_bandwidth);
    h = hash_mix(h, disk.seek_latency);
    h = hash_mix(h, static_cast<std::uint64_t>(disk.shared));
    h = hash_mix(h, static_cast<std::uint64_t>(spill_policy));
    h = hash_mix(h, static_cast<std::uint64_t>(spill_penalty));
    h = hash_mix(h, static_cast<std::uint64_t>(spill_penalty_weight));
    h = hash_mix(h, static_cast<std::uint64_t>(io_mode));
    h = hash_mix(h, static_cast<std::uint64_t>(write_buffer_entries));
    h = hash_mix(h, static_cast<std::uint64_t>(planner_options.curve_points));
    return h;
  }
};

/// Factorization memo key: the analysis key plus the numeric knobs and
/// the solve graph's mapping knobs. The solve *worker count* is absent
/// on purpose: the sweep's result bits and its task graph are
/// worker-independent, so one handle serves any thread count.
struct FactorKey {
  AnalysisKey analysis;
  NumericOptions numeric;
  index_t nprocs = 0;  // resolved solve-graph mapping width
  SubtreeOptions subtree_options;

  friend bool operator==(const FactorKey&, const FactorKey&) = default;

  std::uint64_t hash() const {
    std::uint64_t h = hash_mix(analysis.hash(),
                               static_cast<std::uint64_t>(0x082efa98ec4e6c89ULL));
    h = hash_mix(h, static_cast<std::uint64_t>(numeric.kernel));
    h = hash_mix(h, static_cast<std::uint64_t>(numeric.ooc.enabled));
    h = hash_mix(h, static_cast<std::uint64_t>(numeric.ooc.budget_doubles));
    h = hash_mix(h, static_cast<std::uint64_t>(numeric.ooc.write_behind));
    h = hash_mix(h, static_cast<std::uint64_t>(numeric.ooc.spill_factors));
    h = hash_mix(h, static_cast<std::uint64_t>(nprocs));
    h = hash_mix(h, subtree_options.balance_factor);
    h = hash_mix(h, subtree_options.memory_balance_factor);
    return h;
  }
};

PlannerKey make_planner_key(const MappingKey& mapping,
                            const SchedConfig& config,
                            const PlannerOptions& options) {
  PlannerKey key;
  key.mapping = mapping;
  key.machine = config.machine;
  key.slave_strategy = config.slave_strategy;
  key.task_strategy = config.task_strategy;
  key.subtree_broadcast = config.subtree_broadcast;
  key.master_prediction = config.master_prediction;
  key.max_slaves = config.max_slaves;
  key.min_rows_per_slave = config.min_rows_per_slave;
  key.disk = config.ooc.disk;
  key.spill_policy = config.ooc.spill_policy;
  key.spill_penalty = config.ooc.spill_penalty;
  key.spill_penalty_weight = config.ooc.spill_penalty_weight;
  key.io_mode = config.ooc.io_mode;
  key.write_buffer_entries = config.ooc.write_buffer_entries;
  key.planner_options = options;
  return key;
}

template <typename Key>
struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return static_cast<std::size_t>(k.hash());
  }
};

/// One memo slot. The slot pointer is stable (map values are
/// shared_ptr), so call_once can run outside the map lock; a computation
/// that throws resets the flag and the next waiter retries.
template <typename T>
struct Entry {
  std::once_flag once;
  std::shared_ptr<const T> value;
};

/// Analysis slots additionally carry the LRU bookkeeping (all fields
/// below `value` are guarded by the cache's map mutex).
struct AnalysisEntry {
  std::once_flag once;
  std::shared_ptr<const Analysis> value;
  bool resident = false;
  std::size_t bytes = 0;
  std::list<AnalysisKey>::iterator lru_it{};
};

}  // namespace

struct PreparedCache::Impl {
  mutable std::mutex map_mutex;
  std::unordered_map<AnalysisKey, std::shared_ptr<AnalysisEntry>,
                     KeyHash<AnalysisKey>>
      analyses;
  std::unordered_map<MappingKey, std::shared_ptr<Entry<PreparedExperiment>>,
                     KeyHash<MappingKey>>
      mappings;
  std::unordered_map<PlannerKey, std::shared_ptr<Entry<PlannerResult>>,
                     KeyHash<PlannerKey>>
      planners;
  std::unordered_map<FactorKey, std::shared_ptr<Entry<FactorizationHandle>>,
                     KeyHash<FactorKey>>
      factorizations;

  // LRU over *resident* analysis entries, most recent first; `retained`
  // sums their Analysis::memory_bytes(). All guarded by map_mutex.
  std::list<AnalysisKey> lru;
  std::size_t retained = 0;
  std::size_t capacity = 0;  // 0 = unbounded

  mutable std::mutex stats_mutex;
  PreparedCacheStats stats;

  /// Finds or inserts the entry for `key`; counts a hit or a miss.
  template <typename Map, typename Key>
  auto slot(Map& map, const Key& key, std::uint64_t PreparedCacheStats::*hit,
            std::uint64_t PreparedCacheStats::*miss) {
    typename Map::mapped_type entry;
    bool inserted = false;
    {
      std::lock_guard<std::mutex> lock(map_mutex);
      auto [it, fresh] = map.try_emplace(key);
      if (fresh)
        it->second =
            std::make_shared<typename Map::mapped_type::element_type>();
      entry = it->second;
      inserted = fresh;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      ++(stats.*(inserted ? miss : hit));
    }
    return entry;
  }

  /// Drops LRU analyses (and their dependent mappings) until the byte
  /// bound holds; never drops the most recently touched entry, so a
  /// single oversized analysis still caches. Caller holds map_mutex.
  void evict_locked() {
    std::uint64_t evicted = 0;
    while (capacity > 0 && retained > capacity && lru.size() > 1) {
      const AnalysisKey victim = std::move(lru.back());
      lru.pop_back();
      auto it = analyses.find(victim);
      if (it != analyses.end()) {
        retained -= it->second->bytes;
        analyses.erase(it);
      }
      for (auto mit = mappings.begin(); mit != mappings.end();) {
        if (mit->first.analysis == victim)
          mit = mappings.erase(mit);
        else
          ++mit;
      }
      for (auto fit = factorizations.begin(); fit != factorizations.end();) {
        if (fit->first.analysis == victim)
          fit = factorizations.erase(fit);
        else
          ++fit;
      }
      ++evicted;
    }
    if (evicted > 0) {
      MEMFRONT_INSTANT("cache_evict", static_cast<std::int64_t>(evicted));
      std::lock_guard<std::mutex> lock(stats_mutex);
      stats.evictions += evicted;
    }
  }

  /// Marks a freshly computed analysis resident (accounting its bytes) or
  /// refreshes an already resident one, then enforces the bound. The
  /// entry identity is re-checked: a concurrent eviction may have
  /// orphaned it, in which case it is left untracked.
  void note_analysis_use(const AnalysisKey& key,
                         const std::shared_ptr<AnalysisEntry>& entry) {
    std::lock_guard<std::mutex> lock(map_mutex);
    auto it = analyses.find(key);
    if (it == analyses.end() || it->second != entry) return;
    if (entry->resident) {
      lru.splice(lru.begin(), lru, entry->lru_it);
    } else {
      entry->bytes = entry->value->memory_bytes();
      entry->resident = true;
      lru.push_front(key);
      entry->lru_it = lru.begin();
      retained += entry->bytes;
    }
    evict_locked();
  }

  /// Refreshes the analysis LRU position on mapping-level hits, so a hot
  /// mapping keeps its analysis from aging out under it.
  void touch_analysis(const AnalysisKey& key) {
    std::lock_guard<std::mutex> lock(map_mutex);
    auto it = analyses.find(key);
    if (it != analyses.end() && it->second->resident)
      lru.splice(lru.begin(), lru, it->second->lru_it);
  }

  std::shared_ptr<const Analysis> analysis_for(const CscMatrix& matrix,
                                               const AnalysisKey& key) {
    auto entry = slot(analyses, key, &PreparedCacheStats::analysis_hits,
                      &PreparedCacheStats::analysis_misses);
    std::call_once(entry->once, [&] {
      MEMFRONT_SPAN("cache_analysis_miss");
      auto result = std::make_shared<Analysis>(analyze(matrix, key.options));
      std::lock_guard<std::mutex> lock(stats_mutex);
      ++stats.recomputes;
      stats.ordering_seconds += result->timings.ordering_s;
      stats.symbolic_seconds += result->timings.symbolic_s;
      stats.splitting_seconds += result->timings.splitting_s;
      stats.finalize_seconds += result->timings.finalize_s;
      stats.analysis_seconds += result->timings.total_s;
      entry->value = std::move(result);
    });
    note_analysis_use(key, entry);
    return entry->value;
  }
};

PreparedCache::PreparedCache() : impl_(std::make_unique<Impl>()) {}
PreparedCache::~PreparedCache() = default;

std::shared_ptr<const Analysis> PreparedCache::analysis(
    const CscMatrix& matrix, const AnalysisOptions& options) {
  return impl_->analysis_for(matrix, {matrix.fingerprint(), options});
}

std::shared_ptr<const PreparedExperiment> PreparedCache::prepared(
    const CscMatrix& matrix, const ExperimentSetup& setup) {
  const MappingKey key{{matrix.fingerprint(), analysis_options(setup)},
                       mapping_options(setup)};
  auto entry = impl_->slot(impl_->mappings, key,
                           &PreparedCacheStats::mapping_hits,
                           &PreparedCacheStats::mapping_misses);
  std::call_once(entry->once, [&] {
    MEMFRONT_SPAN("cache_mapping_miss");
    auto prepared = std::make_shared<PreparedExperiment>(
        make_prepared(impl_->analysis_for(matrix, key.analysis), key.options));
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ++impl_->stats.recomputes;
    impl_->stats.mapping_seconds += prepared->mapping_seconds;
    entry->value = std::move(prepared);
  });
  impl_->touch_analysis(key.analysis);
  return entry->value;
}

std::shared_ptr<const PlannerResult> PreparedCache::planner(
    const CscMatrix& matrix, const ExperimentSetup& setup,
    const PlannerOptions& options) {
  const MappingKey mapping_key{{matrix.fingerprint(), analysis_options(setup)},
                               mapping_options(setup)};
  const SchedConfig config = sched_config(setup);
  const PlannerKey key = make_planner_key(mapping_key, config, options);
  auto entry = impl_->slot(impl_->planners, key,
                           &PreparedCacheStats::planner_hits,
                           &PreparedCacheStats::planner_misses);
  std::call_once(entry->once, [&] {
    MEMFRONT_SPAN("cache_planner_miss");
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    const std::shared_ptr<const PreparedExperiment> prep =
        prepared(matrix, setup);
    auto result = std::make_shared<PlannerResult>(plan_minimum_budget(
        prep->analysis->tree, prep->analysis->memory, prep->mapping,
        prep->analysis->traversal, config, options));
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ++impl_->stats.recomputes;
    impl_->stats.planner_seconds += seconds;
    entry->value = std::move(result);
  });
  return entry->value;
}

std::shared_ptr<const FactorizationHandle> PreparedCache::factorization(
    const CscMatrix& matrix, const AnalysisOptions& analysis_options,
    const NumericOptions& numeric_options, const SolveOptions& solve_options) {
  check(analysis_options.want_structure,
        "PreparedCache::factorization: analysis options must keep "
        "want_structure (the numeric solver needs frontal structures)");
  FactorKey key;
  key.analysis = {matrix.fingerprint(), analysis_options};
  key.numeric = numeric_options;
  key.nprocs =
      solve_options.nprocs > 0
          ? solve_options.nprocs
          : static_cast<index_t>(solve_options.nthreads > 0
                                     ? solve_options.nthreads
                                     : default_thread_count());
  key.subtree_options = solve_options.subtree_options;
  auto entry = impl_->slot(impl_->factorizations, key,
                           &PreparedCacheStats::factorization_hits,
                           &PreparedCacheStats::factorization_misses);
  std::call_once(entry->once, [&] {
    MEMFRONT_SPAN("cache_factor_miss");
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    auto handle = std::make_shared<FactorizationHandle>();
    handle->analysis = impl_->analysis_for(matrix, key.analysis);
    handle->factorization =
        numeric_factorize(*handle->analysis, numeric_options);
    SolveOptions graph_options = solve_options;
    graph_options.nprocs = key.nprocs;
    handle->solve_graph = build_solve_graph(*handle->analysis, graph_options);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ++impl_->stats.recomputes;
    impl_->stats.factor_seconds += seconds;
    entry->value = std::move(handle);
  });
  impl_->touch_analysis(key.analysis);
  return entry->value;
}

PreparedCacheStats PreparedCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->stats;
}

void PreparedCache::reset_stats() {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  impl_->stats = {};
}

void PreparedCache::set_capacity_bytes(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(impl_->map_mutex);
  impl_->capacity = bytes;
  impl_->evict_locked();
}

std::size_t PreparedCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->map_mutex);
  return impl_->capacity;
}

std::size_t PreparedCache::retained_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->map_mutex);
  return impl_->retained;
}

void PreparedCache::clear() {
  std::lock_guard<std::mutex> lock(impl_->map_mutex);
  impl_->analyses.clear();
  impl_->mappings.clear();
  impl_->planners.clear();
  impl_->factorizations.clear();
  impl_->lru.clear();
  impl_->retained = 0;
}

std::size_t PreparedCache::analysis_entries() const {
  std::lock_guard<std::mutex> lock(impl_->map_mutex);
  return impl_->analyses.size();
}

std::size_t PreparedCache::mapping_entries() const {
  std::lock_guard<std::mutex> lock(impl_->map_mutex);
  return impl_->mappings.size();
}

std::size_t PreparedCache::planner_entries() const {
  std::lock_guard<std::mutex> lock(impl_->map_mutex);
  return impl_->planners.size();
}

std::size_t PreparedCache::factorization_entries() const {
  std::lock_guard<std::mutex> lock(impl_->map_mutex);
  return impl_->factorizations.size();
}

PreparedCache& PreparedCache::global() {
  static PreparedCache cache;
  return cache;
}

}  // namespace memfront
