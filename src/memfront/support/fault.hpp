// Deterministic, seed-driven fault injection.
//
// Named injection sites sit on the failure-prone paths (CB
// allocation, front assembly, worker tasks, OOC disk ops, matrix-file
// reads). A site fires when the armed plan's hash of (seed, site, id)
// lands on the site's period — so *which* calls fail is a pure function
// of the seed and the call's stable id, independent of thread
// interleaving. Call sites with a natural stable id (tree node, subtree
// root) pass it; sites without one draw from a per-site counter, which
// is deterministic wherever the site runs single-threaded (the
// simulator, file parsing).
//
// Cost discipline (the obs macro rules): MEMFRONT_FAULT costs one
// relaxed atomic load while disarmed (the default). The chaos harness
// and the fault tests arm a plan around the calls they probe and disarm
// after.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace memfront::fault {

/// The armed schedule: a seed plus a default firing period (a site call
/// fires when hash(seed, site, id) % period == 0; period 1 fires every
/// call, 0 never), with optional per-site period overrides.
struct Plan {
  std::uint64_t seed = 0;
  std::uint32_t period = 0;  // 0 = no site fires unless overridden

  struct SiteOverride {
    std::string site;
    std::uint32_t period = 0;
  };
  std::vector<SiteOverride> overrides;
};

class Registry {
 public:
  static Registry& global();

  /// The cheap gate the MEMFRONT_FAULT macro checks first.
  static bool armed() noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Installs `plan` and starts firing. Resets the per-site counters so
  /// equal seeds replay equal schedules.
  void arm(const Plan& plan);
  /// Stops firing (every site goes back to one relaxed load).
  void disarm();

  /// Decides whether the call identified by (site, id) fails under the
  /// armed plan. Sites without a stable id pass kAutoId to draw one from
  /// the site's counter. Fires are counted in injected_count() and the
  /// obs `fault.injected_count` metric.
  static constexpr std::int64_t kAutoId = -1;
  bool should_fire(const char* site, std::int64_t id = kAutoId);

  /// Total injected faults since the last arm().
  std::int64_t injected_count() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct SiteState {
    std::string name;
    std::uint32_t period = 0;
    std::atomic<std::int64_t> next_auto_id{0};
  };
  SiteState& site_state(const char* site);

  static std::atomic<bool> armed_;
  mutable std::mutex mutex_;          // guards sites_ growth and plan swap
  std::vector<std::unique_ptr<SiteState>> sites_;
  Plan plan_;
  std::atomic<std::int64_t> injected_{0};
};

/// RAII arm/disarm for tests: arms on construction, disarms on scope
/// exit (also when the probed call throws).
class ScopedPlan {
 public:
  explicit ScopedPlan(const Plan& plan) { Registry::global().arm(plan); }
  ~ScopedPlan() { Registry::global().disarm(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

}  // namespace memfront::fault

// True when the call identified by (site[, id]) must fail under the
// armed fault plan.
#define MEMFRONT_FAULT(...)                 \
  (::memfront::fault::Registry::armed() &&  \
   ::memfront::fault::Registry::global().should_fire(__VA_ARGS__))
