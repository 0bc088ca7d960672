// The scheduling engine consults its SchedulerPolicy at every decision
// point — asserted here with counting/forcing mocks plugged straight
// into the Engine, plus equivalence and name checks for the concrete
// policies make_policy builds.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "memfront/core/engine.hpp"
#include "memfront/core/experiment.hpp"
#include "memfront/core/policy.hpp"
#include "memfront/sparse/problems.hpp"

namespace memfront {
namespace {

struct Instance {
  PreparedExperiment prepared;
  SchedConfig config;
};

Instance make_instance(index_t nprocs, bool memory_strategy) {
  const Problem p = make_problem(ProblemId::kTwotone, 0.25);
  ExperimentSetup setup;
  setup.nprocs = nprocs;
  setup.symmetric = p.symmetric;
  setup.ordering = OrderingKind::kNestedDissection;
  if (memory_strategy) {
    setup.slave_strategy = SlaveStrategy::kMemoryImproved;
    setup.task_strategy = TaskStrategy::kMemoryAware;
  }
  return {prepare_experiment(p.matrix, setup), sched_config(setup)};
}

ParallelResult run_with(const Instance& inst, SchedulerPolicy* policy) {
  Engine engine(inst.prepared.analysis->tree, inst.prepared.mapping,
                inst.prepared.analysis->traversal,
                inst.config, /*trace=*/nullptr, policy);
  return engine.run();
}

/// Forwards every consultation to an inner policy, counting them.
class CountingPolicy : public SchedulerPolicy {
 public:
  const char* name() const override { return "counting"; }
  std::size_t select_task(const TaskQuery& query) override {
    ++select_task_calls;
    EXPECT_FALSE(query.pool.empty());
    return inner->select_task(query);
  }
  count_t slave_metric(index_t q, const SlaveQuery& query) const override {
    ++slave_metric_calls;
    return inner->slave_metric(q, query);
  }
  std::vector<SlaveShare> select_slaves(
      const SlaveQuery& query,
      std::vector<SlaveCandidate> candidates) override {
    ++select_slaves_calls;
    EXPECT_FALSE(candidates.empty());
    return inner->select_slaves(query, std::move(candidates));
  }
  double admit(index_t p, count_t incoming) override {
    ++admit_calls;
    return inner->admit(p, incoming);
  }

  std::unique_ptr<SchedulerPolicy> inner;
  int select_task_calls = 0;
  int select_slaves_calls = 0;
  mutable int slave_metric_calls = 0;
  int admit_calls = 0;
};

TEST(SchedulerPolicy, EngineConsultsAtEveryDispatchAndAdmissionPoint) {
  const index_t nprocs = 4;
  const Instance inst = make_instance(nprocs, false);
  CountingPolicy counting;
  Engine engine(inst.prepared.analysis->tree, inst.prepared.mapping,
                inst.prepared.analysis->traversal,
                inst.config, /*trace=*/nullptr, &counting);
  counting.inner = std::make_unique<WorkloadPolicy>(inst.config, engine);
  const ParallelResult r = engine.run();

  index_t pool_activations = 0;
  index_t urgent_tasks = 0;
  for (const ProcResult& pr : r.procs) {
    pool_activations += pr.tasks_run;
    urgent_tasks += pr.slave_tasks_run;
  }
  // One task selection per pool activation.
  EXPECT_EQ(counting.select_task_calls, pool_activations);
  // One slave selection per type-2 front, one metric per candidate.
  EXPECT_EQ(counting.select_slaves_calls, r.type2_nodes_run);
  EXPECT_EQ(counting.slave_metric_calls, r.type2_nodes_run * (nprocs - 1));
  // One admission per allocation: every pool activation (type-1 front or
  // type-2 master part) and every received block (slave or root share).
  EXPECT_EQ(counting.admit_calls, pool_activations + urgent_tasks);
}

TEST(SchedulerPolicy, CountingWrapperDoesNotPerturbTheSchedule) {
  const Instance inst = make_instance(4, false);
  const ParallelResult plain = run_with(inst, nullptr);
  CountingPolicy counting;
  Engine engine(inst.prepared.analysis->tree, inst.prepared.mapping,
                inst.prepared.analysis->traversal,
                inst.config, /*trace=*/nullptr, &counting);
  counting.inner = std::make_unique<WorkloadPolicy>(inst.config, engine);
  const ParallelResult wrapped = engine.run();
  EXPECT_EQ(plain.max_stack_peak, wrapped.max_stack_peak);
  EXPECT_EQ(plain.makespan, wrapped.makespan);
  EXPECT_EQ(plain.messages, wrapped.messages);
}

/// Always activates the pool bottom, indifferent slave metrics; proves a
/// foreign strategy object can drive the engine end to end without a
/// PolicyHost.
class FifoPolicy : public SchedulerPolicy {
 public:
  const char* name() const override { return "fifo"; }
  std::size_t select_task(const TaskQuery&) override { return 0; }
  count_t slave_metric(index_t, const SlaveQuery&) const override {
    return 0;
  }
  std::vector<SlaveShare> select_slaves(
      const SlaveQuery& query,
      std::vector<SlaveCandidate> candidates) override {
    return memory_selection(query.problem, std::move(candidates));
  }
  double admit(index_t, count_t) override { return 0.0; }
};

TEST(SchedulerPolicy, CustomPolicyRunsToCompletionAndConservesWork) {
  const Instance inst = make_instance(4, false);
  FifoPolicy fifo;
  const ParallelResult r = run_with(inst, &fifo);
  EXPECT_GT(r.makespan, 0.0);
  count_t factors = 0;
  for (const ProcResult& pr : r.procs) factors += pr.factor_entries;
  EXPECT_EQ(factors, inst.prepared.analysis->tree.total_factor_entries());
}

/// Charges a fixed stall at every admission.
class StallingPolicy : public SchedulerPolicy {
 public:
  explicit StallingPolicy(std::unique_ptr<SchedulerPolicy> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return "stalling"; }
  std::size_t select_task(const TaskQuery& query) override {
    return inner_->select_task(query);
  }
  count_t slave_metric(index_t q, const SlaveQuery& query) const override {
    return inner_->slave_metric(q, query);
  }
  std::vector<SlaveShare> select_slaves(
      const SlaveQuery& query,
      std::vector<SlaveCandidate> candidates) override {
    return inner_->select_slaves(query, std::move(candidates));
  }
  double admit(index_t, count_t) override { return 1e-5; }

 private:
  std::unique_ptr<SchedulerPolicy> inner_;
};

TEST(SchedulerPolicy, AdmissionStallsLengthenTheMakespan) {
  // Same host-free inner policy in both runs, so the only difference is
  // the injected admission stall.
  const Instance inst = make_instance(4, false);
  FifoPolicy fifo;
  const ParallelResult plain = run_with(inst, &fifo);
  StallingPolicy stalling(std::make_unique<FifoPolicy>());
  const ParallelResult stalled = run_with(inst, &stalling);
  EXPECT_GT(stalled.makespan, plain.makespan);
}

TEST(SchedulerPolicy, MakePolicyNamesTheConfiguredStrategy) {
  const Instance workload = make_instance(2, false);
  const Instance memory = make_instance(2, true);
  Engine host(workload.prepared.analysis->tree, workload.prepared.mapping,
              workload.prepared.analysis->traversal, workload.config);
  EXPECT_STREQ(make_policy(workload.config, host, nullptr)->name(),
               "workload");
  EXPECT_STREQ(make_policy(memory.config, host, nullptr)->name(),
               "memory+static");
  SchedConfig plain_memory = memory.config;
  plain_memory.slave_strategy = SlaveStrategy::kMemory;
  EXPECT_STREQ(make_policy(plain_memory, host, nullptr)->name(), "memory");
}

}  // namespace
}  // namespace memfront
