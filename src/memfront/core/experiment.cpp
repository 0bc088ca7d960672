#include "memfront/core/experiment.hpp"

#include <chrono>

#include "memfront/support/error.hpp"
#include "memfront/support/stats.hpp"

namespace memfront {

AnalysisOptions analysis_options(const ExperimentSetup& setup) {
  AnalysisOptions options;
  options.ordering = setup.ordering;
  options.symmetric = setup.symmetric;
  options.want_structure = false;  // scheduling experiments are symbolic
  options.split_master_threshold = setup.split_threshold;
  options.split_relative = setup.split_relative;
  options.seed = setup.seed;
  return options;
}

MappingOptions mapping_options(const ExperimentSetup& setup) {
  MappingOptions mapping = setup.mapping;
  mapping.nprocs = setup.nprocs;
  return mapping;
}

PreparedExperiment make_prepared(std::shared_ptr<const Analysis> analysis,
                                 const MappingOptions& options) {
  check(analysis != nullptr, "make_prepared: null analysis");
  PreparedExperiment prepared;
  prepared.analysis = std::move(analysis);
  const auto t0 = std::chrono::steady_clock::now();
  prepared.mapping = compute_mapping(prepared.analysis->tree,
                                     prepared.analysis->memory, options);
  prepared.mapping_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return prepared;
}

PreparedExperiment prepare_experiment(const CscMatrix& matrix,
                                      const ExperimentSetup& setup) {
  return make_prepared(
      std::make_shared<Analysis>(analyze(matrix, analysis_options(setup))),
      mapping_options(setup));
}

SchedConfig sched_config(const ExperimentSetup& setup) {
  SchedConfig config;
  config.machine = setup.machine;
  config.machine.nprocs = setup.nprocs;
  config.slave_strategy = setup.slave_strategy;
  config.task_strategy = setup.task_strategy;
  config.subtree_broadcast = setup.subtree_broadcast;
  config.master_prediction = setup.master_prediction;
  config.ooc = setup.ooc;
  return config;
}

ExperimentOutcome run_prepared(const PreparedExperiment& prepared,
                               const ExperimentSetup& setup, Trace* trace) {
  check(prepared.analysis != nullptr, "run_prepared: empty preparation");
  const SchedConfig config = sched_config(setup);
  const Analysis& analysis = *prepared.analysis;

  ExperimentOutcome outcome;
  outcome.parallel = simulate_parallel_factorization(
      analysis.tree, prepared.mapping, analysis.traversal, config, trace);
  outcome.max_stack_peak = outcome.parallel.max_stack_peak;
  outcome.makespan = outcome.parallel.makespan;
  outcome.sequential_peak = analysis.memory.peak;
  outcome.num_nodes = analysis.tree.num_nodes();
  outcome.num_split_nodes = analysis.num_split_nodes;
  return outcome;
}

ExperimentOutcome run_experiment(const CscMatrix& matrix,
                                 const ExperimentSetup& setup, Trace* trace) {
  return run_prepared(prepare_experiment(matrix, setup), setup, trace);
}

StrategyComparison compare_strategies(const CscMatrix& matrix,
                                      ExperimentSetup baseline_setup,
                                      ExperimentSetup memory_setup) {
  // The paper compares dynamic strategies on the *same* static decisions:
  // when the two setups agree on everything the analysis and mapping
  // consume, prepare once and run both variants on the shared preparation
  // instead of repeating the full ordering + symbolic work.
  const bool same_static =
      analysis_options(baseline_setup) == analysis_options(memory_setup) &&
      mapping_options(baseline_setup) == mapping_options(memory_setup);
  ExperimentOutcome base, mem;
  if (same_static) {
    const PreparedExperiment prepared =
        prepare_experiment(matrix, baseline_setup);
    base = run_prepared(prepared, baseline_setup);
    mem = run_prepared(prepared, memory_setup);
  } else {
    base = run_experiment(matrix, baseline_setup);
    mem = run_experiment(matrix, memory_setup);
  }
  StrategyComparison cmp;
  cmp.baseline_peak = base.max_stack_peak;
  cmp.memory_peak = mem.max_stack_peak;
  cmp.percent_decrease =
      percent_decrease(static_cast<double>(base.max_stack_peak),
                       static_cast<double>(mem.max_stack_peak));
  cmp.baseline_makespan = base.makespan;
  cmp.memory_makespan = mem.makespan;
  return cmp;
}

}  // namespace memfront
