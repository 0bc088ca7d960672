// trace_viewer — one Perfetto timeline holding both executions of the
// same problem:
//
//   track group 1: the REAL tree-parallel factorization, span-traced by
//     the obs layer (per-worker subtree and upper-part tasks, with the
//     assemble/kernel/extend-add phases and panel/trsm/schur blocks
//     nested inside each front; a large front's trsm/schur blocks also
//     appear inside `help` spans on the workers that joined it);
//   track group 2: the SIMULATED parallel schedule the paper studies
//     (per-processor stack-depth counters, OOC I/O slices, annotations),
//     re-emitted on the same microsecond axis.
//
// Load the JSON in https://ui.perfetto.dev (or chrome://tracing) to see
// the real run and the model side by side. A metrics snapshot (counters,
// gauges, histograms from the same runs) is written next to the trace.
//
//   trace_viewer [scale] [trace.json] [metrics.json]
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "memfront/core/experiment.hpp"
#include "memfront/core/prepared_cache.hpp"
#include "memfront/obs/chrome_trace.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/sim/trace.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/sparse/problems.hpp"

int main(int argc, char** argv) {
  using namespace memfront;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  const std::string trace_path = argc > 2 ? argv[2] : "trace_viewer.json";
  const std::string metrics_path =
      argc > 3 ? argv[3] : "trace_viewer.metrics.json";
  const index_t nprocs = 16;

  const Problem p = make_problem(ProblemId::kTwotone, scale);
  std::cout << "trace_viewer: " << p.name << " (n=" << p.matrix.nrows()
            << ", scale=" << scale << ")\n";

  obs::Tracer::global().clear();
  obs::Tracer::set_enabled(true);

  // ---- the real thing: tree-parallel numeric factorization -----------------
  AnalysisOptions aopt;
  aopt.ordering = OrderingKind::kNestedDissection;
  aopt.symmetric = p.symmetric;
  const std::shared_ptr<const Analysis> analysis =
      PreparedCache::global().analysis(p.matrix, aopt);
  ParallelNumericOptions popt;
  ParallelNumericStats pstats;
  const Factorization fact = parallel_numeric_factorize(*analysis, popt, &pstats);
  std::cout << "real run: " << pstats.workers << " workers, "
            << pstats.num_subtrees << " subtrees, "
            << fact.stats.factor_entries << " factor entries\n";

  // ---- the model: simulated parallel schedule, memory-based strategy -------
  ExperimentSetup setup;
  setup.nprocs = nprocs;
  setup.symmetric = p.symmetric;
  setup.slave_strategy = SlaveStrategy::kMemoryImproved;
  setup.task_strategy = TaskStrategy::kMemoryAware;
  const PreparedExperiment prepared = prepare_experiment(p.matrix, setup);
  Trace sim_trace;
  const ExperimentOutcome out = run_prepared(prepared, setup, &sim_trace);
  std::cout << "sim run: " << nprocs << " procs, makespan " << out.makespan
            << " s, peak stack " << out.max_stack_peak << " entries\n";

  obs::Tracer::set_enabled(false);

  // ---- export: one timeline, two process tracks ----------------------------
  obs::ChromeTraceWriter writer;
  writer.add_tracer_snapshot(obs::Tracer::global().snapshot(),
                             "real parallel factorization");
  writer.add_sim_timeline("simulated schedule (memory strategy)", sim_trace);
  {
    std::ofstream os(trace_path);
    writer.write(os);
    if (!os) {
      std::cerr << "trace_viewer: failed to write " << trace_path << '\n';
      return 1;
    }
  }
  obs::record_cache_stats(PreparedCache::global().stats());
  obs::record_process_metrics();
  {
    std::ofstream os(metrics_path);
    obs::MetricsRegistry::global().write_json(os);
    if (!os) {
      std::cerr << "trace_viewer: failed to write " << metrics_path << '\n';
      return 1;
    }
  }

  std::cout << "\nwrote " << trace_path;
  if (writer.dropped() > 0)
    std::cout << " (" << writer.dropped() << " events dropped to ring limits)";
  std::cout << "\nwrote " << metrics_path
            << "\n\nopen the trace in https://ui.perfetto.dev (or\n"
               "chrome://tracing): the first process is the real run, one\n"
               "track per worker; the second is the simulated schedule,\n"
               "one track per modelled processor.\n";
  return 0;
}
