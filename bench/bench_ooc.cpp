// Out-of-core execution: minimum feasible per-processor budget, the
// I/O price of budgets below the in-core peak, and the makespan the
// asynchronous write-behind buffer recovers from the synchronous
// blocking-I/O baseline, for every Table 1 matrix under both dynamic
// scheduling strategies. This is the Section 7 question made
// quantitative: once factors stream to disk, how small a machine fits
// the factorization, and what does squeezing cost?
//
// The last section validates the *simulator against the real spill
// path*: every Table 1 matrix is factorized for real under a budget,
// in both I/O disciplines, and the measured factor traffic, stall and
// overlap are held against the simulated prediction within stated
// tolerances. Violations make the binary exit nonzero, so CI gates on
// the sim-vs-real agreement. Results are also written to BENCH_ooc.json
// (--json PATH).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "memfront/frontal/arena.hpp"
#include "memfront/ooc/planner.hpp"
#include "memfront/solver/numeric_factor.hpp"
#include "memfront/solver/parallel_numeric.hpp"

namespace {

using namespace memfront;
using namespace memfront::bench;

struct OocCli {
  double scale = 1.0;
  index_t nprocs = 32;
  bool smoke = false;
  unsigned threads = 4;
  std::string json_path = "BENCH_ooc.json";
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [scale] [nprocs] [--smoke] [--threads N] [--json PATH]"
               " [--trace-out FILE] [--metrics-out FILE]\n";
  std::exit(2);
}

OocCli parse(int argc, char** argv) {
  OocCli opt;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opt.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opt.json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      usage(argv[0]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (opt.smoke) opt.scale = 0.3;
  if (!positional.empty()) opt.scale = std::atof(positional[0]);
  if (positional.size() > 1)
    opt.nprocs = static_cast<index_t>(std::atoi(positional[1]));
  return opt;
}

/// One problem's sim-vs-real record.
struct SimRealRow {
  std::string name;
  // Simulated (workload-strategy leg, 1.2x budget).
  count_t sim_factor_entries = 0;
  double sim_stall_frac_sync = 0;    // stall / (makespan * nprocs)
  double sim_overlap_s = 0;          // write-behind leg
  // Real execution.
  count_t real_factor_doubles = 0;
  double real_stall_frac_sync = 0;   // stall / (wall * threads)
  double real_overlap_s = 0;
  double real_wall_wb_s = 0;
  count_t real_budget = 0;
  count_t real_charged_peak = 0;
  count_t real_spill = 0;            // 0.8x-peak degradation run
  count_t real_reload = 0;
  bool real_feasible = false;
};

/// One (problem, policy) makespan comparison: the simulated machine's
/// predicted makespan under a dynamic strategy vs the wall clock of the
/// real worker pool driven by the *same* policy object family.
struct PolicyMakespanRow {
  std::string name;
  const char* policy = "workload";
  double sim_s = 0;        // simulated makespan (model seconds)
  double real_s = 0;       // real wall clock on this host
  double drift = 0;        // real_s / sim_s
  std::uint64_t steals = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const ObsArgs obs_args = extract_obs_args(argc, argv);
  const OocCli cli = parse(argc, argv);
  BenchOptions opt;
  opt.scale = cli.scale;
  opt.nprocs = cli.nprocs;

  std::cout << "Out-of-core planner: minimum feasible per-processor budget\n"
            << opt.nprocs << " simulated processors, scale=" << opt.scale
            << ", per-processor disks\n\n";
  obs_args.begin();
  TextTable table({"Matrix", "Strategy", "in-core peak (M)", "min budget (M)",
                   "min/peak %", "spill@min (M)", "stall@min %",
                   "slowdown@min x"});

  std::cout << "Synchronous vs write-behind I/O at the 1.2x-peak budget\n"
               "(second table; same runs feed both)\n\n";
  TextTable overlap({"Matrix", "Strategy", "sync makespan (s)",
                     "write-behind (s)", "speedup x", "overlap (s)",
                     "buffer HW (M)", "feasible"});
  index_t wb_strictly_faster = 0;
  index_t legs = 0;

  // Every leg (problem x strategy) is an independent set of simulations:
  // build the cases and run the heavy per-leg work (planner bisection,
  // sync vs write-behind runs) concurrently, then print in sweep order.
  const std::vector<BudgetedCase> cases =
      collect_budgeted_cases(opt.scale, opt.nprocs);
  struct LegResult {
    std::shared_ptr<const PlannerResult> plan;
    ExperimentOutcome sync;
    ExperimentOutcome wb;
  };
  std::vector<LegResult> results(cases.size());
  parallel_for(cases.size(), [&](std::size_t i) {
    const BudgetedCase& c = cases[i];
    LegResult& r = results[i];
    // Memoized in the prepared cache: a repeated leg (same matrix,
    // mapping, dynamic strategy and disk model) reuses the bisection
    // instead of re-running it.
    r.plan = PreparedCache::global().planner(c.problem.matrix, c.setup);
    // The overlap experiment: the same 1.2x budget, blocking writes vs
    // the asynchronous write-behind buffer.
    ExperimentSetup sync = c.ooc_setup;
    sync.ooc.io_mode = OocIoMode::kSynchronous;
    r.sync = run_prepared(*c.prepared, sync);
    ExperimentSetup wb = c.ooc_setup;
    wb.ooc.io_mode = OocIoMode::kWriteBehind;
    r.wb = run_prepared(*c.prepared, wb);
  });

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BudgetedCase& c = cases[i];
    const PlannerResult& plan = *results[i].plan;
    table.row();
    table.cell(c.problem.name);
    table.cell(c.memory_strategy ? "memory" : "workload");
    table.cell(mentries(plan.incore_peak), 3);
    table.cell(mentries(plan.min_budget), 3);
    table.cell(100.0 * static_cast<double>(plan.min_budget) /
                   static_cast<double>(plan.incore_peak),
               1);
    table.cell(mentries(plan.at_min.spill_entries), 3);
    // Stall is summed over processors: normalize by aggregate
    // processor-time so 100% means everyone stalled the whole run.
    table.cell(100.0 * plan.at_min.stall_time /
                   (plan.at_min.makespan * static_cast<double>(opt.nprocs)),
               1);
    table.cell(plan.at_min.makespan / plan.unlimited.makespan, 2);

    const ExperimentOutcome& s = results[i].sync;
    const ExperimentOutcome& w = results[i].wb;
    ++legs;
    if (w.makespan < s.makespan) ++wb_strictly_faster;
    overlap.row();
    overlap.cell(c.problem.name);
    overlap.cell(c.memory_strategy ? "memory" : "workload");
    overlap.cell(s.makespan, 4);
    overlap.cell(w.makespan, 4);
    overlap.cell(s.makespan / w.makespan, 3);
    overlap.cell(w.parallel.ooc_overlap_time, 3);
    overlap.cell(mentries(w.parallel.ooc_buffer_high_water), 3);
    overlap.cell(s.parallel.ooc_feasible() == w.parallel.ooc_feasible()
                     ? (w.parallel.ooc_feasible() ? "both" : "neither")
                     : "DIFFER");
  }
  table.print(std::cout);
  std::cout << '\n';
  overlap.print(std::cout);
  std::cout << "\nWrite-behind strictly faster on " << wb_strictly_faster
            << "/" << legs << " legs.\n";

  // The budget/I-O trade-off curve on one representative unsymmetric
  // matrix: how the disk traffic and the stalls grow as the budget drops
  // from the in-core peak to the minimum the planner found.
  const Problem p = make_problem(ProblemId::kTwotone, opt.scale);
  const ExperimentSetup setup = ooc_strategy_setup(p, opt.nprocs, true);
  // The preparation under this planner call is a pure cache hit (the
  // TWOTONE memory leg's exact mapping); the planner entry itself is new
  // because the curve request is part of the key.
  PlannerOptions options;
  options.curve_points = 8;
  const PlannerResult plan =
      *PreparedCache::global().planner(p.matrix, setup, options);
  std::cout << "\nBudget sweep, " << p.name << ", memory strategy (budgets "
            << "from min feasible up to the in-core peak):\n\n";
  TextTable curve({"budget (M)", "% of peak", "factor I/O (M)", "spill (M)",
                   "reload (M)", "stall (s)", "makespan (s)"});
  for (const BudgetPoint& point : plan.curve) {
    curve.row();
    curve.cell(mentries(point.budget), 3);
    curve.cell(100.0 * static_cast<double>(point.budget) /
                   static_cast<double>(plan.incore_peak),
               1);
    curve.cell(mentries(point.factor_write_entries), 3);
    curve.cell(mentries(point.spill_entries), 3);
    curve.cell(mentries(point.reload_entries), 3);
    curve.cell(point.stall_time, 4);
    curve.cell(point.makespan, 4);
  }
  curve.print(std::cout);
  std::cout << "\nEvery budget pays the factor write-back; only budgets\n"
               "below the in-core peak add spill/reload traffic and stalls.\n"
               "The planner's minimum is where the stack alone no longer\n"
               "fits and the budget is met purely by shipping contribution\n"
               "blocks through the disk. The write-behind buffer hides the\n"
               "factor stream behind compute: the overlap column is disk\n"
               "time that cost no makespan.\n";

  // ---- sim vs real: the simulator's predictions against the actual
  // spill path. Factor traffic must agree almost exactly (both count
  // every factor entry once); stall/overlap are model-vs-wall-clock
  // quantities, compared as fractions under a deliberately loose, but
  // stated, tolerance — the gate catches structural disagreement (one
  // side stalling the run away, overlap in the wrong discipline), not
  // disk-model calibration error.
  int violations = 0;
  std::vector<SimRealRow> sim_real;
  std::vector<PolicyMakespanRow> policy_makespan;
  constexpr double kFactorTol = 0.05;  // relative factor-volume mismatch
  constexpr double kStallTol = 0.35;   // real-worse-than-sim stall margin
  std::cout << "\nSim vs real out-of-core execution (real runs: "
            << cli.threads << " threads, write-behind vs synchronous at "
            << "1.2x the in-core peak; degradation at 0.8x):\n\n";
  TextTable simreal({"Matrix", "factor sim (M)", "factor real (M)",
                     "stall% sim", "stall% real", "overlap sim (s)",
                     "overlap real (s)", "spill@0.8x (M)", "verdict"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].memory_strategy) continue;  // one real run per matrix
    const BudgetedCase& c = cases[i];
    SimRealRow row;
    row.name = c.problem.name;
    const ExperimentOutcome& sim_sync = results[i].sync;
    const ExperimentOutcome& sim_wb = results[i].wb;
    row.sim_factor_entries = sim_wb.parallel.ooc_factor_write_entries;
    row.sim_stall_frac_sync =
        sim_sync.parallel.ooc_stall_time /
        (sim_sync.makespan * static_cast<double>(opt.nprocs));
    row.sim_overlap_s = sim_wb.parallel.ooc_overlap_time;

    AnalysisOptions aopt;
    aopt.ordering = OrderingKind::kNestedDissection;
    const Analysis analysis = analyze(c.problem.matrix, aopt);
    // Budgets are sized from the *serial* in-core peak (the exact
    // LIFO-discipline prediction): the parallel driver's measured peak
    // only covers subtree arenas, so on small matrices an upper node's
    // window can exceed it.
    const count_t peak =
        predict_arena_peak(analysis.tree, analysis.traversal);

    ParallelNumericOptions wb_opt;
    wb_opt.nthreads = cli.threads;
    wb_opt.ooc.enabled = true;
    wb_opt.ooc.budget_doubles = peak + peak / 5;
    const auto wb_t0 = std::chrono::steady_clock::now();
    const Factorization real_wb = parallel_numeric_factorize(analysis, wb_opt);
    row.real_wall_wb_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wb_t0)
            .count();
    row.real_factor_doubles = real_wb.stats.ooc.factor_write_doubles;
    row.real_overlap_s = real_wb.stats.ooc.overlap_seconds;

    ParallelNumericOptions sync_opt = wb_opt;
    sync_opt.ooc.write_behind = false;
    const auto sync_t0 = std::chrono::steady_clock::now();
    const Factorization real_sync =
        parallel_numeric_factorize(analysis, sync_opt);
    const double sync_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sync_t0)
            .count();
    row.real_stall_frac_sync =
        sync_wall > 0 ? real_sync.stats.ooc.stall_seconds /
                            (sync_wall * static_cast<double>(cli.threads))
                      : 0.0;

    // Graceful degradation for real: 0.8x the in-core peak (raised to
    // the predicted feasibility floor where 0.8x dips below it).
    ParallelNumericOptions tight_opt = wb_opt;
    tight_opt.ooc.budget_doubles =
        std::max(peak * 8 / 10,
                 predict_min_ooc_budget(analysis.tree, analysis.traversal));
    const Factorization tight =
        parallel_numeric_factorize(analysis, tight_opt);
    row.real_budget = tight.stats.ooc.budget_doubles;
    row.real_charged_peak = tight.stats.ooc.charged_peak_doubles;
    row.real_spill = tight.stats.ooc.spill_doubles;
    row.real_reload = tight.stats.ooc.reload_doubles;
    row.real_feasible = tight.stats.ooc.overrun_peak_doubles == 0;

    // The stated tolerances. The simulator counts a symmetric factor's
    // triangular entries; the real LDLT driver writes the full
    // rectangular panel — compare against twice the simulated volume
    // there. The stall gate is one-sided: the simulator's disk model
    // is deliberately punishing, so the real path failing to *beat* it
    // by the stated margin is the pathology, not the model's pessimism.
    std::string verdict = "ok";
    const double sim_factor_as_panels =
        static_cast<double>(row.sim_factor_entries) *
        (c.problem.symmetric ? 2.0 : 1.0);
    const double dfac =
        std::abs(static_cast<double>(row.real_factor_doubles) -
                 sim_factor_as_panels) /
        std::max(1.0, sim_factor_as_panels);
    if (dfac > kFactorTol) verdict = "FACTOR-VOLUME";
    if (row.real_stall_frac_sync - row.sim_stall_frac_sync > kStallTol)
      verdict = "STALL-FRACTION";
    if (real_sync.stats.ooc.overlap_seconds != 0.0)
      verdict = "SYNC-OVERLAP";  // synchronous mode cannot hide I/O
    if (!row.real_feasible || row.real_spill != row.real_reload ||
        row.real_charged_peak > row.real_budget)
      verdict = "DEGRADATION";
    if (verdict != "ok") ++violations;

    simreal.row();
    simreal.cell(row.name);
    simreal.cell(mentries(row.sim_factor_entries), 3);
    simreal.cell(mentries(static_cast<count_t>(row.real_factor_doubles)), 3);
    simreal.cell(100.0 * row.sim_stall_frac_sync, 1);
    simreal.cell(100.0 * row.real_stall_frac_sync, 1);
    simreal.cell(row.sim_overlap_s, 4);
    simreal.cell(row.real_overlap_s, 4);
    simreal.cell(mentries(row.real_spill), 3);
    simreal.cell(verdict);
    sim_real.push_back(std::move(row));
  }
  simreal.print(std::cout);

  // ---- per-policy makespan: sim prediction vs real measurement -------------
  // The sim→real loop's endpoint: the same dynamic strategy family
  // drives the simulated machine and the real worker pool
  // (parallel_numeric's policy-consulted scheduler). Per policy, the
  // simulated write-behind makespan is held against the real wall
  // clock as a drift ratio. The two clocks measure different machines
  // (the modeled disk/CPU vs this host), so absolute drift is expected
  // and merely recorded; the stated tolerance covers only the
  // *structure* — a real run must finish (drift finite and positive)
  // under every policy the simulator planned for.
  TextTable mktable({"Matrix", "policy", "sim makespan (s)", "real wall (s)",
                     "drift x", "steals"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BudgetedCase& c = cases[i];
    PolicyMakespanRow row;
    row.name = c.problem.name;
    row.policy = c.memory_strategy ? "memory" : "workload";
    row.sim_s = results[i].wb.makespan;

    AnalysisOptions aopt;
    aopt.ordering = OrderingKind::kNestedDissection;
    const std::shared_ptr<const Analysis> analysis =
        PreparedCache::global().analysis(c.problem.matrix, aopt);
    const count_t peak =
        predict_arena_peak(analysis->tree, analysis->traversal);
    ParallelNumericOptions popt;
    popt.nthreads = cli.threads;
    popt.sched.policy =
        c.memory_strategy ? RealPolicy::kMemory : RealPolicy::kWorkload;
    popt.ooc.enabled = true;
    popt.ooc.budget_doubles = peak + peak / 5;
    ParallelNumericStats pstats;
    const auto t0 = std::chrono::steady_clock::now();
    (void)parallel_numeric_factorize(*analysis, popt, &pstats);
    row.real_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    row.drift = row.sim_s > 0 ? row.real_s / row.sim_s : 0.0;
    row.steals = pstats.sched.steals;
    if (!(row.drift > 0) || !std::isfinite(row.drift)) ++violations;

    mktable.row();
    mktable.cell(row.name);
    mktable.cell(row.policy);
    mktable.cell(row.sim_s, 4);
    mktable.cell(row.real_s, 4);
    mktable.cell(row.drift, 3);
    mktable.cell(static_cast<long>(row.steals));
    policy_makespan.push_back(std::move(row));
  }
  std::cout << "\nPer-policy makespan, sim prediction vs real execution\n"
               "(write-behind at 1.2x peak; drift = real wall / simulated\n"
               "makespan — a model-vs-host scale factor, not an error):\n\n";
  mktable.print(std::cout);

  std::cout << "\nTolerances: factor volume within " << 100.0 * kFactorTol
            << "% (x2 for symmetric: sim counts the triangle, the real\n"
               "driver writes full panels); real sync stall fraction at most "
            << 100.0 * kStallTol
            << " points\nabove the simulated one; synchronous overlap must "
               "be exactly zero; the\n0.8x-budget run must stay feasible "
               "with spill == reload.\n";
  if (violations > 0)
    std::cout << violations << " sim-vs-real violation(s) -- FAILING.\n";

  // ---- BENCH_ooc.json ------------------------------------------------------
  std::ofstream json(cli.json_path);
  json << "{\n"
       << "  \"bench\": \"bench_ooc\",\n"
       << "  \"smoke\": " << (cli.smoke ? "true" : "false") << ",\n"
       << "  \"scale\": " << cli.scale << ",\n"
       << "  \"nprocs\": " << opt.nprocs << ",\n"
       << "  \"threads\": " << cli.threads << ",\n"
       << "  \"write_behind_strictly_faster_legs\": " << wb_strictly_faster
       << ",\n  \"legs\": " << legs << ",\n  \"planner\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BudgetedCase& c = cases[i];
    const PlannerResult& plan = *results[i].plan;
    json << "    {\"name\": \"" << c.problem.name << "\""
         << ", \"strategy\": \""
         << (c.memory_strategy ? "memory" : "workload") << "\""
         << ", \"incore_peak\": " << plan.incore_peak
         << ", \"min_budget\": " << plan.min_budget
         << ", \"spill_at_min\": " << plan.at_min.spill_entries
         << ", \"slowdown_at_min\": "
         << plan.at_min.makespan / plan.unlimited.makespan << "}"
         << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"sim_vs_real\": [\n";
  for (std::size_t i = 0; i < sim_real.size(); ++i) {
    const SimRealRow& r = sim_real[i];
    json << "    {\"name\": \"" << r.name << "\""
         << ", \"sim_factor_entries\": " << r.sim_factor_entries
         << ", \"real_factor_doubles\": " << r.real_factor_doubles
         << ", \"sim_stall_frac_sync\": " << r.sim_stall_frac_sync
         << ", \"real_stall_frac_sync\": " << r.real_stall_frac_sync
         << ", \"sim_overlap_s\": " << r.sim_overlap_s
         << ", \"real_overlap_s\": " << r.real_overlap_s
         << ", \"real_wall_wb_s\": " << r.real_wall_wb_s
         << ", \"tight_budget\": " << r.real_budget
         << ", \"tight_charged_peak\": " << r.real_charged_peak
         << ", \"tight_spill\": " << r.real_spill
         << ", \"tight_reload\": " << r.real_reload
         << ", \"tight_feasible\": " << (r.real_feasible ? "true" : "false")
         << "}" << (i + 1 < sim_real.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"policy_makespan\": [\n";
  for (std::size_t i = 0; i < policy_makespan.size(); ++i) {
    const PolicyMakespanRow& r = policy_makespan[i];
    json << "    {\"name\": \"" << r.name << "\""
         << ", \"policy\": \"" << r.policy << "\""
         << ", \"sim_makespan_s\": " << r.sim_s
         << ", \"real_wall_s\": " << r.real_s
         << ", \"drift\": " << r.drift
         << ", \"steals\": " << r.steals << "}"
         << (i + 1 < policy_makespan.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"violations\": " << violations << "\n}\n";

  obs_args.finish();
  return violations == 0 ? 0 : 1;
}
