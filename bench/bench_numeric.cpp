// bench_numeric — the numeric factorization's performance trajectory.
//
// Three measurements:
//   1. Kernel sweep: the largest LU fronts of the biggest unsymmetric
//      Table-1 problem and the largest LDLt front of SHIP_003, factored
//      with the pre-blocking scalar kernel and the blocked kernel
//      (bit-identical results); GFLOP/s of each and the single-thread
//      speedup. Then schur_update at the factorization's shape at every
//      vector width the CPU runs, and the width schur_update picks.
//   2. Per-problem factorization: every Table-1 matrix, serial reference
//      vs serial blocked vs tree-parallel at N workers; model GFLOP/s,
//      speedups, the serial ledger peak against the predicted physical
//      peak (the bench exits nonzero if they differ) and the analysis'
//      model-entry peak, and the parallel ledger peak (reported, not
//      bounded: it depends on the schedule).
//   3. Aggregates: total kernel-sweep speedup and the worst/mean
//      parallel speedup, written with everything else to
//      BENCH_numeric.json so CI archives the trajectory.
//
// plus the dynamic-scheduler comparison (PR-10): every Table-1 problem
// factored static (steal=off) vs dynamic-workload vs dynamic-memory at a
// fixed worker count, and a worker-scaling sweep on the problem with the
// most flops, written to BENCH_sched.json.
//
//   bench_numeric [scale] [--smoke] [--threads N] [--json PATH]
//                 [--policy workload|memory] [--steal on|off]
//                 [--sched-json PATH] [--sched-probe static|dynamic]
//                 [--trace-out FILE] [--metrics-out FILE]
//
// --smoke shrinks the run for CI (scale 0.3) unless an explicit scale is
// given. --policy/--steal select the scheduler mode of the per-problem
// parallel runs. --sched-probe runs ONLY a best-of-N throughput probe of
// the chosen scheduling mode on a fixed problem and writes
// `sched_factor_entries_per_sec` to --json — the CI dynamic-overhead
// gate (scripts/check_overhead.py) compares static vs dynamic builds of
// that key. --trace-out records the real factorizations as a Perfetto
// timeline (per-worker subtree/upper-part/kernel spans) and writes a
// metrics snapshot next to it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "memfront/frontal/arena.hpp"
#include "memfront/frontal/kernels.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/support/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace memfront;
using namespace memfront::bench;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct NumericOptionsCli {
  double scale = 1.0;
  bool smoke = false;
  unsigned threads = 0;
  std::string json_path = "BENCH_numeric.json";
  std::string sched_json_path = "BENCH_sched.json";
  RealSchedOptions sched{};
  /// "" = off; "static"/"dynamic" = probe-only mode for the CI gate.
  std::string sched_probe;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [scale] [--smoke] [--threads N] [--json PATH]"
               " [--policy workload|memory] [--steal on|off]"
               " [--sched-json PATH] [--sched-probe static|dynamic]"
               " [--trace-out FILE] [--metrics-out FILE]\n";
  std::exit(2);
}

NumericOptionsCli parse(int argc, char** argv) {
  NumericOptionsCli opt;
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
    } else if (std::strcmp(argv[i], "--sched-json") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opt.sched_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      const char* name = argv[++i];
      if (std::strcmp(name, "workload") == 0)
        opt.sched.policy = RealPolicy::kWorkload;
      else if (std::strcmp(name, "memory") == 0)
        opt.sched.policy = RealPolicy::kMemory;
      else
        usage(argv[0]);
    } else if (std::strcmp(argv[i], "--steal") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      const char* mode = argv[++i];
      if (std::strcmp(mode, "on") == 0)
        opt.sched.steal = true;
      else if (std::strcmp(mode, "off") == 0)
        opt.sched.steal = false;
      else
        usage(argv[0]);
    } else if (std::strcmp(argv[i], "--sched-probe") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opt.sched_probe = argv[++i];
      if (opt.sched_probe != "static" && opt.sched_probe != "dynamic")
        usage(argv[0]);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      usage(argv[0]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (opt.smoke) opt.scale = 0.3;
  if (!positional.empty()) opt.scale = std::atof(positional[0]);
  return opt;
}

/// A diagonally dominant front, symmetric for an LDLt front.
std::vector<double> random_front(index_t n, std::uint64_t seed,
                                 bool symmetric) {
  Rng rng(seed);
  std::vector<double> data(static_cast<std::size_t>(n) * n);
  for (double& v : data) v = rng.real(-1.0, 1.0);
  if (symmetric)
    for (index_t c = 0; c < n; ++c)
      for (index_t r = 0; r < c; ++r)
        data[static_cast<std::size_t>(c) * n + r] =
            data[static_cast<std::size_t>(r) * n + c];
  for (index_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (index_t c = 0; c < n; ++c)
      sum += std::abs(data[static_cast<std::size_t>(c) * n + r]);
    data[static_cast<std::size_t>(r) * n + r] = sum + 1.0;
  }
  return data;
}

/// Times `factor(view)` on fresh copies of `original` until ~0.2 s of
/// work accumulates; returns seconds per factorization.
template <typename Factor>
double time_kernel(const std::vector<double>& original, index_t n,
                   index_t npiv, Factor&& factor, int min_reps) {
  std::vector<double> work(original.size());
  double total = 0.0;
  int reps = 0;
  while (reps < min_reps || total < 0.2) {
    std::copy(original.begin(), original.end(), work.begin());
    const auto start = Clock::now();
    factor(FrontView{work.data(), n, n}, npiv);
    total += seconds_since(start);
    ++reps;
    if (reps >= 50) break;
  }
  return total / reps;
}

struct KernelRow {
  std::string problem;
  bool symmetric = false;
  index_t nfront = 0;
  index_t npiv = 0;
  double ref_s = 0.0;
  double blocked_s = 0.0;
  double flops = 0.0;
};

/// One vector width of schur_update at the factorization's shape.
struct WidthRow {
  std::string name;
  double gflops = 0.0;
};

/// Seconds per schur_update call through `run` on an m x n x kb update
/// (in place, so C drifts; the rate does not depend on its values).
double time_schur(SchurKernel::Fn run, index_t m, index_t n, index_t kb,
                  double min_seconds) {
  Rng rng(7);
  std::vector<double> a(static_cast<std::size_t>(m) * kb);
  std::vector<double> b(static_cast<std::size_t>(kb) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  for (std::vector<double>* v : {&a, &b, &c})
    for (double& x : *v) x = rng.real(-1e-3, 1e-3);
  run(m, n, kb, a.data(), m, b.data(), kb, c.data(), m);  // warm caches
  int calls = 0;
  const auto start = Clock::now();
  double total = 0.0;
  do {
    run(m, n, kb, a.data(), m, b.data(), kb, c.data(), m);
    ++calls;
    total = seconds_since(start);
  } while (total < min_seconds);
  return total / calls;
}

struct ProblemRow {
  std::string name;
  bool symmetric = false;
  count_t flops = 0;
  double reference_s = 0.0;
  double serial_s = 0.0;
  double parallel_s = 0.0;
  count_t serial_ledger_peak = 0;
  count_t predicted_peak = 0;
  count_t model_peak = 0;
  count_t parallel_ledger_peak = 0;
  index_t subtrees = 0;
};

/// One static-vs-dynamic comparison row of the scheduler sweep.
struct SchedRow {
  std::string name;
  double static_s = 0.0;
  double dyn_workload_s = 0.0;
  double dyn_memory_s = 0.0;
  std::uint64_t steals = 0;        ///< dyn-workload run
  std::uint64_t wakeups = 0;       ///< dyn-workload run
  std::uint64_t static_idle_ns = 0;
  std::uint64_t dyn_idle_ns = 0;   ///< dyn-workload run
  count_t static_ledger_peak = 0;
  count_t dyn_ledger_peak = 0;  ///< max over both dynamic runs
  index_t subtrees = 0;
  bool dynamic_beats_static = false;
};

/// Best-of-N throughput probe of one scheduling mode on a fixed,
/// well-balanced problem, for the CI dynamic-overhead gate. Factor
/// entries per second is a pure dispatch-overhead meter: the numeric
/// work is bit-identical between modes, so any rate delta is scheduler
/// cost.
int run_sched_probe(const NumericOptionsCli& opt, unsigned threads) {
  // PRE2: the biggest Table-1 problem — runs long enough per
  // factorization that the best-of-N rate is dispatch-dominated noise,
  // not timer noise.
  const Problem p = make_problem(ProblemId::kPre2, opt.scale);
  AnalysisOptions aopt;
  aopt.ordering = OrderingKind::kNestedDissection;
  const std::shared_ptr<const Analysis> analysis =
      PreparedCache::global().analysis(p.matrix, aopt);
  ParallelNumericOptions popt;
  popt.nthreads = threads;
  popt.nprocs = threads;
  popt.sched = opt.sched;
  popt.sched.steal = opt.sched_probe == "dynamic";
  const int reps = opt.smoke ? 3 : 5;
  double best = 1e300;
  count_t entries = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const Factorization f = parallel_numeric_factorize(*analysis, popt);
    best = std::min(best, seconds_since(start));
    entries = f.stats.factor_entries;
  }
  const double rate = static_cast<double>(entries) / best;
  std::cout << "sched probe (" << opt.sched_probe
            << ", policy=" << real_policy_name(opt.sched.policy)
            << ", threads=" << threads << "): best " << best << " s, "
            << rate << " factor entries/s\n";
  std::ofstream json(opt.json_path);
  json << "{\n"
       << "  \"bench\": \"bench_numeric\",\n"
       << "  \"sched_probe\": \"" << opt.sched_probe << "\",\n"
       << "  \"policy\": \"" << real_policy_name(opt.sched.policy) << "\",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"probe_best_s\": " << best << ",\n"
       << "  \"sched_factor_entries_per_sec\": " << rate << "\n}\n";
  if (!json) {
    std::cerr << "bench_numeric: failed to write " << opt.json_path << '\n';
    return 1;
  }
  std::cout << "wrote " << opt.json_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ObsArgs obs_args = extract_obs_args(argc, argv);
  const NumericOptionsCli opt = parse(argc, argv);
  const unsigned threads =
      opt.threads > 0 ? opt.threads : default_thread_count();
  if (!opt.sched_probe.empty()) return run_sched_probe(opt, threads);

  std::cout << "bench_numeric: blocked kernels, ledger peaks, tree "
               "parallelism (scale="
            << opt.scale << ", threads=" << threads
            << (opt.smoke ? ", smoke" : "") << ")\n\n";
  obs_args.begin();

  // ---- 1. kernel sweep on the largest fronts -------------------------------
  // PRE2 is the biggest unsymmetric Table-1 problem; its largest fronts
  // are where the factorization spends its flops. One LDLt front, the
  // largest of SHIP_003, covers the symmetric kernel.
  const std::size_t sweep_fronts = opt.smoke ? 3 : 5;
  const int min_reps = opt.smoke ? 2 : 3;
  std::vector<KernelRow> kernel_rows;
  for (const ProblemId id : {ProblemId::kPre2, ProblemId::kShip003}) {
    const Problem p = make_problem(id, opt.scale);
    AnalysisOptions aopt;
    aopt.ordering = OrderingKind::kNestedDissection;
    aopt.symmetric = p.symmetric;
    const std::shared_ptr<const Analysis> analysis =
        PreparedCache::global().analysis(p.matrix, aopt);
    const AssemblyTree& tree = analysis->tree;
    std::vector<index_t> by_size(static_cast<std::size_t>(tree.num_nodes()));
    for (std::size_t i = 0; i < by_size.size(); ++i)
      by_size[i] = static_cast<index_t>(i);
    std::sort(by_size.begin(), by_size.end(), [&](index_t a, index_t b) {
      return tree.nfront(a) > tree.nfront(b);
    });
    const std::size_t count = p.symmetric ? 1 : sweep_fronts;
    for (std::size_t k = 0; k < std::min(count, by_size.size()); ++k) {
      KernelRow row;
      row.problem = p.name;
      row.symmetric = p.symmetric;
      row.nfront = tree.nfront(by_size[k]);
      row.npiv = tree.npiv(by_size[k]);
      if (row.nfront >= 2) kernel_rows.push_back(row);
    }
  }

  double ref_total = 0.0, blocked_total = 0.0;
  TextTable ktable({"front", "type", "nfront", "npiv", "scalar (ms)",
                    "blocked (ms)", "scalar GF/s", "blocked GF/s",
                    "speedup x"});
  for (std::size_t k = 0; k < kernel_rows.size(); ++k) {
    KernelRow& row = kernel_rows[k];
    row.flops = static_cast<double>(
        elimination_flops(row.nfront, row.npiv, row.symmetric));
    const std::vector<double> original = random_front(
        row.nfront, 1000 + static_cast<std::uint64_t>(k), row.symmetric);
    const bool ldlt = row.symmetric;
    row.ref_s = time_kernel(
        original, row.nfront, row.npiv,
        [ldlt](FrontView f, index_t np) {
          (void)(ldlt ? partial_ldlt_reference(f, np)
                      : partial_lu_reference(f, np));
        },
        min_reps);
    row.blocked_s = time_kernel(
        original, row.nfront, row.npiv,
        [ldlt](FrontView f, index_t np) {
          (void)(ldlt ? partial_ldlt_blocked(f, np)
                      : partial_lu_blocked(f, np));
        },
        min_reps);
    ref_total += row.ref_s;
    blocked_total += row.blocked_s;
    ktable.row();
    ktable.cell(row.problem);
    ktable.cell(row.symmetric ? "LDLt" : "LU");
    ktable.cell(static_cast<long>(row.nfront));
    ktable.cell(static_cast<long>(row.npiv));
    ktable.cell(row.ref_s * 1e3, 2);
    ktable.cell(row.blocked_s * 1e3, 2);
    ktable.cell(row.flops / row.ref_s / 1e9, 2);
    ktable.cell(row.flops / row.blocked_s / 1e9, 2);
    ktable.cell(row.ref_s / row.blocked_s, 2);
  }
  const double kernel_speedup = ref_total / blocked_total;
  ktable.print(std::cout);
  std::cout << "\nkernel sweep single-thread speedup (total): "
            << kernel_speedup << "x\n\n";

  // schur_update at the trailing-update shape of a large front (one
  // panel against 1024 rows and columns) at every width this CPU runs:
  // each width must beat the next narrower one to earn its place.
  constexpr index_t kWidthM = 1024, kWidthKb = 48;
  const std::span<const SchurKernel> widths = schur_kernels();
  const std::string selected_width = widths.back().name;
  std::vector<WidthRow> width_rows;
  TextTable wtable({"schur_update width", "m = n", "kb", "GF/s"});
  for (const SchurKernel& k : widths) {
    const double s =
        time_schur(k.run, kWidthM, kWidthM, kWidthKb, opt.smoke ? 0.1 : 0.3);
    WidthRow row{k.name, 2.0 * kWidthM * kWidthM * kWidthKb / s / 1e9};
    wtable.row();
    wtable.cell(row.name + (row.name == selected_width ? " (selected)" : ""));
    wtable.cell(static_cast<long>(kWidthM));
    wtable.cell(static_cast<long>(kWidthKb));
    wtable.cell(row.gflops, 2);
    width_rows.push_back(row);
  }
  wtable.print(std::cout);
  std::cout << '\n';

  // ---- 2. per-problem factorization sweep ----------------------------------
  TextTable ptable({"Matrix", "type", "GFlop", "scalar (s)", "blocked (s)",
                    "par (s)", "serial x", "par x", "GF/s par",
                    "ledger ser (M dbl)", "pred (M dbl)",
                    "ledger par (M dbl)"});
  std::vector<ProblemRow> rows;
  double worst_parallel_speedup = 1e300;
  bool serial_ledger_matches = true;
  for (ProblemId id : all_problem_ids()) {
    const Problem p = make_problem(id, opt.scale);
    AnalysisOptions aopt;
    aopt.ordering = OrderingKind::kNestedDissection;
    aopt.symmetric = p.symmetric;
    const std::shared_ptr<const Analysis> analysis =
        PreparedCache::global().analysis(p.matrix, aopt);

    ProblemRow row;
    row.name = p.name;
    row.symmetric = p.symmetric;
    row.flops = analysis->tree.total_flops();
    row.model_peak = analysis->memory.peak;
    row.predicted_peak =
        predict_arena_peak(analysis->tree, analysis->traversal);

    NumericOptions reference;
    reference.kernel = FrontalKernel::kReference;
    auto start = Clock::now();
    const Factorization fref = numeric_factorize(*analysis, reference);
    row.reference_s = seconds_since(start);

    start = Clock::now();
    const Factorization fblocked = numeric_factorize(*analysis);
    row.serial_s = seconds_since(start);
    row.serial_ledger_peak = fblocked.stats.arena_peak_doubles;

    ParallelNumericOptions popt;
    popt.nthreads = threads;
    popt.sched = opt.sched;
    ParallelNumericStats pstats;
    start = Clock::now();
    const Factorization fpar =
        parallel_numeric_factorize(*analysis, popt, &pstats);
    row.parallel_s = seconds_since(start);
    row.parallel_ledger_peak = pstats.total_arena_peak_doubles;
    row.subtrees = pstats.num_subtrees;

    serial_ledger_matches =
        serial_ledger_matches && row.serial_ledger_peak == row.predicted_peak;
    worst_parallel_speedup =
        std::min(worst_parallel_speedup, row.serial_s / row.parallel_s);

    ptable.row();
    ptable.cell(row.name);
    ptable.cell(row.symmetric ? "SYM" : "UNS");
    ptable.cell(static_cast<double>(row.flops) / 1e9, 3);
    ptable.cell(row.reference_s, 3);
    ptable.cell(row.serial_s, 3);
    ptable.cell(row.parallel_s, 3);
    ptable.cell(row.reference_s / row.serial_s, 2);
    ptable.cell(row.serial_s / row.parallel_s, 2);
    ptable.cell(static_cast<double>(row.flops) / row.parallel_s / 1e9, 2);
    ptable.cell(static_cast<double>(row.serial_ledger_peak) / 1e6, 3);
    ptable.cell(static_cast<double>(row.predicted_peak) / 1e6, 3);
    ptable.cell(static_cast<double>(row.parallel_ledger_peak) / 1e6, 3);
    rows.push_back(row);
  }
  ptable.print(std::cout);
  std::cout << "\nserial ledger peaks "
            << (serial_ledger_matches ? "match" : "DIVERGE FROM")
            << " the predictions on every problem\n";

  // ---- 3. static-vs-dynamic scheduler sweep --------------------------------
  // Every Table-1 problem at a fixed worker count: the exact static
  // schedule (steal=off), dynamic stealing under the workload policy,
  // and dynamic stealing under the memory policy. Then worker scaling
  // {1,2,4,8} on the costliest tree: a property of the input, where a
  // timed ratio would pick timer noise at smoke scale.
  const unsigned sched_workers = 4;
  auto timed_parallel = [](const Analysis& analysis, unsigned workers,
                           bool steal, RealPolicy policy,
                           ParallelNumericStats* stats) {
    ParallelNumericOptions popt;
    popt.nthreads = workers;
    popt.nprocs = workers;
    popt.sched.steal = steal;
    popt.sched.policy = policy;
    const auto start = Clock::now();
    (void)parallel_numeric_factorize(analysis, popt, stats);
    return seconds_since(start);
  };

  std::cout << "\nscheduler sweep: static vs dynamic at " << sched_workers
            << " workers\n";
  TextTable stable({"Matrix", "static (s)", "dyn wl (s)", "dyn mem (s)",
                    "steals", "idle st (ms)", "idle dyn (ms)", "dyn x"});
  std::vector<SchedRow> sched_rows;
  std::string best_gain_name;
  double best_gain = 0.0;
  std::string scaling_name;
  count_t scaling_flops = -1;
  std::shared_ptr<const Analysis> scaling_analysis;
  for (ProblemId id : all_problem_ids()) {
    const Problem p = make_problem(id, opt.scale);
    AnalysisOptions aopt;
    aopt.ordering = OrderingKind::kNestedDissection;
    aopt.symmetric = p.symmetric;
    const std::shared_ptr<const Analysis> analysis =
        PreparedCache::global().analysis(p.matrix, aopt);

    SchedRow row;
    row.name = p.name;
    ParallelNumericStats st_static, st_wl, st_mem;
    row.static_s = timed_parallel(*analysis, sched_workers, false,
                                  RealPolicy::kWorkload, &st_static);
    row.dyn_workload_s = timed_parallel(*analysis, sched_workers, true,
                                        RealPolicy::kWorkload, &st_wl);
    row.dyn_memory_s = timed_parallel(*analysis, sched_workers, true,
                                      RealPolicy::kMemory, &st_mem);
    row.steals = st_wl.sched.steals;
    row.wakeups = st_wl.sched.wakeups;
    row.static_idle_ns = st_static.sched.idle_ns;
    row.dyn_idle_ns = st_wl.sched.idle_ns;
    row.static_ledger_peak = st_static.total_arena_peak_doubles;
    row.dyn_ledger_peak = std::max(st_wl.total_arena_peak_doubles,
                                   st_mem.total_arena_peak_doubles);
    row.subtrees = st_static.num_subtrees;
    const double best_dyn = std::min(row.dyn_workload_s, row.dyn_memory_s);
    row.dynamic_beats_static = best_dyn < row.static_s;
    const double gain = row.static_s / best_dyn;
    if (gain > best_gain) {
      best_gain = gain;
      best_gain_name = row.name;
    }
    if (analysis->tree.total_flops() > scaling_flops) {
      scaling_flops = analysis->tree.total_flops();
      scaling_name = row.name;
      scaling_analysis = analysis;
    }
    stable.row();
    stable.cell(row.name);
    stable.cell(row.static_s, 3);
    stable.cell(row.dyn_workload_s, 3);
    stable.cell(row.dyn_memory_s, 3);
    stable.cell(static_cast<long>(row.steals));
    stable.cell(static_cast<double>(row.static_idle_ns) / 1e6, 1);
    stable.cell(static_cast<double>(row.dyn_idle_ns) / 1e6, 1);
    stable.cell(gain, 2);
    sched_rows.push_back(row);
  }
  stable.print(std::cout);
  bool any_dynamic_win = false;
  for (const SchedRow& r : sched_rows)
    any_dynamic_win = any_dynamic_win || r.dynamic_beats_static;
  std::cout << "\ndynamic beats static on "
            << (any_dynamic_win ? "at least one" : "NO")
            << " problem at " << sched_workers << " workers (best gain "
            << best_gain << "x on " << best_gain_name << ")\n";

  // Worker scaling on the problem with the most flops.
  struct ScalingRow {
    unsigned workers;
    double static_s, dynamic_s;
    std::uint64_t steals;
  };
  std::vector<ScalingRow> scaling_rows;
  if (scaling_analysis) {
    TextTable wtable({"workers", "static (s)", "dynamic (s)", "steals",
                      "dyn x"});
    for (unsigned w : {1u, 2u, 4u, 8u}) {
      ParallelNumericStats st_s, st_d;
      ScalingRow srow;
      srow.workers = w;
      srow.static_s =
          timed_parallel(*scaling_analysis, w, false, RealPolicy::kWorkload,
                         &st_s);
      srow.dynamic_s =
          timed_parallel(*scaling_analysis, w, true, RealPolicy::kWorkload,
                         &st_d);
      srow.steals = st_d.sched.steals;
      wtable.row();
      wtable.cell(static_cast<long>(w));
      wtable.cell(srow.static_s, 3);
      wtable.cell(srow.dynamic_s, 3);
      wtable.cell(static_cast<long>(srow.steals));
      wtable.cell(srow.static_s / srow.dynamic_s, 2);
      scaling_rows.push_back(srow);
    }
    std::cout << "\nworker scaling on " << scaling_name << ":\n";
    wtable.print(std::cout);
  }

  // ---- BENCH_sched.json ----------------------------------------------------
  {
    std::ofstream sjson(opt.sched_json_path);
    sjson << "{\n"
          << "  \"bench\": \"bench_sched\",\n"
          << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
          << "  \"scale\": " << opt.scale << ",\n"
          << "  \"workers\": " << sched_workers << ",\n"
          << "  \"problems\": [\n";
    for (std::size_t i = 0; i < sched_rows.size(); ++i) {
      const SchedRow& r = sched_rows[i];
      sjson << "    {\"name\": \"" << r.name << "\""
            << ", \"static_s\": " << r.static_s
            << ", \"dyn_workload_s\": " << r.dyn_workload_s
            << ", \"dyn_memory_s\": " << r.dyn_memory_s
            << ", \"steals\": " << r.steals
            << ", \"wakeups\": " << r.wakeups
            << ", \"static_idle_ns\": " << r.static_idle_ns
            << ", \"dyn_idle_ns\": " << r.dyn_idle_ns
            << ", \"static_ledger_peak_doubles\": " << r.static_ledger_peak
            << ", \"dyn_ledger_peak_doubles\": " << r.dyn_ledger_peak
            << ", \"subtrees\": " << r.subtrees
            << ", \"dynamic_beats_static\": "
            << (r.dynamic_beats_static ? "true" : "false") << "}"
            << (i + 1 < sched_rows.size() ? "," : "") << "\n";
    }
    sjson << "  ],\n"
          << "  \"scaling_problem\": \"" << scaling_name << "\",\n"
          << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < scaling_rows.size(); ++i) {
      const ScalingRow& r = scaling_rows[i];
      sjson << "    {\"workers\": " << r.workers
            << ", \"static_s\": " << r.static_s
            << ", \"dynamic_s\": " << r.dynamic_s
            << ", \"steals\": " << r.steals << "}"
            << (i + 1 < scaling_rows.size() ? "," : "") << "\n";
    }
    sjson << "  ],\n"
          << "  \"dynamic_beats_static\": "
          << (any_dynamic_win ? "true" : "false") << "\n}\n";
    if (!sjson) {
      std::cerr << "bench_numeric: failed to write " << opt.sched_json_path
                << '\n';
      return 1;
    }
    std::cout << "\nwrote " << opt.sched_json_path << '\n';
  }

  // ---- BENCH_numeric.json --------------------------------------------------
  std::ofstream json(opt.json_path);
  json << "{\n"
       << "  \"bench\": \"bench_numeric\",\n"
       << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
       << "  \"scale\": " << opt.scale << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"kernel_sweep_speedup\": " << kernel_speedup << ",\n"
       << "  \"schur_width_selected\": \"" << selected_width << "\",\n"
       << "  \"schur_widths\": [\n";
  for (std::size_t i = 0; i < width_rows.size(); ++i)
    json << "    {\"name\": \"" << width_rows[i].name << "\", \"m\": "
         << kWidthM << ", \"n\": " << kWidthM << ", \"kb\": " << kWidthKb
         << ", \"gflops\": " << width_rows[i].gflops << "}"
         << (i + 1 < width_rows.size() ? "," : "") << "\n";
  json << "  ],\n"
       << "  \"kernel_sweep\": [\n";
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& r = kernel_rows[i];
    json << "    {\"problem\": \"" << r.problem << "\""
         << ", \"kernel\": \"" << (r.symmetric ? "ldlt" : "lu") << "\""
         << ", \"nfront\": " << r.nfront << ", \"npiv\": " << r.npiv
         << ", \"scalar_s\": " << r.ref_s
         << ", \"blocked_s\": " << r.blocked_s
         << ", \"blocked_gflops\": " << r.flops / r.blocked_s / 1e9 << "}"
         << (i + 1 < kernel_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"problems\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ProblemRow& r = rows[i];
    json << "    {\"name\": \"" << r.name << "\""
         << ", \"symmetric\": " << (r.symmetric ? "true" : "false")
         << ", \"flops\": " << r.flops
         << ", \"reference_s\": " << r.reference_s
         << ", \"serial_s\": " << r.serial_s
         << ", \"parallel_s\": " << r.parallel_s
         << ", \"serial_speedup\": " << r.reference_s / r.serial_s
         << ", \"parallel_speedup\": " << r.serial_s / r.parallel_s
         << ", \"serial_ledger_peak_doubles\": " << r.serial_ledger_peak
         << ", \"predicted_arena_doubles\": " << r.predicted_peak
         << ", \"parallel_ledger_peak_doubles\": " << r.parallel_ledger_peak
         << ", \"model_peak_entries\": " << r.model_peak
         << ", \"subtrees\": " << r.subtrees << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  // Numeric-robustness trajectory: pivot health across every run above
  // (the registry accumulated them via record_factor_stats).
  const auto& registry = obs::MetricsRegistry::global();
  const obs::Counter* perturbed =
      registry.find_counter("solver.factor.perturbed_pivots");
  const obs::Counter* zero_pivots =
      registry.find_counter("solver.factor.exact_zero_pivots");
  const obs::FloatGauge* growth =
      registry.find_float_gauge("solver.factor.pivot_growth_max");
  const obs::Counter* injected =
      registry.find_counter("fault.injected_count");
  json << "  ],\n"
       << "  \"robustness\": {\n"
       << "    \"perturbed_pivots\": " << (perturbed ? perturbed->value() : 0)
       << ",\n"
       << "    \"exact_zero_pivots\": "
       << (zero_pivots ? zero_pivots->value() : 0) << ",\n"
       << "    \"pivot_growth_max\": " << (growth ? growth->value() : 0.0)
       << ",\n"
       << "    \"fault_injected_count\": " << (injected ? injected->value() : 0)
       << "\n  },\n"
       << "  \"worst_parallel_speedup\": " << worst_parallel_speedup << ",\n"
       << "  \"serial_ledger_peaks_match\": "
       << (serial_ledger_matches ? "true" : "false")
       << "\n}\n";
  if (!json) {
    std::cerr << "bench_numeric: failed to write " << opt.json_path << '\n';
    return 1;
  }
  std::cout << "\nwrote " << opt.json_path << '\n';
  obs_args.finish();
  if (!serial_ledger_matches) {
    std::cerr << "bench_numeric: serial ledger peak diverged from prediction\n";
    return 1;
  }
  return 0;
}
