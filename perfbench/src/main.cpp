// perfbench: memfront's end-to-end benchmark, with a traced per-layer run.
//
//   perfbench --workload <lu-incore|ldlt-ooc|paper-sweep> --seed N
//             --seconds S --trace 0|1 --spill-dir DIR [--spans-out FILE]
//
// Each workload sets up (inputs, reference results, solve graph, warm-up
// calls) three times and reports the median set-up time, then repeats
// its timed calls into the library's public functions for S seconds and
// reports the median of each call. Every repetition's outputs are
// checked against the set-up references; each check is one attempted
// operation. With --trace 1 the repetitions alternate between recorded
// and unrecorded, the spans give the per-layer self-time table, and the
// ceiling probes run. The last line of stdout is the JSON result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "memfront/core/experiment.hpp"
#include "memfront/frontal/arena.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/ooc/planner.hpp"
#include "memfront/solver/analysis.hpp"
#include "memfront/solver/numeric_factor.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/solve.hpp"
#include "memfront/support/parallel_for.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace memfront;

constexpr index_t kNrhs = 64;
constexpr int kSetupPasses = 3;
constexpr double kLayerTolerance = 0.01;  // clipped share of a call's wall
constexpr double kMaxBackwardError = 1e-10;
constexpr index_t kProbeMaxFront = 3000;
constexpr int kSolvesPerRep = 3;        // lu-incore
constexpr int kSimulationRounds = 32;  // paper-sweep, see PaperSweep

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spill_dir;
  std::string spans_out;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;
using Samples = std::map<std::string, std::vector<double>>;

/// Output checks: each is one attempted operation, a failure a failed one.
struct Checks {
  long attempted = 0;
  long failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10)
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
};

struct Run {
  Options opt;
  SpanLog log{false};
  Checks checks;
  Samples samples;  // per repetition; traced reps only when tracing
};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_factors(const Factorization& a, const Factorization& b) {
  if (a.nodes.size() != b.nodes.size() || a.row_of != b.row_of) return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i)
    if (!same_bits(a.nodes[i].panel, b.nodes[i].panel) ||
        !same_bits(a.nodes[i].u12, b.nodes[i].u12))
      return false;
  return true;
}

double norm_inf(const CscMatrix& a) {
  std::vector<double> rows(static_cast<std::size_t>(a.nrows()), 0.0);
  for (index_t j = 0; j < a.ncols(); ++j) {
    const auto r = a.column(j);
    const auto v = a.column_values(j);
    for (std::size_t k = 0; k < r.size(); ++k)
      rows[static_cast<std::size_t>(r[k])] += std::abs(v[k]);
  }
  return rows.empty() ? 0.0 : *std::max_element(rows.begin(), rows.end());
}

/// Largest normwise backward error ||b - Ax|| / (||A|| ||x|| + ||b||)
/// over the panel's columns (infinity norms).
double max_backward_error(const CscMatrix& a, double anorm,
                          const std::vector<double>& b,
                          const std::vector<double>& x, index_t nrhs) {
  const std::size_t n = static_cast<std::size_t>(a.nrows());
  std::vector<double> ax(n);
  double worst = 0.0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(nrhs); ++c) {
    const std::span<const double> xc(x.data() + n * c, n);
    const std::span<const double> bc(b.data() + n * c, n);
    a.multiply(xc, ax);
    double r = 0.0, xn = 0.0, bn = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      r = std::max(r, std::abs(bc[i] - ax[i]));
      xn = std::max(xn, std::abs(xc[i]));
      bn = std::max(bn, std::abs(bc[i]));
    }
    const double err = r / (anorm * xn + bn);
    if (std::isnan(err)) return err;  // fails every <= check
    worst = std::max(worst, err);
  }
  return worst;
}

double symbolic_seconds(const Analysis& an) {
  return an.timings.symbolic_s + an.timings.splitting_s + an.timings.finalize_s;
}

/// Records an analysis's phase timings as derived children of its call.
void derive_analysis(SpanLog& log, int call, const Analysis& an) {
  log.derived(call, "ordering", "ordering", an.timings.ordering_s);
  log.derived(call, "symbolic", "symbolic", symbolic_seconds(an));
}

/// End-to-end metrics each workload samples once per timed call; the
/// main loop adds setup_s and peak_rss_bytes.
const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"analyze_s", "s"},         {"factor_s", "s"}, {"factor_serial_s", "s"},
      {"solve_s", "s"},           {"active_peak_bytes", "bytes"}};
  return units;
}

/// Per-layer metrics of a traced run. Samples recorded under these names
/// are reported as their median; a workload that does not run a layer
/// reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sparse.generate_s", "s"},
      {"ordering.s", "s"},
      {"symbolic.s", "s"},
      {"symbolic.mapping_s", "s"},
      {"symbolic.flops", "flop"},
      {"symbolic.factor_bytes", "bytes"},
      {"symbolic.arena_pred_bytes", "bytes"},
      {"frontal.kernel_gflops", "GFLOP/s"},
      {"frontal.flops_per_byte", "flop/byte"},
      {"frontal.schur_ceiling_gflops", "GFLOP/s"},
      {"frontal.kernel_ceiling_frac", "frac"},
      {"solver.factor_gflops", "GFLOP/s"},
      {"solver.idle_frac", "frac"},
      {"solver.upper_nodes", "count"},
      {"solver.steals", "count"},
      {"solver.wakeups", "count"},
      {"solver.dispatch_consults", "count"},
      {"solver.admit_consults", "count"},
      {"solver.solve_gbps", "GB/s"},
      {"solver.solve_gflops", "GFLOP/s"},
      {"solver.solve_ceiling_frac", "frac"},
      {"solver.solve_graph_s", "s"},
      {"ooc.io_bytes", "bytes"},
      {"ooc.spill_bytes", "bytes"},
      {"ooc.reload_bytes", "bytes"},
      {"ooc.factor_write_bytes", "bytes"},
      {"ooc.spill_events", "count"},
      {"ooc.io_retries", "count"},
      {"ooc.stall_frac", "frac"},
      {"ooc.overlap_s", "s"},
      {"ooc.spill_per_overflow", "frac"},
      {"ooc.reload_factors_s", "s"},
      {"ooc.planner_s", "s"},
      {"core.sim_s", "s"},
      {"core.sim_events", "count"},
      {"core.sim_events_per_s", "1/s"},
      {"core.sim_peak_bytes", "bytes"},
      {"ceiling.stream_gbps", "GB/s"},
      {"obs.trace_overhead_frac", "frac"},
      {"layer.sum_err_frac", "frac"},
      {"layer.bench_s", "s"},
      {"layer.ordering_s", "s"},
      {"layer.symbolic_s", "s"},
      {"layer.solver_s", "s"},
      {"layer.solver_idle_s", "s"},
      {"layer.ooc_s", "s"},
      {"layer.ooc_stall_s", "s"},
      {"layer.core_s", "s"},
      {"layer.support_idle_s", "s"},
  };
  return units;
}

void put(Metrics& out, const std::string& name, double value) {
  for (const auto& [metric, unit] : layer_metric_units())
    if (metric == name) {
      out[name] = {value, unit};
      return;
    }
  throw std::logic_error("unknown layer metric " + name);
}

double med(const Run& run, const std::string& key) {
  const auto it = run.samples.find(key);
  return it == run.samples.end() ? 0.0 : median(it->second);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Worker threads of the timed calls.
  virtual unsigned threads() const = 0;
  /// The Table-1 problems the workload generates.
  virtual std::vector<ProblemId> problems() const = 0;
  /// Builds inputs and references and warms up; returns generator seconds.
  virtual double setup(Run& run, int root) = 0;
  /// One timed repetition under span `root`.
  virtual void rep(Run& run, int rep, int root) = 0;
  /// Traced run: the layer metrics the samples do not give directly,
  /// and the workload's probes.
  virtual void layers(Run& run, Metrics& out) = 0;
};

/// Simulates the workload's own tree under the policy its real run
/// uses, at its worker count: the paper's testbed next to the real run.
void simulate_own_tree(Run& run, const std::shared_ptr<const Analysis>& an,
                       bool memory_policy, unsigned workers, Metrics& out) {
  ExperimentSetup setup;
  setup.nprocs = static_cast<index_t>(workers);
  setup.symmetric = an->tree.symmetric();
  if (memory_policy) {
    setup.slave_strategy = SlaveStrategy::kMemoryImproved;
    setup.task_strategy = TaskStrategy::kMemoryAware;
  }
  const PreparedExperiment prep = make_prepared(an, mapping_options(setup));
  Call sim(run.log, "run_prepared", "core", -1, -1);
  const ExperimentOutcome outcome = run_prepared(prep, setup);
  const double sim_s = sim.stop();
  Call plan(run.log, "plan_minimum_budget", "ooc", -1, -1);
  const PlannerResult planned =
      plan_minimum_budget(an->tree, an->memory, prep.mapping, an->traversal,
                          sched_config(setup));
  const double plan_s = plan.stop();
  run.checks.expect(planned.at_min.feasible, "planner minimum is feasible");
  put(out, "symbolic.mapping_s", prep.mapping_seconds);
  put(out, "core.sim_s", sim_s);
  put(out, "core.sim_events",
      static_cast<double>(outcome.parallel.events_processed));
  put(out, "core.sim_events_per_s",
      static_cast<double>(outcome.parallel.events_processed) / sim_s);
  put(out, "core.sim_peak_bytes",
      static_cast<double>(outcome.max_stack_peak) * 8.0);
  put(out, "ooc.planner_s", plan_s);
}

void tree_counts(const Analysis& an, Metrics& out) {
  put(out, "symbolic.flops", static_cast<double>(an.tree.total_flops()));
  put(out, "symbolic.factor_bytes",
      static_cast<double>(an.tree.total_factor_entries()) * 8.0);
  put(out, "symbolic.arena_pred_bytes",
      static_cast<double>(predict_arena_peak(an.tree, an.traversal)) * 8.0);
}

void kernel_layers(const std::vector<FrontShape>& fronts, Metrics& out) {
  const KernelProbe k = kernel_probe(fronts);
  put(out, "frontal.kernel_gflops", k.gflops);
  put(out, "frontal.flops_per_byte", k.flops_per_byte);
}

/// The application workloads: one matrix analysed, factored serially and
/// in parallel, and a 64-column right-hand-side panel solved.
class AppWorkload : public Workload {
 protected:
  /// Generates the matrix and right-hand sides, analyses, and builds the
  /// solve graph; returns the generator's seconds.
  double setup_inputs(Run& run, int root, ProblemId id) {
    Call gen(run.log, "grid_matrix", "sparse", root, -1);
    a_ = table1_matrix(id, run.opt.seed);
    const double gen_s = gen.stop();
    anorm_ = norm_inf(a_);
    b_ = rhs_panel(a_.nrows(), kNrhs, run.opt.seed);
    x_.assign(b_.size(), 0.0);
    x_ref_.assign(b_.size(), 0.0);
    analysis_ = std::make_shared<Analysis>(analyze(a_, analysis_options()));
    Call c(run.log, "build_solve_graph", "solver", root, -1);
    graph_ = build_solve_graph(*analysis_, solve_options());
    run.samples["solver.solve_graph_s"].push_back(c.stop());
    return gen_s;
  }

  /// Solves the panel into x_ref_ with `fact` and checks its backward error.
  void solve_reference(Run& run, const Factorization& fact) {
    solve_factorized_multi(*analysis_, fact, graph_, b_, kNrhs, x_ref_, ws_,
                           solve_options());
    run.checks.expect(max_backward_error(a_, anorm_, b_, x_ref_, kNrhs) <=
                          kMaxBackwardError,
                      "reference backward error <= 1e-10");
  }

  Analysis timed_analyze(Run& run, int root, int r) {
    Call c(run.log, "analyze", "solver", root, r);
    Analysis an = analyze(a_, analysis_options());
    run.samples["analyze_s"].push_back(c.stop());
    derive_analysis(run.log, c.id(), an);
    run.samples["ordering.s"].push_back(an.timings.ordering_s);
    run.samples["symbolic.s"].push_back(symbolic_seconds(an));
    return an;
  }

  /// Samples of one parallel factorization that took `wall`; the
  /// workers' mean idle time becomes a derived span of `call`.
  static void record_parallel(Run& run, int call,
                              const ParallelNumericStats& ps, double wall) {
    Samples& s = run.samples;
    const double idle = static_cast<double>(ps.sched.idle_ns) * 1e-9;
    run.log.derived(call, "worker_idle", "solver_idle", idle / ps.workers);
    s["factor_s"].push_back(wall);
    s["solver.idle_frac"].push_back(idle / (ps.workers * wall));
    s["solver.upper_nodes"].push_back(static_cast<double>(ps.num_upper_nodes));
    s["solver.steals"].push_back(static_cast<double>(ps.sched.steals));
    s["solver.wakeups"].push_back(static_cast<double>(ps.sched.wakeups));
    s["solver.dispatch_consults"].push_back(
        static_cast<double>(ps.sched.dispatch_consults));
    s["solver.admit_consults"].push_back(
        static_cast<double>(ps.sched.admit_consults));
  }

  /// Tree counts, rates, the simulator on the workload's own tree and
  /// the kernel probe on its largest fronts.
  void app_layers(Run& run, bool memory_policy, Metrics& out) {
    const AssemblyTree& tree = analysis_->tree;
    tree_counts(*analysis_, out);
    put(out, "solver.factor_gflops", static_cast<double>(tree.total_flops()) /
                                         med(run, "factor_s") / 1e9);
    // Factor bytes the two sweeps read, from the factor size: each stored
    // LU entry once (L forward, U backward), each LDLT entry twice (L,
    // then its transpose); every read is one multiply-add per column.
    const double read = static_cast<double>(tree.total_factor_entries()) *
                        (tree.symmetric() ? 2.0 : 1.0);
    const double solve_s = med(run, "solve_s");
    put(out, "solver.solve_gbps", read * 8.0 / solve_s / 1e9);
    put(out, "solver.solve_gflops",
        2.0 * read * static_cast<double>(kNrhs) / solve_s / 1e9);
    simulate_own_tree(run, analysis_, memory_policy, threads(), out);
    std::vector<FrontShape> fronts;
    largest_fronts(tree, 3, kProbeMaxFront, fronts);
    kernel_layers(fronts, out);
  }

  virtual AnalysisOptions analysis_options() const = 0;
  virtual SolveOptions solve_options() const = 0;

  CscMatrix a_;
  double anorm_ = 0.0;
  std::shared_ptr<Analysis> analysis_;
  SolveGraph graph_;
  SolveWorkspace ws_;
  std::vector<double> b_, x_, x_ref_;
};

// ---- lu-incore ---------------------------------------------------------

/// XENON2 (3D 27-point lattice, unsymmetric LU, 6.7 GFlop), nested
/// dissection, in core: serial and 4-worker factorizations and a
/// 64-column panel solve at 4 threads.
class LuIncore final : public AppWorkload {
 public:
  static constexpr unsigned kWorkers = 4;
  unsigned threads() const override { return kWorkers; }
  std::vector<ProblemId> problems() const override {
    return {ProblemId::kXenon2};
  }

  double setup(Run& run, int root) override {
    const double gen_s = setup_inputs(run, root, ProblemId::kXenon2);
    // Reference and warm-up in one: the 4-worker factorization's panel
    // solution. Every repetition also checks the parallel factors
    // against the serial ones, so the reference is the serial one too.
    solve_reference(run,
                    parallel_numeric_factorize(*analysis_, parallel_options()));
    return gen_s;
  }

  void rep(Run& run, int r, int root) override {
    const Analysis an = timed_analyze(run, root, r);
    Factorization serial;
    {
      Call c(run.log, "numeric_factorize", "solver", root, r);
      serial = numeric_factorize(an);
      run.samples["factor_serial_s"].push_back(c.stop());
    }
    ParallelNumericStats ps;
    Factorization fact;
    {
      Call c(run.log, "parallel_numeric_factorize", "solver", root, r);
      fact = parallel_numeric_factorize(an, parallel_options(), &ps);
      record_parallel(run, c.id(), ps, c.stop());
    }
    run.samples["active_peak_bytes"].push_back(
        static_cast<double>(ps.total_arena_peak_doubles) * 8.0);
    {
      Call c(run.log, "check_factors", "bench", root, r);
      run.checks.expect(same_factors(serial, fact),
                        "lu-incore parallel factors == serial factors");
      serial = Factorization{};
    }
    // The solve is the cheapest call and the noisiest; it runs
    // kSolvesPerRep times on the same factors.
    for (int k = 0; k < kSolvesPerRep; ++k) {
      {
        Call c(run.log, "solve_factorized_multi", "solver", root, r);
        solve_factorized_multi(an, fact, graph_, b_, kNrhs, x_, ws_,
                               solve_options());
        run.samples["solve_s"].push_back(c.stop());
      }
      Call c(run.log, "check_solution", "bench", root, r);
      run.checks.expect(same_bits(x_, x_ref_),
                        "lu-incore solution == set-up reference");
    }
    Call c(run.log, "check_backward_error", "bench", root, r);
    run.checks.expect(max_backward_error(a_, anorm_, b_, x_, kNrhs) <=
                          kMaxBackwardError,
                      "lu-incore backward error <= 1e-10");
  }

  void layers(Run& run, Metrics& out) override {
    app_layers(run, /*memory_policy=*/false, out);
  }

 private:
  AnalysisOptions analysis_options() const override {
    AnalysisOptions o;
    o.ordering = OrderingKind::kNestedDissection;
    o.symmetric = false;
    return o;
  }
  SolveOptions solve_options() const override {
    SolveOptions o;
    o.nthreads = kWorkers;
    return o;
  }
  static ParallelNumericOptions parallel_options() {
    ParallelNumericOptions o;
    o.nthreads = kWorkers;
    o.sched.policy = RealPolicy::kWorkload;
    o.sched.steal = true;
    return o;
  }
};

// ---- ldlt-ooc ----------------------------------------------------------

/// SHIP_003 (thin-shell FEM, symmetric LDLT, 1.8 GFlop), nested
/// dissection: the in-core serial factorization as the baseline, the
/// 3-worker memory-policy factorization under a hard budget of
/// predict_min_ooc_budget spilling to disk, then the factor reload and
/// a 64-column panel solve at 4 threads. Only the parallel run is
/// budgeted, so a repetition writes its spill and factor volume once.
class LdltOoc final : public AppWorkload {
 public:
  static constexpr unsigned kWorkers = 3;
  unsigned threads() const override { return kWorkers; }
  std::vector<ProblemId> problems() const override {
    return {ProblemId::kShip003};
  }

  explicit LdltOoc(std::string spill_dir) : spill_dir_(std::move(spill_dir)) {}

  double setup(Run& run, int root) override {
    const double gen_s = setup_inputs(run, root, ProblemId::kShip003);
    budget_ = predict_min_ooc_budget(analysis_->tree, analysis_->traversal);
    // Reference: an in-core factorization and its panel solution.
    ref_ = numeric_factorize(*analysis_);
    solve_reference(run, ref_);
    // Warm-up of the budgeted path.
    const Factorization warm =
        parallel_numeric_factorize(*analysis_, parallel_options());
    solve_factorized_multi(*analysis_, warm, graph_, b_, kNrhs, x_, ws_,
                           solve_options());
    return gen_s;
  }

  void rep(Run& run, int r, int root) override {
    Samples& s = run.samples;
    const Analysis an = timed_analyze(run, root, r);
    {
      Call c(run.log, "numeric_factorize", "solver", root, r);
      const Factorization serial = numeric_factorize(an);
      s["factor_serial_s"].push_back(c.stop());
      Call check(run.log, "check_factors", "bench", root, r);
      run.checks.expect(same_factors(serial, ref_),
                        "ldlt-ooc serial factors == set-up factors");
    }
    ParallelNumericStats ps;
    Factorization fact;
    {
      Call c(run.log, "parallel_numeric_factorize", "solver", root, r);
      fact = parallel_numeric_factorize(an, parallel_options(), &ps);
      const double wall = c.stop();
      record_parallel(run, c.id(), ps, wall);
      const OocExecStats& o = fact.stats.ooc;
      run.log.derived(c.id(), "admission_stall", "ooc_stall",
                      o.stall_seconds / ps.workers);
      s["ooc.stall_frac"].push_back(o.stall_seconds / (ps.workers * wall));
      check_budget(run, o);
    }
    const OocExecStats& o = fact.stats.ooc;
    s["active_peak_bytes"].push_back(
        static_cast<double>(o.charged_peak_doubles) * 8.0);
    s["ooc.overlap_s"].push_back(o.overlap_seconds);
    s["ooc.spill_bytes"].push_back(static_cast<double>(o.spill_doubles) * 8.0);
    s["ooc.reload_bytes"].push_back(
        static_cast<double>(o.reload_doubles) * 8.0);
    s["ooc.factor_write_bytes"].push_back(
        static_cast<double>(o.factor_write_doubles) * 8.0);
    s["ooc.io_bytes"].push_back(
        static_cast<double>(o.spill_doubles + o.reload_doubles +
                            o.factor_write_doubles) *
        8.0);
    s["ooc.spill_events"].push_back(static_cast<double>(o.spill_events));
    s["ooc.io_retries"].push_back(static_cast<double>(o.io_retries));
    {
      Call c(run.log, "reload_and_solve", "bench", root, r);
      {
        Call reload(run.log, "ensure_factors_resident", "ooc", c.id(), r);
        ensure_factors_resident(fact);
        s["ooc.reload_factors_s"].push_back(reload.stop());
      }
      {
        Call solve(run.log, "solve_factorized_multi", "solver", c.id(), r);
        solve_factorized_multi(an, fact, graph_, b_, kNrhs, x_, ws_,
                               solve_options());
        solve.stop();
      }
      s["solve_s"].push_back(c.stop());
    }
    Call c(run.log, "check_solution", "bench", root, r);
    run.checks.expect(same_bits(x_, x_ref_),
                      "ldlt-ooc solution == in-core reference");
  }

  void layers(Run& run, Metrics& out) override {
    app_layers(run, /*memory_policy=*/true, out);
    const double overflow =
        static_cast<double>(
            predict_arena_peak(analysis_->tree, analysis_->traversal) -
            budget_) *
        8.0;
    put(out, "ooc.spill_per_overflow",
        overflow > 0.0 ? med(run, "ooc.spill_bytes") / overflow : 0.0);
  }

 private:
  AnalysisOptions analysis_options() const override {
    AnalysisOptions o;
    o.ordering = OrderingKind::kNestedDissection;
    o.symmetric = true;
    return o;
  }
  SolveOptions solve_options() const override {
    SolveOptions o;
    o.nthreads = 4;
    return o;
  }
  OocExecConfig ooc() const {
    OocExecConfig o;
    o.enabled = true;
    o.budget_doubles = budget_;
    o.spill_dir = spill_dir_;
    return o;
  }
  ParallelNumericOptions parallel_options() const {
    ParallelNumericOptions o;
    o.nthreads = kWorkers;
    o.sched.policy = RealPolicy::kMemory;
    o.sched.steal = true;
    o.ooc = ooc();
    return o;
  }
  void check_budget(Run& run, const OocExecStats& o) const {
    run.checks.expect(o.charged_peak_doubles <= budget_,
                      "ldlt-ooc charged peak <= budget");
    run.checks.expect(o.overrun_peak_doubles == 0, "ldlt-ooc no overrun");
  }

  std::string spill_dir_;
  count_t budget_ = 0;
  Factorization ref_;
};

// ---- paper-sweep -------------------------------------------------------

/// The paper's experiment: the 8 Table-1 problems x the 4 paper
/// orderings at nprocs = 32, each cell simulated under the workload
/// (MUMPS) and memory-based strategies, plus the minimum-budget planner
/// per strategy. Three phases spread the cells over 4 threads: analysis
/// (prepare_experiment), simulation (run_prepared; also run on one
/// thread), planning (plan_minimum_budget).
class PaperSweep final : public Workload {
 public:
  static constexpr unsigned kThreads = 4;
  unsigned threads() const override { return kThreads; }
  std::vector<ProblemId> problems() const override {
    return all_problem_ids();
  }

  double setup(Run& run, int root) override {
    double gen_s = 0.0;
    problems_.clear();
    for (ProblemId id : all_problem_ids()) {
      Call gen(run.log, generator_name(id), "sparse", root, -1);
      problems_.push_back({id, table1_matrix(id, run.opt.seed)});
      gen_s += gen.stop();
    }
    cells_.clear();
    for (std::size_t p = 0; p < problems_.size(); ++p)
      for (OrderingKind ordering : paper_orderings()) {
        Cell c;
        c.problem = p;
        c.base.nprocs = 32;
        c.base.ordering = ordering;
        c.base.symmetric = table1_symmetric(problems_[p].id);
        c.memory = c.base;
        c.memory.slave_strategy = SlaveStrategy::kMemoryImproved;
        c.memory.task_strategy = TaskStrategy::kMemoryAware;
        cells_.push_back(c);
      }
    // Reference: the set-up sweep's peaks and minimum budgets.
    const Sweep ref = sweep(run, -1, root, nullptr);
    ref_ = ref.results;
    for (const CellResult& c : ref_)
      run.checks.expect(c.feasible, "paper-sweep reference minimum feasible");
    return gen_s;
  }

  void rep(Run& run, int r, int root) override {
    Samples& s = run.samples;
    const Sweep result = sweep(run, r, root, &s);
    double peak = 0.0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const CellResult& got = result.results[i];
      peak += static_cast<double>(got.memory_peak) * 8.0;
      run.checks.expect(got == ref_[i],
                        "paper-sweep cell " + std::to_string(i) +
                            " identical to the set-up sweep");
    }
    run.checks.expect(result.rounds_match,
                      "paper-sweep simulations identical across rounds and "
                      "thread counts");
    s["active_peak_bytes"].push_back(peak);
  }

  void layers(Run& run, Metrics& out) override {
    put(out, "core.sim_events_per_s",
        med(run, "core.sim_events") / med(run, "core.sim_s"));
    put(out, "core.sim_peak_bytes", med(run, "active_peak_bytes"));
    double flops = 0.0, factor_bytes = 0.0, arena = 0.0;
    std::vector<FrontShape> fronts;
    for (const auto& prep : prepared_) {
      const Analysis& an = *prep.analysis;
      flops += static_cast<double>(an.tree.total_flops());
      factor_bytes += static_cast<double>(an.tree.total_factor_entries()) * 8.0;
      arena += static_cast<double>(predict_arena_peak(an.tree, an.traversal)) *
               8.0;
      largest_fronts(an.tree, 3, kProbeMaxFront, fronts);
    }
    put(out, "symbolic.flops", flops);
    put(out, "symbolic.factor_bytes", factor_bytes);
    put(out, "symbolic.arena_pred_bytes", arena);
    std::sort(fronts.begin(), fronts.end(),
              [](const FrontShape& x, const FrontShape& y) {
                return x.nfront > y.nfront;
              });
    fronts.resize(std::min<std::size_t>(fronts.size(), 3));
    kernel_layers(fronts, out);
  }

 private:
  struct Problem {
    ProblemId id;
    CscMatrix matrix;
  };
  struct Cell {
    std::size_t problem = 0;
    ExperimentSetup base;    // workload (MUMPS) strategy
    ExperimentSetup memory;  // memory-based strategy
  };
  struct CellResult {
    count_t base_peak = 0, memory_peak = 0;
    count_t base_min_budget = 0, memory_min_budget = 0;
    bool feasible = true;  // both planner minima
    bool operator==(const CellResult&) const = default;
  };
  struct Sweep {
    std::vector<CellResult> results;
    bool rounds_match = false;  // every simulation round, 4 and 1 threads
  };
  struct Simulated {
    count_t peak = 0;
    double makespan = 0.0;
    std::uint64_t events = 0;
    double seconds = 0.0;
  };
  struct Leg {
    std::size_t cell;
    bool memory;
  };

  static const char* generator_name(ProblemId id) {
    if (id == ProblemId::kGupta3) return "lp_normal_equations";
    if (id == ProblemId::kPre2 || id == ProblemId::kTwotone)
      return "circuit_matrix";
    return "grid_matrix";
  }

  std::vector<Leg> legs() const {
    std::vector<Leg> out;
    for (std::size_t c = 0; c < cells_.size(); ++c)
      for (bool memory : {false, true}) out.push_back({c, memory});
    return out;
  }

  const ExperimentSetup& setup_of(const Leg& leg) const {
    return leg.memory ? cells_[leg.cell].memory : cells_[leg.cell].base;
  }

  /// One sweep; phase walls and per-call sums go to `s` when given.
  Sweep sweep(Run& run, int r, int root, Samples* s) {
    std::vector<std::size_t> cell_ids(cells_.size());
    for (std::size_t i = 0; i < cell_ids.size(); ++i) cell_ids[i] = i;
    const std::vector<Leg> all_legs = legs();
    std::vector<std::size_t> leg_ids(all_legs.size());
    for (std::size_t i = 0; i < leg_ids.size(); ++i) leg_ids[i] = i;
    Call analysis(run.log, "analysis_phase", "support_idle", root, r, kThreads);
    prepared_ = parallel_map(
        cell_ids,
        [&](std::size_t i) {
          const Cell& cell = cells_[i];
          Call c(run.log, "prepare_experiment", "core", analysis.id(), r);
          PreparedExperiment prep = prepare_experiment(
              problems_[cell.problem].matrix, cell.base);
          c.stop();
          derive_analysis(run.log, c.id(), *prep.analysis);
          run.log.derived(c.id(), "mapping", "symbolic", prep.mapping_seconds);
          return prep;
        },
        kThreads);
    const double analyze_s = analysis.stop();

    // One simulation takes about a millisecond, shorter than a
    // scheduling quantum of this machine, and a 4-thread phase of 64 of
    // them waits on its slowest thread. So a sample runs
    // kSimulationRounds rounds of every leg in one parallel_map and
    // reports the wall per round. Job j simulates leg j % legs.
    const std::size_t rounds = s != nullptr ? kSimulationRounds : 1;
    std::vector<std::size_t> jobs(rounds * all_legs.size());
    std::iota(jobs.begin(), jobs.end(), std::size_t{0});
    const auto simulate = [&](unsigned threads) {
      Call phase(run.log, threads > 1 ? "simulate_phase" : "simulate_serial",
                 "support_idle", root, r, static_cast<int>(threads));
      std::vector<Simulated> out = parallel_map(
          jobs,
          [&](std::size_t j) {
            const Leg& leg = all_legs[j % all_legs.size()];
            Call c(run.log, "run_prepared", "core", phase.id(), r);
            const ExperimentOutcome o =
                run_prepared(prepared_[leg.cell], setup_of(leg));
            const double seconds = c.stop();
            return Simulated{o.max_stack_peak, o.makespan,
                             o.parallel.events_processed, seconds};
          },
          threads);
      return std::make_pair(phase.stop() / static_cast<double>(rounds),
                            std::move(out));
    };
    const auto [factor_s, sims] = simulate(kThreads);
    const auto [factor_serial_s, serial_sims] = simulate(1);

    Call planning(run.log, "planner_phase", "support_idle", root, r, kThreads);
    std::vector<double> plan_t(all_legs.size());
    const std::vector<PlannerResult> plans = parallel_map(
        leg_ids,
        [&](std::size_t i) {
          const Leg& leg = all_legs[i];
          const PreparedExperiment& prep = prepared_[leg.cell];
          Call c(run.log, "plan_minimum_budget", "ooc", planning.id(), r);
          PlannerResult plan = plan_minimum_budget(
              prep.analysis->tree, prep.analysis->memory, prep.mapping,
              prep.analysis->traversal, sched_config(setup_of(leg)));
          plan_t[i] = c.stop();
          return plan;
        },
        kThreads);
    const double solve_s = planning.stop();

    Sweep result;
    result.results.resize(cells_.size());
    for (std::size_t i = 0; i < all_legs.size(); ++i) {
      const Leg& leg = all_legs[i];
      CellResult& cell = result.results[leg.cell];
      (leg.memory ? cell.memory_peak : cell.base_peak) = sims[i].peak;
      (leg.memory ? cell.memory_min_budget : cell.base_min_budget) =
          plans[i].min_budget;
      cell.feasible = cell.feasible && plans[i].at_min.feasible;
    }
    result.rounds_match = true;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Simulated& first = sims[j % all_legs.size()];
      for (const Simulated& other : {sims[j], serial_sims[j]})
        result.rounds_match = result.rounds_match &&
                              other.peak == first.peak &&
                              other.makespan == first.makespan;
    }
    if (s != nullptr) {
      (*s)["analyze_s"].push_back(analyze_s);
      (*s)["factor_s"].push_back(factor_s);
      (*s)["factor_serial_s"].push_back(factor_serial_s);
      (*s)["solve_s"].push_back(solve_s);
      double ordering = 0, symbolic = 0, mapping = 0, events = 0, sim = 0;
      for (const PreparedExperiment& prep : prepared_) {
        ordering += prep.analysis->timings.ordering_s;
        symbolic += symbolic_seconds(*prep.analysis);
        mapping += prep.mapping_seconds;
      }
      // Per round, from the uncontended 1-thread calls.
      for (const Simulated& sim_out : serial_sims) {
        events += static_cast<double>(sim_out.events);
        sim += sim_out.seconds;
      }
      (*s)["ordering.s"].push_back(ordering);
      (*s)["symbolic.s"].push_back(symbolic);
      (*s)["symbolic.mapping_s"].push_back(mapping);
      (*s)["core.sim_s"].push_back(sim / static_cast<double>(rounds));
      (*s)["core.sim_events"].push_back(events / static_cast<double>(rounds));
      (*s)["ooc.planner_s"].push_back(
          std::accumulate(plan_t.begin(), plan_t.end(), 0.0));
    }
    return result;
  }

  std::vector<Problem> problems_;
  std::vector<Cell> cells_;
  std::vector<PreparedExperiment> prepared_;
  std::vector<CellResult> ref_;
};

// ---- command line and main loop ----------------------------------------

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      opt.workload = value;
    else if (flag == "--seed")
      opt.seed = std::stoull(value);
    else if (flag == "--seconds")
      opt.seconds = std::stod(value);
    else if (flag == "--trace")
      opt.trace = value != "0";
    else if (flag == "--spill-dir")
      opt.spill_dir = value;
    else if (flag == "--spans-out")
      opt.spans_out = value;
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "lu-incore") return std::make_unique<LuIncore>();
  if (opt.workload == "ldlt-ooc") {
    if (opt.spill_dir.empty())
      throw std::invalid_argument("ldlt-ooc needs --spill-dir");
    return std::make_unique<LdltOoc>(opt.spill_dir);
  }
  if (opt.workload == "paper-sweep") return std::make_unique<PaperSweep>();
  throw std::invalid_argument("unknown workload " + opt.workload);
}

void print_result(const Run& run, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              run.checks.failed == 0 ? "true" : "false", run.checks.attempted,
              run.checks.failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run_main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Run run;
  run.opt = parse(argc, argv);
  const std::unique_ptr<Workload> workload = make_workload(run.opt);
  run.log.set_enabled(run.opt.trace);

  // Set-up, several times; the first pass counts from process start.
  std::vector<double> setup_s, generate_s;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    const Clock::time_point t0 = pass == 0 ? process_start : Clock::now();
    Call c(run.log, "setup", "bench", -1, -1);
    generate_s.push_back(workload->setup(run, c.id()));
    c.stop();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::vector<double> graph_s = run.samples["solver.solve_graph_s"];
  run.samples.clear();

  // Timed repetitions for --seconds: a repetition starts only if one
  // more of median length still fits. A traced run alternates recorded
  // and unrecorded repetitions.
  std::vector<double> traced_wall, plain_wall, all_wall;
  const int min_reps = run.opt.trace ? 4 : 3;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < min_reps || seconds_between(t0, Clock::now()) +
                                          median(all_wall) <=
                                      run.opt.seconds;
       ++r) {
    const bool traced = run.opt.trace && r % 2 == 0;
    run.log.set_enabled(traced);
    Samples saved;
    if (run.opt.trace && !traced) std::swap(saved, run.samples);
    Call root(run.log, "repetition", "bench", -1, r);
    try {
      workload->rep(run, r, root.id());
    } catch (const std::exception& e) {
      ++run.checks.attempted;
      ++run.checks.failed;
      std::fprintf(stderr, "repetition %d failed: %s\n", r, e.what());
    }
    all_wall.push_back(root.stop());
    (traced || !run.opt.trace ? traced_wall : plain_wall)
        .push_back(all_wall.back());
    if (run.opt.trace && !traced) std::swap(saved, run.samples);
  }
  run.log.set_enabled(run.opt.trace);
  for (const auto& [name, values] : run.samples) {
    std::fprintf(stderr, "%s:", name.c_str());
    for (double v : values) std::fprintf(stderr, " %.6g", v);
    std::fprintf(stderr, "\n");
  }
  if (run.opt.seed == 0)
    for (ProblemId id : workload->problems())
      run.checks.expect(table1_matrix(id, 0).fingerprint() ==
                            make_problem(id, 1.0).matrix.fingerprint(),
                        "seed 0 reproduces make_problem(" + problem_name(id) +
                            ")");

  Metrics metrics;
  if (!run.opt.trace) {
    for (const auto& [name, unit] : end_to_end_units())
      metrics[name] = {med(run, name), unit};
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["peak_rss_bytes"] = {
        static_cast<double>(obs::peak_rss_bytes()), "bytes"};
  } else {
    run.samples["sparse.generate_s"] = generate_s;
    run.samples["solver.solve_graph_s"] = graph_s;
    for (const auto& [name, unit] : layer_metric_units())
      metrics[name] = {med(run, name), unit};
    workload->layers(run, metrics);
    put(metrics, "obs.trace_overhead_frac",
        median(traced_wall) / median(plain_wall) - 1.0);
    const double schur = schur_ceiling_gflops(256, 0.3);
    put(metrics, "frontal.schur_ceiling_gflops", schur);
    put(metrics, "frontal.kernel_ceiling_frac",
        metrics["frontal.kernel_gflops"].value / schur);
    const std::size_t llc = last_level_cache_bytes();
    const StreamProbe stream = stream_copy_probe(
        std::max<std::size_t>(4 * llc, std::size_t{256} << 20), 4, 3);
    put(metrics, "ceiling.stream_gbps", stream.gbps);
    put(metrics, "solver.solve_ceiling_frac",
        metrics["solver.solve_gbps"].value / stream.gbps);

    const std::vector<Span> spans = run.log.spans();
    const LayerTable table = layer_table(spans);
    const double reps = std::max(1, table.roots);
    for (const auto& [layer, self] : table.self_s) {
      const std::string name = "layer." + layer + "_s";
      put(metrics, name, self / reps);
    }
    put(metrics, "layer.sum_err_frac", table.max_err_frac);
    run.checks.expect(table.max_err_frac <= kLayerTolerance,
                      "layer rows sum to every call's wall (worst: " +
                          table.worst_call + ")");
    std::fprintf(stderr, "%-16s %12s %8s\n", "layer", "self_s/rep", "share");
    for (const auto& [layer, self] : table.self_s)
      std::fprintf(stderr, "%-16s %12.6f %7.2f%%\n", layer.c_str(),
                   self / reps, 100.0 * self / table.wall_s);
    std::fprintf(stderr, "%-16s %12.6f  (%d calls, worst clipped %.3g%%)\n",
                 "wall", table.wall_s / reps, table.calls_checked,
                 100.0 * table.max_err_frac);
    if (!run.opt.spans_out.empty() &&
        !write_spans(run.opt.spans_out, spans, table, kLayerTolerance))
      std::fprintf(stderr, "could not write %s\n", run.opt.spans_out.c_str());
  }
  for (const auto& [name, m] : metrics)
    run.checks.expect(std::isfinite(m.value), name + " is finite");
  std::printf("perfbench workload=%s seed=%llu threads=%u seconds=%g trace=%d "
              "repetitions=%zu spill_dir=%s\n",
              run.opt.workload.c_str(),
              static_cast<unsigned long long>(run.opt.seed),
              workload->threads(), run.opt.seconds, run.opt.trace ? 1 : 0,
              all_wall.size(),
              run.opt.spill_dir.empty() ? "-" : run.opt.spill_dir.c_str());
  print_result(run, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
