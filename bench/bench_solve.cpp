// bench_solve — the solve phase's performance trajectory.
//
// Three measurements:
//   1. RHS blocking sweep: the largest unsymmetric Table-1 problem
//      (PRE2), solved for k = 1, 4, 16, 33 and 64 right-hand sides as
//      k independent single-RHS solves vs one blocked k-column panel;
//      solves/sec and model GFLOP/s of each, and the blocking speedup.
//   2. Parallel scaling: the tree-parallel sweep on a k=16 panel at
//      1/2/4/8 workers over a fixed nprocs=8 task graph, next to the
//      largest root front's share of the factor entries the sweeps
//      read: one worker runs that front, so it bounds the scaling.
//   3. Service replay: N simulated clients fire a deterministic mixed
//      request stream (problem x panel width) against factorization
//      handles served by PreparedCache::factorization — the
//      one-factorization-many-solves shape the paper's memory-aware
//      scheduling amortizes. Reports solves/sec, per-solve latency
//      p50/p95/p99, aggregate GFLOP/s, and the cache hit counters.
//
// Every measured solve is checked bit-identical to solve_reference (the
// scalar serial sweep); any mismatch fails the run. Results land in
// BENCH_solve.json for CI to archive.
//
//   bench_solve [scale] [--smoke] [--threads N] [--json PATH]
//               [--trace-out FILE] [--metrics-out FILE]
//
// --smoke shrinks the run for CI (scale 0.3, fewer reps/clients) unless
// an explicit scale is given. The model flop count per RHS column is
// 2 * factor_entries + n: every stored factor entry contributes one
// multiply-add in the forward or backward sweep, plus n divides.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/solver/solve.hpp"
#include "memfront/support/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace memfront;
using namespace memfront::bench;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SolveCli {
  double scale = 1.0;
  bool smoke = false;
  unsigned threads = 0;
  std::string json_path = "BENCH_solve.json";
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [scale] [--smoke] [--threads N] [--json PATH]"
               " [--trace-out FILE] [--metrics-out FILE]\n";
  std::exit(2);
}

SolveCli parse(int argc, char** argv) {
  SolveCli opt;
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
  return opt;
}

std::vector<double> random_panel(index_t n, index_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(k));
  for (double& v : b) v = rng.real(-1.0, 1.0);
  return b;
}

/// One multiply-add per stored factor entry (forward or backward) plus
/// the n diagonal divides.
double flops_per_rhs(const Analysis& analysis) {
  return 2.0 * static_cast<double>(analysis.tree.total_factor_entries()) +
         static_cast<double>(analysis.tree.num_cols());
}

bool bitwise_equal(const double* a, const double* b, std::size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(double)) == 0;
}

/// Checks a k-column solution panel against per-column solve_reference
/// runs; any mismatch is a hard bench failure.
bool verify_against_reference(const Analysis& analysis,
                              const Factorization& fact,
                              const std::vector<double>& b, index_t k,
                              const std::vector<double>& x,
                              const char* label) {
  const std::size_t n = static_cast<std::size_t>(analysis.tree.num_cols());
  for (index_t c = 0; c < k; ++c) {
    const std::size_t base = static_cast<std::size_t>(c) * n;
    const std::vector<double> column(b.begin() + static_cast<std::ptrdiff_t>(base),
                                     b.begin() +
                                         static_cast<std::ptrdiff_t>(base + n));
    const std::vector<double> ref = solve_reference(analysis, fact, column);
    if (!bitwise_equal(x.data() + base, ref.data(), n)) {
      std::cerr << "bench_solve: " << label << " k=" << k << " column " << c
                << " diverged from solve_reference\n";
      return false;
    }
  }
  return true;
}

/// Times `fn()` until ~0.2 s accumulates (min_reps floor, 50 cap);
/// returns seconds per call.
template <typename Fn>
double time_repeated(Fn&& fn, int min_reps) {
  double total = 0.0;
  int reps = 0;
  while (reps < min_reps || total < 0.2) {
    const auto start = Clock::now();
    fn();
    total += seconds_since(start);
    ++reps;
    if (reps >= 50) break;
  }
  return total / reps;
}

struct KRow {
  index_t k = 0;
  double single_s = 0.0;   // k independent single-RHS solves
  double blocked_s = 0.0;  // one k-column panel solve
};

struct ScaleRow {
  unsigned workers = 0;
  double solve_s = 0.0;
};

struct ServiceResult {
  unsigned clients = 0;
  std::size_t requests = 0;
  std::size_t solves = 0;  // total RHS columns solved
  double wall_s = 0.0;
  double flops = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

double percentile(std::vector<double>& sorted_latencies, double q) {
  if (sorted_latencies.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_latencies.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_latencies.size())));
  return sorted_latencies[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const ObsArgs obs_args = extract_obs_args(argc, argv);
  const SolveCli opt = parse(argc, argv);
  const unsigned threads =
      opt.threads > 0 ? opt.threads : default_thread_count();
  const int min_reps = opt.smoke ? 2 : 3;
  bool bit_identical = true;

  std::cout << "bench_solve: blocked multi-RHS panels, tree-parallel "
               "sweeps, solve service (scale="
            << opt.scale << ", threads=" << threads
            << (opt.smoke ? ", smoke" : "") << ")\n\n";
  obs_args.begin();

  // ---- 1. RHS blocking sweep on PRE2 ---------------------------------------
  // PRE2 is the biggest unsymmetric Table-1 problem; one factorization,
  // many right-hand sides is the service shape the sweep models.
  const Problem sweep_problem = make_problem(ProblemId::kPre2, opt.scale);
  AnalysisOptions sweep_opt;
  sweep_opt.ordering = OrderingKind::kNestedDissection;
  const std::shared_ptr<const Analysis> sweep_analysis =
      PreparedCache::global().analysis(sweep_problem.matrix, sweep_opt);
  const Factorization sweep_fact = numeric_factorize(*sweep_analysis);
  const index_t n = sweep_analysis->tree.num_cols();
  const double rhs_flops = flops_per_rhs(*sweep_analysis);

  SolveOptions serial_options;  // nthreads = 1
  const SolveGraph serial_graph =
      build_solve_graph(*sweep_analysis, serial_options);
  SolveWorkspace workspace;

  std::vector<KRow> krows;
  double k16_speedup = 0.0;
  TextTable ktable({"PRE2 panel", "single-RHS loop (ms)", "blocked (ms)",
                    "speedup x", "solves/s", "blocked GF/s"});
  // k = 1 and 4 guard narrow panels, 33 a ragged lane tail, 64 the
  // benchmark's panel width.
  for (index_t k :
       {index_t{1}, index_t{4}, index_t{16}, index_t{33}, index_t{64}}) {
    const std::vector<double> b =
        random_panel(n, k, 100 + static_cast<std::uint64_t>(k));
    std::vector<double> x(b.size());
    const std::size_t col = static_cast<std::size_t>(n);

    KRow row;
    row.k = k;
    // Baseline: k independent single-RHS solves through the same graph
    // and workspace (so the comparison isolates blocking, not allocs).
    row.single_s = time_repeated(
        [&] {
          for (index_t c = 0; c < k; ++c) {
            const std::size_t base = static_cast<std::size_t>(c) * col;
            solve_factorized_multi(
                *sweep_analysis, sweep_fact, serial_graph,
                std::span<const double>(b.data() + base, col), 1,
                std::span<double>(x.data() + base, col), workspace,
                serial_options);
          }
        },
        min_reps);
    bit_identical = bit_identical &&
                    verify_against_reference(*sweep_analysis, sweep_fact, b, k,
                                             x, "single-RHS loop");

    // Blocked: one k-column panel sweep.
    row.blocked_s = time_repeated(
        [&] {
          solve_factorized_multi(*sweep_analysis, sweep_fact, serial_graph, b,
                                 k, x, workspace, serial_options);
        },
        min_reps);
    bit_identical = bit_identical &&
                    verify_against_reference(*sweep_analysis, sweep_fact, b, k,
                                             x, "blocked panel");

    const double speedup = row.single_s / row.blocked_s;
    if (k == 16) k16_speedup = speedup;
    ktable.row();
    ktable.cell("k=" + std::to_string(k));
    ktable.cell(row.single_s * 1e3, 2);
    ktable.cell(row.blocked_s * 1e3, 2);
    ktable.cell(speedup, 2);
    ktable.cell(static_cast<double>(k) / row.blocked_s, 1);
    ktable.cell(static_cast<double>(k) * rhs_flops / row.blocked_s / 1e9, 2);
    krows.push_back(row);
  }
  ktable.print(std::cout);
  std::cout << "\nblocked multi-RHS speedup at k=16: " << k16_speedup
            << "x\n\n";

  // ---- 2. parallel scaling at k=16 -----------------------------------------
  // One fixed nprocs=8 task graph executed by 1/2/4/8 workers: the bits
  // must not move, only the wall clock.
  constexpr index_t kPanel = 16;
  const std::vector<double> pb = random_panel(n, kPanel, 200);
  SolveOptions mapped;
  mapped.nprocs = 8;
  const SolveGraph mapped_graph = build_solve_graph(*sweep_analysis, mapped);
  std::vector<ScaleRow> srows;
  double one_worker_s = 0.0, four_worker_s = 0.0;
  TextTable stable({"PRE2 k=16", "solve (ms)", "speedup x", "GF/s"});
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    SolveOptions popt = mapped;
    popt.nthreads = workers;
    std::vector<double> x(pb.size());
    ScaleRow row;
    row.workers = workers;
    row.solve_s = time_repeated(
        [&] {
          solve_factorized_multi(*sweep_analysis, sweep_fact, mapped_graph, pb,
                                 kPanel, x, workspace, popt);
        },
        min_reps);
    bit_identical = bit_identical &&
                    verify_against_reference(*sweep_analysis, sweep_fact, pb,
                                             kPanel, x, "parallel sweep");
    if (workers == 1u) one_worker_s = row.solve_s;
    if (workers == 4u) four_worker_s = row.solve_s;
    stable.row();
    stable.cell(std::to_string(workers) + " worker" + (workers > 1 ? "s" : ""));
    stable.cell(row.solve_s * 1e3, 2);
    stable.cell(one_worker_s / row.solve_s, 2);
    stable.cell(static_cast<double>(kPanel) * rhs_flops / row.solve_s / 1e9,
                2);
    srows.push_back(row);
  }
  const double parallel_scaling = one_worker_s / four_worker_s;
  stable.print(std::cout);
  const AssemblyTree& sweep_tree = sweep_analysis->tree;
  count_t root_entries = 0;
  for (index_t r : sweep_tree.roots())
    root_entries = std::max(root_entries, sweep_tree.factor_entries(r));
  std::cout << "\nparallel solve scaling 1 -> 4 workers: " << parallel_scaling
            << "x; the largest root front, which one worker runs, holds "
            << 100.0 * static_cast<double>(root_entries) /
                   static_cast<double>(sweep_tree.total_factor_entries())
            << "% of the factor entries the sweeps read\n\n";

  // ---- 3. service replay ---------------------------------------------------
  // Simulated clients replay deterministic request streams over mixed
  // Table-1 problems; every client pulls its factorization handle from
  // the shared cache (first request per problem pays the factorization,
  // the rest hit) and solves with a private workspace.
  const std::vector<ProblemId> service_problems = {
      ProblemId::kPre2, ProblemId::kXenon2, ProblemId::kBmwCra1,
      ProblemId::kMsdoor};
  const unsigned clients = opt.smoke ? 4u : std::max(4u, threads);
  const std::size_t requests_per_client = opt.smoke ? 8 : 32;
  const index_t widths[] = {1, 4, 8};

  // Problems, analysis options, and reference solutions prepared up
  // front so the timed region is solves only.
  struct Service {
    Problem problem;
    AnalysisOptions options;
  };
  std::vector<Service> services;
  for (ProblemId id : service_problems) {
    Service s;
    s.problem = make_problem(id, opt.scale);
    s.options.ordering = OrderingKind::kAmd;
    s.options.symmetric = s.problem.symmetric;
    services.push_back(std::move(s));
  }
  PreparedCache::global().reset_stats();

  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::size_t> client_solves(clients, 0);
  std::vector<double> client_flops(clients, 0.0);
  std::vector<char> client_ok(clients, 1);
  const auto service_start = Clock::now();
  parallel_for(
      clients,
      [&](std::size_t c) {
        Rng rng(900 + c);
        SolveWorkspace client_workspace;
        for (std::size_t r = 0; r < requests_per_client; ++r) {
          const Service& s = services[static_cast<std::size_t>(
              rng.below(services.size()))];
          const index_t k = widths[rng.below(3)];
          const auto handle = PreparedCache::global().factorization(
              s.problem.matrix, s.options);
          const index_t pn = handle->analysis->tree.num_cols();
          const std::vector<double> b = random_panel(
              pn, k, 3000 + 100 * c + r);
          std::vector<double> x(b.size());
          const auto start = Clock::now();
          solve_factorized_multi(*handle->analysis, handle->factorization,
                                 handle->solve_graph, b, k, x,
                                 client_workspace);
          latencies[c].push_back(seconds_since(start));
          client_solves[c] += static_cast<std::size_t>(k);
          client_flops[c] +=
              static_cast<double>(k) * flops_per_rhs(*handle->analysis);
          if (r == 0 && !verify_against_reference(
                            *handle->analysis, handle->factorization, b, k, x,
                            "service solve"))
            client_ok[c] = 0;
        }
      },
      clients);

  ServiceResult service;
  service.clients = clients;
  service.wall_s = seconds_since(service_start);
  std::vector<double> all_latencies;
  for (unsigned c = 0; c < clients; ++c) {
    service.requests += latencies[c].size();
    service.solves += client_solves[c];
    service.flops += client_flops[c];
    all_latencies.insert(all_latencies.end(), latencies[c].begin(),
                         latencies[c].end());
    bit_identical = bit_identical && client_ok[c];
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  service.p50_us = percentile(all_latencies, 0.50) * 1e6;
  service.p95_us = percentile(all_latencies, 0.95) * 1e6;
  service.p99_us = percentile(all_latencies, 0.99) * 1e6;

  const PreparedCacheStats cache_stats = PreparedCache::global().stats();
  std::cout << "service replay: " << service.clients << " clients, "
            << service.requests << " requests, " << service.solves
            << " RHS columns in " << service.wall_s << " s\n"
            << "  solves/s: "
            << static_cast<double>(service.solves) / service.wall_s
            << "   GF/s: " << service.flops / service.wall_s / 1e9
            << "\n  latency p50/p95/p99 (us): " << service.p50_us << " / "
            << service.p95_us << " / " << service.p99_us << "\n"
            << "  factorization cache: " << cache_stats.factorization_hits
            << " hits, " << cache_stats.factorization_misses << " misses\n";

  // ---- Iterative refinement cost -------------------------------------------
  // One refined solve against the sweep factorization: a zero tolerance
  // forces the loop to run until stagnation, so the measurement covers
  // the full residual + re-solve cost and reports the converged
  // backward error.
  SolveOptions refine_options;
  refine_options.max_refine_iters = 2;
  refine_options.refine_tolerance = 0.0;
  SolveStats refine_stats;
  const std::vector<double> refine_b = random_panel(n, 1, 4242);
  std::vector<double> refine_x(refine_b.size());
  const double refine_s = time_repeated(
      [&] {
        solve_factorized_multi(*sweep_analysis, sweep_fact, serial_graph,
                               refine_b, 1, refine_x, workspace,
                               refine_options, &refine_stats);
      },
      min_reps);
  const obs::Counter* refine_counter =
      obs::MetricsRegistry::global().find_counter(
          "solver.solve.refinement_iters");
  std::cout << "refined solve: " << refine_stats.refine_iters
            << " refinement sweeps, backward error "
            << refine_stats.backward_error << ", " << refine_s * 1e3
            << " ms\n";

  // ---- BENCH_solve.json ----------------------------------------------------
  std::ofstream json(opt.json_path);
  json << "{\n"
       << "  \"bench\": \"bench_solve\",\n"
       << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
       << "  \"scale\": " << opt.scale << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"problem\": \"" << sweep_problem.name << "\",\n"
       << "  \"n\": " << n << ",\n"
       << "  \"factor_entries\": "
       << sweep_analysis->tree.total_factor_entries() << ",\n"
       << "  \"flops_per_rhs\": " << rhs_flops << ",\n"
       << "  \"rhs_blocking\": [\n";
  for (std::size_t i = 0; i < krows.size(); ++i) {
    const KRow& r = krows[i];
    json << "    {\"k\": " << r.k << ", \"single_rhs_loop_s\": " << r.single_s
         << ", \"blocked_s\": " << r.blocked_s
         << ", \"speedup\": " << r.single_s / r.blocked_s
         << ", \"blocked_gflops\": "
         << static_cast<double>(r.k) * rhs_flops / r.blocked_s / 1e9 << "}"
         << (i + 1 < krows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"blocked_speedup_k16\": " << k16_speedup
       << ",\n  \"parallel_scaling\": [\n";
  for (std::size_t i = 0; i < srows.size(); ++i) {
    const ScaleRow& r = srows[i];
    json << "    {\"workers\": " << r.workers << ", \"solve_s\": " << r.solve_s
         << ", \"speedup\": " << one_worker_s / r.solve_s << "}"
         << (i + 1 < srows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"parallel_scaling_1_to_4\": " << parallel_scaling
       << ",\n  \"service\": {\n"
       << "    \"clients\": " << service.clients << ",\n"
       << "    \"requests\": " << service.requests << ",\n"
       << "    \"rhs_columns\": " << service.solves << ",\n"
       << "    \"wall_s\": " << service.wall_s << ",\n"
       << "    \"solves_per_sec\": "
       << static_cast<double>(service.solves) / service.wall_s << ",\n"
       << "    \"gflops\": " << service.flops / service.wall_s / 1e9 << ",\n"
       << "    \"latency_p50_us\": " << service.p50_us << ",\n"
       << "    \"latency_p95_us\": " << service.p95_us << ",\n"
       << "    \"latency_p99_us\": " << service.p99_us << ",\n"
       << "    \"factorization_hits\": " << cache_stats.factorization_hits
       << ",\n"
       << "    \"factorization_misses\": " << cache_stats.factorization_misses
       << "\n  },\n"
       << "  \"refinement\": {\n"
       << "    \"refine_iters\": " << refine_stats.refine_iters << ",\n"
       << "    \"backward_error\": " << refine_stats.backward_error << ",\n"
       << "    \"refined_solve_s\": " << refine_s << ",\n"
       << "    \"registry_refinement_iters\": "
       << (refine_counter ? refine_counter->value() : 0) << "\n  },\n"
       << "  \"bit_identical_to_reference\": "
       << (bit_identical ? "true" : "false") << "\n}\n";
  if (!json) {
    std::cerr << "bench_solve: failed to write " << opt.json_path << '\n';
    return 1;
  }
  std::cout << "\nwrote " << opt.json_path << '\n';
  obs_args.finish();
  if (!bit_identical) {
    std::cerr << "bench_solve: solve diverged from solve_reference\n";
    return 1;
  }
  return 0;
}
