// Ceiling and kernel probes for the traced run.
//
// Every byte count here is computed from array sizes, not measured by
// hardware counters: a copy moves its source and destination once each,
// a front is its nfront^2 doubles.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "memfront/frontal/kernels.hpp"
#include "memfront/symbolic/assembly_tree.hpp"
#include "trace.hpp"

namespace perfbench {

/// Last-level cache size in bytes (0 when the C library cannot tell).
inline std::size_t last_level_cache_bytes() {
  for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                   _SC_LEVEL2_CACHE_SIZE}) {
    const long size = ::sysconf(name);
    if (size > 0) return static_cast<std::size_t>(size);
  }
  return 0;
}

struct StreamProbe {
  std::size_t array_bytes = 0;  // each of source and destination
  double gbps = 0.0;            // best of the passes
};

/// Streaming copy on `threads` threads over a source and a destination
/// of `total_bytes / 2` each; GB/s counts both arrays once per pass.
inline StreamProbe stream_copy_probe(std::size_t total_bytes,
                                     unsigned threads, int passes) {
  const std::size_t n = total_bytes / 2 / sizeof(double);
  std::vector<double> src(n, 1.0);
  std::vector<double> dst(n, 0.0);
  const auto copy_pass = [&] {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        const std::size_t lo = n * t / threads;
        const std::size_t hi = n * (t + 1) / threads;
        std::memcpy(dst.data() + lo, src.data() + lo,
                    (hi - lo) * sizeof(double));
      });
    for (std::thread& th : pool) th.join();
  };
  copy_pass();  // fault every page in before timing
  StreamProbe probe;
  probe.array_bytes = n * sizeof(double);
  for (int p = 0; p < passes; ++p) {
    const Clock::time_point t0 = Clock::now();
    copy_pass();
    const double s = seconds_between(t0, Clock::now());
    probe.gbps = std::max(probe.gbps, 2.0 * static_cast<double>(
                                                probe.array_bytes) /
                                          s / 1e9);
  }
  if (dst[n / 2] != src[n / 2]) probe.gbps = 0.0;
  return probe;
}

/// Single-thread schur_update on an m x m x m tile that fits in L2:
/// the blocked kernel's in-cache GFLOP/s ceiling.
inline double schur_ceiling_gflops(memfront::index_t m, double min_seconds) {
  const std::size_t sz = static_cast<std::size_t>(m) *
                         static_cast<std::size_t>(m);
  std::vector<double> a(sz, 1e-3), b(sz, 1e-3), c(sz, 1.0);
  memfront::schur_update(m, m, m, a.data(), m, b.data(), m, c.data(), m);
  long calls = 0;
  const Clock::time_point t0 = Clock::now();
  double s = 0.0;
  do {
    memfront::schur_update(m, m, m, a.data(), m, b.data(), m, c.data(), m);
    ++calls;
    s = seconds_between(t0, Clock::now());
  } while (s < min_seconds);
  return 2.0 * static_cast<double>(m) * static_cast<double>(m) *
         static_cast<double>(m) * static_cast<double>(calls) / s / 1e9;
}

struct FrontShape {
  memfront::index_t nfront = 0;
  memfront::index_t npiv = 0;
  bool symmetric = false;
  double flops = 0.0;  // AssemblyTree::flops of the node it copies
};

/// The `count` largest fronts of `tree` whose order is at most
/// `max_nfront`, appended to `out`.
inline void largest_fronts(const memfront::AssemblyTree& tree, int count,
                           memfront::index_t max_nfront,
                           std::vector<FrontShape>& out) {
  using memfront::index_t;
  std::vector<index_t> nodes;
  for (index_t i = 0; i < tree.num_nodes(); ++i)
    if (tree.nfront(i) <= max_nfront && tree.npiv(i) > 0) nodes.push_back(i);
  std::sort(nodes.begin(), nodes.end(), [&](index_t x, index_t y) {
    return tree.nfront(x) != tree.nfront(y) ? tree.nfront(x) > tree.nfront(y)
                                            : x < y;
  });
  nodes.resize(std::min<std::size_t>(nodes.size(),
                                     static_cast<std::size_t>(count)));
  for (index_t node : nodes)
    out.push_back({tree.nfront(node), tree.npiv(node), tree.symmetric(),
                   static_cast<double>(tree.flops(node))});
}

struct KernelProbe {
  int fronts = 0;
  double gflops = 0.0;
  double flops_per_byte = 0.0;
};

/// The public blocked partial-factorization kernel, one thread, on dense
/// diagonally dominant fronts of the given shapes.
inline KernelProbe kernel_probe(const std::vector<FrontShape>& shapes) {
  KernelProbe probe;
  double flops = 0.0, bytes = 0.0, seconds = 0.0;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const FrontShape& shape : shapes) {
    const std::size_t nn = static_cast<std::size_t>(shape.nfront);
    std::vector<double> front(nn * nn);
    for (std::size_t j = 0; j < nn; ++j)
      for (std::size_t i = shape.symmetric ? j : 0; i < nn; ++i) {
        const double v =
            i == j ? 2.0 * static_cast<double>(nn) : dist(rng);
        front[j * nn + i] = v;
        if (shape.symmetric) front[i * nn + j] = v;
      }
    const memfront::FrontView view{front.data(), shape.nfront, shape.nfront};
    const Clock::time_point t0 = Clock::now();
    if (shape.symmetric)
      memfront::partial_ldlt_blocked(view, shape.npiv);
    else
      memfront::partial_lu_blocked(view, shape.npiv);
    seconds += seconds_between(t0, Clock::now());
    flops += shape.flops;
    bytes += static_cast<double>(nn * nn * sizeof(double));
    ++probe.fronts;
  }
  if (seconds > 0.0) probe.gflops = flops / seconds / 1e9;
  if (bytes > 0.0) probe.flops_per_byte = flops / bytes;
  return probe;
}

}  // namespace perfbench
