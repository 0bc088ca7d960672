// Thin driver over the scheduling engine: builds the policy the config
// names (core/policy.hpp), wires in the out-of-core engine when the mode
// is on (ooc/engine.hpp), and runs the event loop (core/engine.hpp).
#include "memfront/core/parallel_factor.hpp"

#include "memfront/core/engine.hpp"

namespace memfront {

ParallelResult simulate_parallel_factorization(
    const AssemblyTree& tree, const StaticMapping& mapping,
    const std::vector<index_t>& traversal, const SchedConfig& config,
    Trace* trace) {
  Engine engine(tree, mapping, traversal, config, trace);
  return engine.run();
}

}  // namespace memfront
