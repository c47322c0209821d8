// Arithmetic-routing equivalence: the closed-form link ids produced by the
// production route() paths must match, link for link, the graph-lookup
// reference walkers (route_lookup / route_torus_dor) on every topology
// family, for every pair at small N — including under adaptive load-based
// up-port choice — and on sampled pairs of every paper-matrix point at
// N=8192, where route_distance must also equal the route's hop count; and
// as the fault-free precondition of the detour router
// (FaultAwareRouter must keep returning native routes when nothing is
// dead). A final set of chaos-harness trials pins whole engine runs to the
// arithmetic-routing path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "resilience/fault_model.hpp"
#include "resilience/fault_router.hpp"
#include "topo/factory.hpp"
#include "topo/fattree.hpp"
#include "topo/ghc.hpp"
#include "topo/nested.hpp"
#include "topo/thintree.hpp"
#include "topo/torus.hpp"
#include "util/prng.hpp"
#include "verify/chaos.hpp"

namespace nestflow {
namespace {

/// Deterministic synthetic congestion: distinct costs across parallel
/// up-links so adaptive probing actually diverges from the d-mod-k default.
class SyntheticLoads {
 public:
  explicit SyntheticLoads(const Graph& graph)
      : counts_(graph.num_links()), capacities_(graph.num_links(), 1.0) {
    for (std::size_t l = 0; l < counts_.size(); ++l) {
      counts_[l] = static_cast<std::uint32_t>((l * 7 + 3) % 11);
    }
  }
  [[nodiscard]] LinkLoads view() const noexcept {
    return LinkLoads(counts_, capacities_);
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<double> capacities_;
};

void expect_paths_equal(const Path& arith, const Path& lookup,
                        std::uint32_t src, std::uint32_t dst,
                        const std::string& context) {
  ASSERT_EQ(arith.links.size(), lookup.links.size())
      << context << ": " << src << " -> " << dst;
  for (std::size_t i = 0; i < arith.links.size(); ++i) {
    ASSERT_EQ(arith.links[i], lookup.links[i])
        << context << ": " << src << " -> " << dst << " hop " << i;
  }
}

TEST(ArithRoutes, TorusMatchesGraphLookupAllPairs) {
  const std::vector<std::vector<std::uint32_t>> shapes = {
      {4, 4}, {2, 2, 2}, {4, 2, 2}, {3, 5}, {5, 4, 3}, {1, 4, 2}, {2, 3, 2}};
  for (const auto& dims : shapes) {
    const TorusTopology topo(dims);
    const auto& shape = topo.shape();
    Path arith, lookup;
    for (std::uint32_t src = 0; src < shape.size(); ++src) {
      for (std::uint32_t dst = 0; dst < shape.size(); ++dst) {
        if (src == dst) continue;
        arith.clear();
        lookup.clear();
        topo.route(src, dst, arith);
        route_torus_dor(topo.graph(), 0, shape, src, dst, lookup);
        expect_paths_equal(arith, lookup, src, dst, topo.name());
      }
    }
  }
}

TEST(ArithRoutes, FattreeMatchesGraphLookupAllPairs) {
  const std::vector<std::vector<std::uint32_t>> arity_sets = {
      {4, 2}, {2, 2, 2}, {3, 3}, {8, 4}, {2, 3, 2}};
  for (const auto& arities : arity_sets) {
    const FatTreeTopology topo(arities);
    const SyntheticLoads loads(topo.graph());
    const LinkLoads view = loads.view();
    Path arith, lookup;
    for (std::uint32_t src = 0; src < topo.num_endpoints(); ++src) {
      for (std::uint32_t dst = 0; dst < topo.num_endpoints(); ++dst) {
        if (src == dst) continue;
        arith.clear();
        lookup.clear();
        topo.route(src, dst, arith);
        topo.tier().route_lookup(topo.graph(), src, dst, lookup);
        expect_paths_equal(arith, lookup, src, dst, topo.name());

        arith.clear();
        lookup.clear();
        topo.route_adaptive(src, dst, arith, view);
        topo.tier().route_lookup(topo.graph(), src, dst, lookup, &view);
        expect_paths_equal(arith, lookup, src, dst,
                           topo.name() + " adaptive");
      }
    }
  }
}

TEST(ArithRoutes, ThinTreeMatchesGraphLookupAllPairs) {
  const std::vector<ThinTreeTopology::Params> configs = {
      {.k = 4, .k_up = 2, .levels = 2},
      {.k = 2, .k_up = 1, .levels = 3},
      {.k = 3, .k_up = 2, .levels = 3},
      {.k = 4, .k_up = 4, .levels = 2},
  };
  for (const auto& params : configs) {
    const ThinTreeTopology topo(params);
    const SyntheticLoads loads(topo.graph());
    const LinkLoads view = loads.view();
    Path arith, lookup;
    for (std::uint32_t src = 0; src < topo.num_endpoints(); ++src) {
      for (std::uint32_t dst = 0; dst < topo.num_endpoints(); ++dst) {
        if (src == dst) continue;
        arith.clear();
        lookup.clear();
        topo.route(src, dst, arith);
        topo.route_lookup(src, dst, lookup);
        expect_paths_equal(arith, lookup, src, dst, topo.name());

        arith.clear();
        lookup.clear();
        topo.route_adaptive(src, dst, arith, view);
        topo.route_lookup(src, dst, lookup, &view);
        expect_paths_equal(arith, lookup, src, dst,
                           topo.name() + " adaptive");
      }
    }
  }
}

TEST(ArithRoutes, GhcMatchesGraphLookupAllPairs) {
  const std::vector<std::vector<std::uint32_t>> shapes = {
      {2, 2}, {2, 3, 4}, {4, 4}, {3, 1, 3}, {2, 2, 2, 2}};
  for (const auto& dims : shapes) {
    const GhcTopology topo(dims);
    Path arith, lookup;
    for (std::uint32_t src = 0; src < topo.num_endpoints(); ++src) {
      for (std::uint32_t dst = 0; dst < topo.num_endpoints(); ++dst) {
        if (src == dst) continue;
        arith.clear();
        lookup.clear();
        topo.route(src, dst, arith);
        topo.tier().route_lookup(topo.graph(), src, dst, lookup);
        expect_paths_equal(arith, lookup, src, dst, topo.name());
      }
    }
  }
}

TEST(ArithRoutes, NestedMatchesGraphLookupAllPairs) {
  std::vector<NestedConfig> configs;
  for (const auto upper : {UpperTierKind::kFattree, UpperTierKind::kGhc}) {
    for (const std::uint32_t u : {1u, 2u, 4u, 8u}) {
      NestedConfig config;
      config.global_dims = {4, 4, 4};
      config.t = 2;
      config.u = u;
      config.upper = upper;
      configs.push_back(config);
    }
    NestedConfig big;
    big.global_dims = {8, 4, 4};
    big.t = 4;
    big.u = 4;
    big.upper = upper;
    configs.push_back(big);
  }
  for (const auto& config : configs) {
    const NestedTopology topo(config);
    Path arith, lookup;
    for (std::uint32_t src = 0; src < topo.num_endpoints(); ++src) {
      for (std::uint32_t dst = 0; dst < topo.num_endpoints(); ++dst) {
        if (src == dst) continue;
        arith.clear();
        lookup.clear();
        topo.route(src, dst, arith);
        topo.route_lookup(src, dst, lookup);
        expect_paths_equal(arith, lookup, src, dst, topo.name());
      }
    }
  }
}

/// Checks a topology at a non-toy size: route_distance equals the hop count
/// of route() on `num_pairs` seeded pairs plus the adversarial pairs, and
/// route() matches the graph-lookup reference link for link on the first
/// `num_lookup_pairs` of them.
void expect_routes_consistent_at_scale(const Topology& topo,
                                       std::size_t num_pairs,
                                       std::size_t num_lookup_pairs) {
  Prng prng(0x5CA1Eu);
  const std::uint32_t n = topo.num_endpoints();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs =
      topo.adversarial_pairs();
  for (std::size_t i = 0; i < num_pairs; ++i) {
    pairs.emplace_back(static_cast<std::uint32_t>(prng.next_below(n)),
                       static_cast<std::uint32_t>(prng.next_below(n)));
  }
  const auto* nested = dynamic_cast<const NestedTopology*>(&topo);
  const auto* fattree = dynamic_cast<const FatTreeTopology*>(&topo);
  const auto* torus = dynamic_cast<const TorusTopology*>(&topo);
  ASSERT_TRUE(nested || fattree || torus) << topo.name();
  Path arith, lookup;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [src, dst] = pairs[i];
    topo.route(src, dst, arith);
    ASSERT_EQ(topo.route_distance(src, dst), arith.hops())
        << topo.name() << ": " << src << " -> " << dst;
    if (i >= num_lookup_pairs || src == dst) continue;
    lookup.clear();
    if (nested) {
      nested->route_lookup(src, dst, lookup);
    } else if (fattree) {
      fattree->tier().route_lookup(topo.graph(), src, dst, lookup);
    } else {
      route_torus_dor(topo.graph(), 0, torus->shape(), src, dst, lookup);
    }
    expect_paths_equal(arith, lookup, src, dst, topo.name());
  }
}

TEST(ArithRoutes, PaperMatrixConsistentAtScale) {
  for (const auto& point : paper_topology_matrix()) {
    const auto topo = build_point(point, 8192);
    expect_routes_consistent_at_scale(*topo, 20000, 2000);
  }
}

TEST(ArithRoutes, NonPowerOfTwoTorusConsistentAtScale) {
  // Mixed odd/even sizes keep the general GridShape arithmetic covered.
  const TorusTopology topo({24, 20, 17});
  expect_routes_consistent_at_scale(topo, 20000, 2000);
}

TEST(ArithRoutes, FaultFreeDetourRouterReturnsArithmeticRoutes) {
  // Precondition for the detour machinery: with zero faults the
  // fault-aware router must pass through the native (now arithmetic)
  // routes unchanged, so detours only ever diverge where a fault exists.
  const std::vector<std::string> specs = {"torus:4x2x2",   "fattree:4,2",
                                          "thintree:4,2,2", "ghc:2x3x4",
                                          "nestghc:64,2,4", "nesttree:64,2,2"};
  for (const auto& spec : specs) {
    const auto topo = make_topology(spec);
    const FaultModel faults(topo->graph());
    const FaultAwareRouter router(*topo, faults);
    Path native, routed;
    for (std::uint32_t src = 0; src < topo->num_endpoints(); ++src) {
      for (std::uint32_t dst = 0; dst < topo->num_endpoints(); ++dst) {
        if (src == dst) continue;
        native.clear();
        routed.clear();
        topo->route(src, dst, native);
        router.route(src, dst, routed);
        expect_paths_equal(routed, native, src, dst, spec);
      }
    }
  }
}

TEST(ArithRoutes, ChaosTrialsPinnedToArithmeticFamilies) {
  // Whole engine runs (auditing + differential oracles) on configurations
  // forced onto each arithmetic-routing family. Any disagreement between
  // the naive reference run and the optimized run — both now consuming
  // arithmetic routes — or any auditor violation fails the trial.
  const std::vector<std::string> topos = {
      "torus:4x2x2",    "fattree:4,2",    "thintree:4,2,2",
      "ghc:2x3x4",      "nestghc:64,2,4", "nesttree:64,2,2"};
  std::uint64_t seed = 1000;
  for (const auto& topo : topos) {
    auto config = verify::make_chaos_config(seed++);
    config.topo = topo;
    // The sampled task count can exceed a small pinned topology.
    config.tasks = std::min(config.tasks, 8u);
    const std::string failure = verify::run_chaos_failure(config);
    EXPECT_TRUE(failure.empty()) << topo << ": " << failure;
  }
}

}  // namespace
}  // namespace nestflow
