// Property tests for the incremental solver + solve cache: across every
// workload, every topology family and several fault scenarios, an engine
// with incremental_solver/route_cache/solve_cache ON must produce a
// SimResult identical to one with all three OFF. solver_rounds and the
// cache counters are the only fields allowed to differ — they count work
// performed, and performing less of it is the whole point.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "flowsim/engine.hpp"
#include "resilience/fault_model.hpp"
#include "resilience/fault_router.hpp"
#include "topo/factory.hpp"
#include "util/prng.hpp"
#include "workloads/factory.hpp"

namespace nestflow {
namespace {

const std::vector<std::string>& family_specs() {
  static const std::vector<std::string> specs = {
      "torus:4x4x2",     "fattree:4,4",    "thintree:4,2,2",
      "nesttree:64,2,2", "nestghc:64,2,2", "dragonfly:2,4,2",
      "jellyfish:24,2,4,7"};
  return specs;
}

TrafficProgram generate(const Topology& topology, const std::string& spec) {
  WorkloadContext context;
  context.num_tasks = topology.num_endpoints();
  context.seed = hash_combine(42, std::hash<std::string>{}(spec));
  return make_workload(spec)->generate(context);
}

/// Some workloads reject some machine sizes (e.g. recursive doubling wants
/// a power of two); such cells are skipped exactly as the sweep driver does.
std::optional<TrafficProgram> try_generate(const Topology& topology,
                                           const std::string& spec) {
  try {
    return generate(topology, spec);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// Bitwise SimResult comparison minus the work counters. Plain == on the
/// doubles is the contract: the incremental path must reproduce the exact
/// values a full solve computes, not merely close ones.
void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.makespan, b.makespan) << context;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << context;
  EXPECT_EQ(a.num_flows, b.num_flows) << context;
  EXPECT_EQ(a.events, b.events) << context;
  EXPECT_EQ(a.max_link_utilization, b.max_link_utilization) << context;
  EXPECT_EQ(a.avg_active_flows, b.avg_active_flows) << context;
  EXPECT_EQ(a.peak_active_flows, b.peak_active_flows) << context;
  EXPECT_EQ(a.stranded_flows, b.stranded_flows) << context;
  EXPECT_EQ(a.cancelled_flows, b.cancelled_flows) << context;
  EXPECT_EQ(a.rerouted_flows, b.rerouted_flows) << context;
  EXPECT_EQ(a.reroute_extra_hops, b.reroute_extra_hops) << context;
  EXPECT_EQ(a.undelivered_bytes, b.undelivered_bytes) << context;
  for (std::size_t c = 0; c < a.bytes_by_class.size(); ++c) {
    EXPECT_EQ(a.bytes_by_class[c], b.bytes_by_class[c]) << context;
  }
  ASSERT_EQ(a.flow_finish_times.size(), b.flow_finish_times.size()) << context;
  for (std::size_t f = 0; f < a.flow_finish_times.size(); ++f) {
    // NaN marks stranded/cancelled flows; compare bit-presence, not value.
    if (std::isnan(a.flow_finish_times[f])) {
      EXPECT_TRUE(std::isnan(b.flow_finish_times[f])) << context;
    } else {
      EXPECT_EQ(a.flow_finish_times[f], b.flow_finish_times[f]) << context;
    }
  }
}

SimResult run_with(const Topology& topology, const TrafficProgram& program,
                   bool optimized, EngineOptions base,
                   const FaultModel* faults = nullptr) {
  base.adaptive_routing = false;  // identical deterministic paths
  base.record_flow_times = true;
  base.incremental_solver = optimized;
  base.route_cache = optimized;
  base.solve_cache = optimized;
  FlowEngine engine(topology, base);
  if (faults != nullptr) faults->apply(engine);
  return engine.run(program);
}

TEST(Incremental, BitIdenticalAcrossWorkloadsAndFamilies) {
  for (const auto& family : family_specs()) {
    const auto topo = make_topology(family);
    for (const auto& spec : all_workload_names()) {
      const auto program = try_generate(*topo, spec);
      if (!program) continue;
      const std::string context = family + " x " + spec;
      const SimResult off = run_with(*topo, *program, false, {});
      const SimResult on = run_with(*topo, *program, true, {});
      expect_identical(off, on, context);
    }
  }
}

TEST(Incremental, BitIdenticalWithQuantizationAndLatency) {
  EngineOptions options;
  options.rate_quantum_rel = 0.05;
  options.hop_latency_seconds = 1e-6;
  for (const auto& family : family_specs()) {
    const auto topo = make_topology(family);
    for (const std::string spec : {"allreduce", "sweep3d", "nearneighbors"}) {
      const auto program = try_generate(*topo, spec);
      if (!program) continue;
      const std::string context = family + " x " + spec + " (quantised)";
      const SimResult off = run_with(*topo, *program, false, options);
      const SimResult on = run_with(*topo, *program, true, options);
      expect_identical(off, on, context);
    }
  }
}

TEST(Incremental, BitIdenticalUnderFaults) {
  for (const auto& family : family_specs()) {
    const auto plain = make_topology(family);
    for (const std::uint64_t seed : {7ull, 8ull}) {
      const auto faults =
          FaultModel::random_cable_faults(plain->graph(), 0.05, seed);
      const FaultAwareRouter routed(*plain, faults);
      for (const std::string spec : {"unstructured-app", "reduce", "sweep3d"}) {
        // Dead links on a fault-oblivious topology: flows strand mid-run.
        {
          const TrafficProgram program = generate(*plain, spec);
          const std::string context =
              family + " x " + spec + " (dead links, seed " +
              std::to_string(seed) + ")";
          const SimResult off = run_with(*plain, program, false, {}, &faults);
          const SimResult on = run_with(*plain, program, true, {}, &faults);
          expect_identical(off, on, context);
        }
        // Same faults behind a FaultAwareRouter: detours, dynamic routes,
        // route/solve caches must sit out without changing results.
        {
          const TrafficProgram program = generate(routed, spec);
          const std::string context =
              family + " x " + spec + " (fault-aware, seed " +
              std::to_string(seed) + ")";
          const SimResult off = run_with(routed, program, false, {}, &faults);
          const SimResult on = run_with(routed, program, true, {}, &faults);
          expect_identical(off, on, context);
          EXPECT_EQ(on.route_cache_hits + on.route_cache_misses, 0u) << context;
          EXPECT_EQ(on.solve_cache_hits + on.solve_cache_misses, 0u) << context;
        }
      }
    }
  }
}

/// Weighted flows are not bit-exactly exchangeable inside a solver round,
/// so the solve cache must disable itself — and the incremental solve must
/// still match the full one.
TEST(Incremental, WeightedProgramDisablesSolveCacheButStaysIdentical) {
  const auto topo = make_topology("nestghc:64,2,2");
  TrafficProgram program = generate(*topo, "unstructured-app");
  for (FlowIndex f = 0; f < program.num_flows(); f += 3) {
    program.set_flow_weight(f, 4.0);
  }
  const SimResult off = run_with(*topo, program, false, {});
  const SimResult on = run_with(*topo, program, true, {});
  expect_identical(off, on, "weighted uniform");
  EXPECT_EQ(on.solve_cache_hits + on.solve_cache_misses, 0u)
      << "solve cache must sit out under non-uniform weights";
  EXPECT_GT(on.route_cache_hits, 0u)
      << "route cache is weight-oblivious and must stay engaged";
}

/// The route and solve caches persist across run() calls on one engine;
/// warm runs must replay the cold run bit-for-bit and actually hit.
TEST(Incremental, WarmRunsReplayColdRunExactly) {
  for (const std::string family : {"nestghc:64,2,2", "fattree:4,4"}) {
    const auto topo = make_topology(family);
    for (const std::string spec : {"sweep3d", "nearneighbors", "allreduce"}) {
      const TrafficProgram program = generate(*topo, spec);
      EngineOptions options;
      options.adaptive_routing = false;
      options.record_flow_times = true;
      FlowEngine engine(*topo, options);
      const SimResult cold = engine.run(program);
      const std::string context = family + " x " + spec;
      EXPECT_GT(cold.route_cache_hits + cold.route_cache_misses, 0u)
          << context;
      for (int warm = 0; warm < 2; ++warm) {
        const SimResult again = engine.run(program);
        expect_identical(cold, again, context + " (warm)");
        EXPECT_EQ(again.route_cache_misses, 0u)
            << context << ": warm runs must route entirely from cache";
        EXPECT_EQ(again.solve_cache_misses, 0u)
            << context << ": warm runs must solve entirely from cache";
        EXPECT_GT(again.solve_cache_hits, 0u) << context;
      }
    }
  }
}

/// Capacity edits between runs must invalidate memoized rates (capacity
/// bits are part of every solve-cache key) and still match a fresh engine.
TEST(Incremental, CapacityChangesInvalidateMemoizedRates) {
  const auto topo = make_topology("torus:4x4x2");
  const TrafficProgram program = generate(*topo, "unstructured-app");
  EngineOptions options;
  options.adaptive_routing = false;
  options.record_flow_times = true;

  FlowEngine reused(*topo, options);
  (void)reused.run(program);  // warm caches at nominal capacity
  const LinkId degraded = topo->graph().injection_link(0);
  reused.set_capacity_factor(degraded, 0.5);
  const SimResult warm_degraded = reused.run(program);

  FlowEngine fresh(*topo, options);
  fresh.set_capacity_factor(degraded, 0.5);
  const SimResult cold_degraded = fresh.run(program);
  expect_identical(cold_degraded, warm_degraded, "degraded torus");

  reused.reset_capacity_factors();
  const SimResult restored = reused.run(program);
  FlowEngine nominal(*topo, options);
  expect_identical(nominal.run(program), restored, "restored torus");
}

/// The figure drivers' engine options (bench/figure_common.hpp): adaptive
/// routing on, so neither cache engages and the incremental path is the
/// component walk, its bail, and the walk skip that predicts the bail.
SimResult run_figure_config(const Topology& topology,
                            const TrafficProgram& program, bool incremental) {
  EngineOptions options;
  options.rate_quantum_rel = 0.01;
  options.completion_batch_rel = 1e-3;
  options.hop_latency_seconds = 1e-6;
  options.record_flow_times = true;
  options.incremental_solver = incremental;
  FlowEngine engine(topology, options);
  return engine.run(program);
}

/// Workloads whose active flows form one giant component (flood,
/// unstructured-app) bail nearly every walk; after a short streak the
/// engine skips the walk and solves the whole set directly, so most
/// whole-set solves are not preceded by a bailed walk. Rates stay exact.
TEST(Incremental, WalkSkipFiresOnGiantComponentsAndStaysExact) {
  for (const std::string family : {"nestghc:256,4,4", "torus:8x8x4"}) {
    const auto topo = make_topology(family);
    for (const std::string spec : {"flood", "unstructured-app"}) {
      const TrafficProgram program = generate(*topo, spec);
      const std::string context = family + " x " + spec;
      const SimResult off = run_figure_config(*topo, program, false);
      const SimResult on = run_figure_config(*topo, program, true);
      expect_identical(off, on, context);
      EXPECT_EQ(off.component_walk_bails, 0u) << context;
      EXPECT_GT(on.component_walk_bails, 0u) << context;
      // Flood's phases restart the bail streak more often than
      // unstructured-app's steady random traffic does (N=256: ~70 whole-set
      // solves against ~20 bails, and ~160 against ~10).
      EXPECT_GT(on.whole_set_solves, 2 * on.component_walk_bails)
          << context << ": the walk skip must spare most bailed walks";
    }
  }
}

/// nbodies' events dirty small components; isolated bails must not push
/// it off component solves (its incremental win over the full re-solve).
TEST(Incremental, WalkSkipKeepsNbodiesOnComponentSolves) {
  const auto topo = make_topology("nestghc:256,4,4");
  const TrafficProgram program = generate(*topo, "nbodies");
  const SimResult off = run_figure_config(*topo, program, false);
  const SimResult on = run_figure_config(*topo, program, true);
  expect_identical(off, on, "nbodies");
  EXPECT_EQ(off.whole_set_solves, off.events) << "nbodies";
  EXPECT_LT(4 * on.whole_set_solves, on.events)
      << "nbodies must stay on component solves";
  EXPECT_LT(4 * on.solver_rounds, off.solver_rounds) << "nbodies";
}

}  // namespace
}  // namespace nestflow
