// Regression cells for the heap solver's tie drain. Floating-point rounding
// can leave a drained link's fresh share one ulp below the round leader's
// share ("shares only grow" does not hold bit for bit); the drain used to
// re-queue such a link under a key it popped again forever, hanging
// FlowEngine::run inside one event. Each cell below is a Figure 4/5 sweep
// cell (N=1024, the figure benches' engine options) that hung that way. It
// must now finish, and the heap, scan and auto kernels must agree bit for
// bit — the heap re-chooses its leader instead of harvesting a wrong batch.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "flowsim/engine.hpp"
#include "util/prng.hpp"
#include "workloads/factory.hpp"

namespace nestflow {
namespace {

struct Cell {
  std::string workload;
  std::uint64_t seed;
  TopologyPoint point;
};

/// The program and engine options run_simulation_sweep uses for this cell.
SimResult run_cell(const Cell& cell, const Topology& topology,
                   SolverStrategy strategy) {
  WorkloadContext context;
  context.num_tasks = topology.num_endpoints();
  context.seed =
      hash_combine(cell.seed, std::hash<std::string>{}(cell.workload));
  const TrafficProgram program =
      make_workload(cell.workload)->generate(context);
  EngineOptions options;
  options.rate_quantum_rel = 0.01;
  options.completion_batch_rel = 1e-3;
  options.hop_latency_seconds = 1e-6;
  options.solver_strategy = strategy;
  FlowEngine engine(topology, options);
  return engine.run(program);
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.makespan, b.makespan) << context;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << context;
  EXPECT_EQ(a.events, b.events) << context;
  EXPECT_EQ(a.solver_rounds, b.solver_rounds) << context;
  EXPECT_EQ(a.max_link_utilization, b.max_link_utilization) << context;
  EXPECT_EQ(a.avg_active_flows, b.avg_active_flows) << context;
  EXPECT_EQ(a.peak_active_flows, b.peak_active_flows) << context;
  for (std::size_t c = 0; c < a.bytes_by_class.size(); ++c) {
    EXPECT_EQ(a.bytes_by_class[c], b.bytes_by_class[c]) << context;
  }
}

void expect_finishes_under_every_strategy(const Cell& cell) {
  const auto topology = build_point(cell.point, 1024);
  const std::string name = cell.workload + " seed " +
                           std::to_string(cell.seed) + " on " +
                           cell.point.config_name();
  const SimResult heap = run_cell(cell, *topology, SolverStrategy::kHeap);
  EXPECT_GT(heap.makespan, 0.0) << name;
  EXPECT_EQ(heap.stranded_flows, 0u) << name;
  EXPECT_EQ(heap.cancelled_flows, 0u) << name;
  expect_identical(heap, run_cell(cell, *topology, SolverStrategy::kScan),
                   name + " [scan vs heap]");
  expect_identical(heap, run_cell(cell, *topology, SolverStrategy::kAuto),
                   name + " [auto vs heap]");
}

TEST(SolverLivelock, BisectionSeed37NestGhcT4U8) {
  expect_finishes_under_every_strategy(
      {"bisection", 37, {"NestGHC", 4, 8, UpperTierKind::kGhc}});
}

TEST(SolverLivelock, UnstructuredAppSeed41Torus) {
  expect_finishes_under_every_strategy(
      {"unstructured-app", 41, {"Torus3D", 0, 0, std::nullopt}});
}

TEST(SolverLivelock, UnstructuredAppSeed46NestTreeT2U2) {
  expect_finishes_under_every_strategy(
      {"unstructured-app", 46, {"NestTree", 2, 2, UpperTierKind::kFattree}});
}

TEST(SolverLivelock, UnstructuredAppSeed58NestGhcT2U2) {
  expect_finishes_under_every_strategy(
      {"unstructured-app", 58, {"NestGHC", 2, 2, UpperTierKind::kGhc}});
}

}  // namespace
}  // namespace nestflow
