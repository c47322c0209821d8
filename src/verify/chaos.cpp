#include "verify/chaos.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "resilience/fault_model.hpp"
#include "resilience/fault_router.hpp"
#include "resilience/fault_timeline.hpp"
#include "topo/factory.hpp"
#include "util/prng.hpp"
#include "verify/invariant_auditor.hpp"
#include "workloads/factory.hpp"

namespace nestflow::verify {

namespace {

// --- Coverage tables --------------------------------------------------------

// Seven families, three machine sizes each (smallest first: the shrinker
// walks left). Endpoint counts stay in 12..64 so a per-event audited
// differential trial runs in milliseconds.
struct FamilySpecs {
  const char* family;
  std::array<const char*, 3> specs;
};

constexpr std::array<FamilySpecs, 7> kFamilies{{
    {"torus", {"torus:4x2x2", "torus:4x4x2", "torus:4x4x4"}},
    {"fattree", {"fattree:4,4", "fattree:8,4", "fattree:8,8"}},
    {"ghc", {"ghc:4x2x2", "ghc:4x4x2", "ghc:4x4x4"}},
    {"nesttree", {"nesttree:16,2,1", "nesttree:32,2,1", "nesttree:64,2,2"}},
    {"nestghc", {"nestghc:16,2,1", "nestghc:32,2,1", "nestghc:64,2,2"}},
    {"thintree", {"thintree:4,2,2", "thintree:4,3,2", "thintree:4,2,3"}},
    {"dragonfly", {"dragonfly:2,2,1", "dragonfly:2,2,2", "dragonfly:2,4,1"}},
}};

// The odd family out: rotated in occasionally so random regular graphs see
// the oracles too without disturbing the 7-slot family rotation.
constexpr std::array<const char*, 3> kJellyfish{
    "jellyfish:8,2,4", "jellyfish:16,2,5", "jellyfish:16,4,6"};

constexpr std::array<RecoveryPolicy, 3> kPolicies{
    RecoveryPolicy::kStrand, RecoveryPolicy::kReroute,
    RecoveryPolicy::kRestartBackoff};

[[nodiscard]] std::uint32_t pow2_floor(std::uint32_t n) {
  std::uint32_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

// --- Config (de)serialisation ----------------------------------------------

[[nodiscard]] std::string fmt_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

[[nodiscard]] const char* policy_name(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kStrand: return "strand";
    case RecoveryPolicy::kReroute: return "reroute";
    case RecoveryPolicy::kRestartBackoff: return "restart";
  }
  return "?";
}

[[nodiscard]] RecoveryPolicy parse_policy(std::string_view text) {
  if (text == "strand") return RecoveryPolicy::kStrand;
  if (text == "reroute") return RecoveryPolicy::kReroute;
  if (text == "restart") return RecoveryPolicy::kRestartBackoff;
  throw std::invalid_argument("chaos config: unknown recovery policy '" +
                              std::string(text) + "'");
}

[[nodiscard]] const char* fault_mode_name(ChaosFaultMode mode) {
  switch (mode) {
    case ChaosFaultMode::kNone: return "none";
    case ChaosFaultMode::kStatic: return "static";
    case ChaosFaultMode::kPoisson: return "poisson";
  }
  return "?";
}

[[nodiscard]] const char* strategy_name(SolverStrategy strategy) {
  switch (strategy) {
    case SolverStrategy::kAuto: return "auto";
    case SolverStrategy::kHeap: return "heap";
    case SolverStrategy::kScan: return "scan";
  }
  return "?";
}

[[nodiscard]] SolverStrategy parse_strategy(std::string_view text) {
  if (text == "auto") return SolverStrategy::kAuto;
  if (text == "heap") return SolverStrategy::kHeap;
  if (text == "scan") return SolverStrategy::kScan;
  throw std::invalid_argument("chaos config: unknown solver strategy '" +
                              std::string(text) + "'");
}

[[nodiscard]] const char* dispatch_name(DispatchStrategy strategy) {
  switch (strategy) {
    case DispatchStrategy::kAuto: return "auto";
    case DispatchStrategy::kEager: return "eager";
    case DispatchStrategy::kIndexed: return "indexed";
  }
  return "?";
}

[[nodiscard]] DispatchStrategy parse_dispatch(std::string_view text) {
  if (text == "auto") return DispatchStrategy::kAuto;
  if (text == "eager") return DispatchStrategy::kEager;
  if (text == "indexed") return DispatchStrategy::kIndexed;
  throw std::invalid_argument("chaos config: unknown dispatch strategy '" +
                              std::string(text) + "'");
}

[[nodiscard]] ChaosFaultMode parse_fault_mode(std::string_view text) {
  if (text == "none") return ChaosFaultMode::kNone;
  if (text == "static") return ChaosFaultMode::kStatic;
  if (text == "poisson") return ChaosFaultMode::kPoisson;
  throw std::invalid_argument("chaos config: unknown fault mode '" +
                              std::string(text) + "'");
}

[[nodiscard]] std::uint64_t parse_u64(std::string_view key,
                                      std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument("chaos config: bad integer for '" +
                                std::string(key) + "': '" +
                                std::string(text) + "'");
  }
  return value;
}

[[nodiscard]] double parse_f64(std::string_view key, std::string_view text) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() ||
      !std::isfinite(value)) {
    throw std::invalid_argument("chaos config: bad number for '" +
                                std::string(key) + "': '" +
                                std::string(text) + "'");
  }
  return value;
}

[[nodiscard]] bool parse_bool(std::string_view key, std::string_view text) {
  if (text == "1") return true;
  if (text == "0") return false;
  throw std::invalid_argument("chaos config: bad flag for '" +
                              std::string(key) + "': '" + std::string(text) +
                              "'");
}

// --- Trial execution --------------------------------------------------------

/// The fault scenario a config implies: deterministic victim picks shared
/// by the pre-applied model and the t0-timeline differential.
struct FaultPicks {
  std::vector<LinkId> cables;
  std::vector<NodeId> endpoints;
};

[[nodiscard]] FaultPicks pick_faults(const ChaosConfig& config,
                                     const Graph& graph) {
  FaultPicks picks;
  Prng rng(config.fault_seed, 0xFA01Du);
  for (std::uint32_t i = 0;
       i < config.fault_cables && graph.num_transit_links() > 0; ++i) {
    picks.cables.push_back(
        static_cast<LinkId>(rng.next_below(graph.num_transit_links())));
  }
  for (std::uint32_t i = 0; i < config.fault_endpoints; ++i) {
    picks.endpoints.push_back(
        static_cast<NodeId>(rng.next_below(graph.num_endpoints())));
  }
  return picks;
}

void apply_picks(FaultModel& model, const FaultPicks& picks) {
  for (const LinkId l : picks.cables) model.kill_cable(l);
  for (const NodeId e : picks.endpoints) model.kill_node(e);
}

[[nodiscard]] FaultTimeline t0_timeline(const FaultPicks& picks) {
  FaultTimeline timeline;
  for (const LinkId l : picks.cables) timeline.fail_cable(0.0, l);
  for (const NodeId e : picks.endpoints) timeline.fail_node(0.0, e);
  return timeline;
}

[[nodiscard]] EngineOptions physics_options(const ChaosConfig& config) {
  EngineOptions options;
  options.rate_quantum_rel = config.rate_quantum_rel;
  options.completion_batch_rel = config.completion_batch_rel;
  options.hop_latency_seconds = config.hop_latency_seconds;
  options.adaptive_routing = config.adaptive_routing;
  options.recovery_policy = config.recovery_policy;
  options.retry_backoff_seconds = config.retry_backoff_seconds;
  options.record_flow_times = config.record_flow_times;
  options.max_events = 2'000'000;
  options.audit_level = AuditLevel::kPerEvent;
  return options;
}

enum class RunKind { kPreApplied, kTimelineT0, kPoisson };

/// One fully-audited engine run of the configured trial.
[[nodiscard]] SimResult run_trial(const ChaosConfig& config,
                                  const Topology& inner,
                                  const TrafficProgram& program,
                                  const FaultPicks& picks,
                                  const EngineOptions& options,
                                  RunKind run_kind,
                                  double poisson_horizon) {
  FaultModel model(inner.graph());
  const bool pre_applied = run_kind == RunKind::kPreApplied;
  if (pre_applied) apply_picks(model, picks);

  std::unique_ptr<FaultAwareRouter> router;
  const Topology* routed = &inner;
  if (config.fault_router) {
    router = std::make_unique<FaultAwareRouter>(inner, model);
    routed = router.get();
  }

  FlowEngine engine(*routed, options);
  InvariantAuditor auditor(AuditorOptions{
      .capacity_tamper_factor = config.capacity_tamper_factor});
  if (pre_applied && config.fault_mode != ChaosFaultMode::kNone) {
    auditor.set_fault_reference(&model);
  }
  engine.set_auditor(&auditor);

  if (pre_applied) {
    if (config.fault_mode != ChaosFaultMode::kNone) model.apply(engine);
    return engine.run(program);
  }
  FaultTimeline timeline;
  if (run_kind == RunKind::kTimelineT0) {
    timeline = t0_timeline(picks);
  } else {
    const Graph& graph = inner.graph();
    FaultProcessParams params;
    params.horizon_seconds = poisson_horizon;
    const double cables =
        static_cast<double>(graph.num_transit_links()) / 2.0;
    // Expect roughly one cable and one endpoint failure per run, each
    // repaired within a quarter of the horizon on average.
    params.cable_mtbf_seconds = std::max(cables, 1.0) * poisson_horizon;
    params.endpoint_mtbf_seconds =
        static_cast<double>(graph.num_endpoints()) * poisson_horizon;
    params.mttr_seconds = poisson_horizon / 4.0;
    timeline = FaultTimeline::poisson(graph, params, config.fault_seed);
  }
  TimelineFaultDriver driver(timeline, model);
  return engine.run(program, driver);
}

void compare_u64(const char* what, const char* field, std::uint64_t a,
                 std::uint64_t b) {
  if (a != b) {
    throw std::runtime_error(std::string("differential [") + what + "] " +
                             field + ": " + std::to_string(a) + " vs " +
                             std::to_string(b));
  }
}

void compare_f64(const char* what, const char* field, double a, double b,
                 bool exact) {
  const bool same =
      exact ? a == b
            : std::abs(a - b) <=
                  1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
  if (!same) {
    throw std::runtime_error(std::string("differential [") + what + "] " +
                             field + ": " + fmt_double(a) + " vs " +
                             fmt_double(b));
  }
}

/// Every SimResult field must agree except the effort counters
/// (solver_rounds, whole_set_solves, component_walk_bails, cache
/// hits/misses, solve_seconds), which measure work done rather than
/// simulated physics. `exact` = bit-identity on doubles;
/// off for the t0-timeline differential, where the documented
/// strand-enumeration order difference perturbs FP sums in the last bits.
void compare_results(const char* what, const SimResult& a, const SimResult& b,
                     bool exact) {
  compare_f64(what, "makespan", a.makespan, b.makespan, exact);
  compare_f64(what, "total_bytes", a.total_bytes, b.total_bytes, exact);
  compare_u64(what, "num_flows", a.num_flows, b.num_flows);
  compare_u64(what, "events", a.events, b.events);
  compare_f64(what, "max_link_utilization", a.max_link_utilization,
              b.max_link_utilization, exact);
  compare_f64(what, "avg_active_flows", a.avg_active_flows,
              b.avg_active_flows, exact);
  compare_u64(what, "peak_active_flows", a.peak_active_flows,
              b.peak_active_flows);
  for (std::size_t c = 0; c < a.bytes_by_class.size(); ++c) {
    compare_f64(what, "bytes_by_class", a.bytes_by_class[c],
                b.bytes_by_class[c], exact);
  }
  compare_u64(what, "stranded_flows", a.stranded_flows, b.stranded_flows);
  compare_u64(what, "cancelled_flows", a.cancelled_flows, b.cancelled_flows);
  compare_u64(what, "rerouted_flows", a.rerouted_flows, b.rerouted_flows);
  compare_u64(what, "reroute_extra_hops",
              static_cast<std::uint64_t>(a.reroute_extra_hops),
              static_cast<std::uint64_t>(b.reroute_extra_hops));
  if (exact) {
    // A pre-applied static scenario reports 0 applied events while its
    // t0-timeline twin reports one per fault — skip in that differential.
    compare_u64(what, "fault_events_applied", a.fault_events_applied,
                b.fault_events_applied);
  }
  compare_u64(what, "recovered_flows", a.recovered_flows, b.recovered_flows);
  compare_u64(what, "flow_retries", a.flow_retries, b.flow_retries);
  compare_f64(what, "undelivered_bytes", a.undelivered_bytes,
              b.undelivered_bytes, exact);
  compare_u64(what, "flow_finish_times.size", a.flow_finish_times.size(),
              b.flow_finish_times.size());
  for (std::size_t f = 0; f < a.flow_finish_times.size(); ++f) {
    const double ta = a.flow_finish_times[f];
    const double tb = b.flow_finish_times[f];
    if (std::isnan(ta) && std::isnan(tb)) continue;
    compare_f64(what, "flow_finish_times", ta, tb, exact);
  }
}

}  // namespace

ChaosConfig make_chaos_config(std::uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  Prng rng(seed, 0xC4A05u);

  // Round-robin coverage axes (see file comment), random everything else.
  const auto& family = kFamilies[seed % kFamilies.size()];
  const std::size_t size_index = rng.next_below(family.specs.size());
  config.topo = family.specs[size_index];
  // Slot jellyfish in occasionally; it shares the torus rotation slot.
  if (rng.next_below(12) == 0) config.topo = kJellyfish[size_index];

  config.workload = all_workload_names()[(seed / 7) % 11];
  config.recovery_policy = kPolicies[(seed / 77) % kPolicies.size()];

  config.workload_seed = rng.next() | 1u;
  config.weighted = rng.next_bool(0.25);

  config.rate_quantum_rel =
      std::array{0.0, 0.0, 0.01, 0.05}[rng.next_below(4)];
  config.completion_batch_rel =
      std::array{0.0, 1e-6, 1e-3}[rng.next_below(3)];
  config.hop_latency_seconds = rng.next_bool(0.3) ? 1e-7 : 0.0;
  config.adaptive_routing = rng.next_bool(0.5);
  config.incremental_solver = rng.next_bool(0.75);
  config.route_cache = rng.next_bool(0.75);
  config.solve_cache = rng.next_bool(0.75);
  config.solver_threads =
      config.incremental_solver
          ? static_cast<std::uint32_t>(std::array{1, 2, 4, 8}[rng.next_below(4)])
          : 1u;
  config.retry_backoff_seconds = rng.next_bool(0.5) ? 1e-4 : 0.0;
  config.record_flow_times = rng.next_bool(0.5);

  const double fault_roll = rng.next_double();
  if (fault_roll < 0.40) {
    config.fault_mode = ChaosFaultMode::kNone;
  } else if (fault_roll < 0.75) {
    config.fault_mode = ChaosFaultMode::kStatic;
    config.fault_cables = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    config.fault_endpoints =
        static_cast<std::uint32_t>(rng.next_below(3));
  } else {
    config.fault_mode = ChaosFaultMode::kPoisson;
  }
  config.fault_seed = rng.next();
  // Reroute only does something behind a fault-aware router; otherwise
  // sample the router on occasionally to exercise its zero-fault identity.
  config.fault_router =
      config.recovery_policy == RecoveryPolicy::kReroute ||
      rng.next_bool(0.25);

  // Task count: a power of two that fits the machine (every workload's
  // precondition — AllReduce wants a power of two, Bisection evenness).
  const auto topology = make_topology(config.topo);
  std::uint32_t tasks = pow2_floor(
      std::min<std::uint32_t>(topology->num_endpoints(), 64));
  if (tasks > 8 && rng.next_bool(0.3)) tasks /= 2;
  config.tasks = tasks;

  // Sampled LAST so every draw above sees the exact Prng stream it saw
  // before this knob existed: old seeds keep their configs, and the new
  // axis rides on top of the established matrix.
  config.solver_strategy =
      std::array{SolverStrategy::kAuto, SolverStrategy::kHeap,
                 SolverStrategy::kScan}[rng.next_below(3)];
  // Same discipline for the dispatch axis, added after solver_strategy:
  // drawn last-of-all so every earlier knob still sees its historical
  // Prng stream.
  config.dispatch_strategy =
      std::array{DispatchStrategy::kAuto, DispatchStrategy::kEager,
                 DispatchStrategy::kIndexed}[rng.next_below(3)];
  return config;
}

std::string to_config_string(const ChaosConfig& config) {
  std::string out;
  const auto add = [&out](std::string_view key, const std::string& value) {
    if (!out.empty()) out += ';';
    out += key;
    out += '=';
    out += value;
  };
  add("seed", std::to_string(config.seed));
  add("topo", config.topo);
  add("workload", config.workload);
  add("tasks", std::to_string(config.tasks));
  add("wseed", std::to_string(config.workload_seed));
  add("weighted", config.weighted ? "1" : "0");
  add("quantum", fmt_double(config.rate_quantum_rel));
  add("batch", fmt_double(config.completion_batch_rel));
  add("hoplat", fmt_double(config.hop_latency_seconds));
  add("adaptive", config.adaptive_routing ? "1" : "0");
  add("incremental", config.incremental_solver ? "1" : "0");
  add("routecache", config.route_cache ? "1" : "0");
  add("solvecache", config.solve_cache ? "1" : "0");
  add("threads", std::to_string(config.solver_threads));
  add("strategy", strategy_name(config.solver_strategy));
  add("dispatch", dispatch_name(config.dispatch_strategy));
  add("policy", policy_name(config.recovery_policy));
  add("backoff", fmt_double(config.retry_backoff_seconds));
  add("times", config.record_flow_times ? "1" : "0");
  add("faults", fault_mode_name(config.fault_mode));
  add("cables", std::to_string(config.fault_cables));
  add("endpoints", std::to_string(config.fault_endpoints));
  add("fseed", std::to_string(config.fault_seed));
  add("frouter", config.fault_router ? "1" : "0");
  add("tamper", fmt_double(config.capacity_tamper_factor));
  return out;
}

ChaosConfig parse_config_string(const std::string& text) {
  ChaosConfig config;
  std::string_view rest = text;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string_view token = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("chaos config: token without '=': '" +
                                  std::string(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "seed") config.seed = parse_u64(key, value);
    else if (key == "topo") config.topo = std::string(value);
    else if (key == "workload") config.workload = std::string(value);
    else if (key == "tasks")
      config.tasks = static_cast<std::uint32_t>(parse_u64(key, value));
    else if (key == "wseed") config.workload_seed = parse_u64(key, value);
    else if (key == "weighted") config.weighted = parse_bool(key, value);
    else if (key == "quantum") config.rate_quantum_rel = parse_f64(key, value);
    else if (key == "batch")
      config.completion_batch_rel = parse_f64(key, value);
    else if (key == "hoplat")
      config.hop_latency_seconds = parse_f64(key, value);
    else if (key == "adaptive")
      config.adaptive_routing = parse_bool(key, value);
    else if (key == "incremental")
      config.incremental_solver = parse_bool(key, value);
    else if (key == "routecache") config.route_cache = parse_bool(key, value);
    else if (key == "solvecache") config.solve_cache = parse_bool(key, value);
    else if (key == "threads")
      config.solver_threads = static_cast<std::uint32_t>(parse_u64(key, value));
    // Absent "strategy" keys (reproducers predating the knob) keep the
    // default kAuto — absence is tolerated, only bad values throw.
    else if (key == "strategy")
      config.solver_strategy = parse_strategy(value);
    else if (key == "dispatch")
      config.dispatch_strategy = parse_dispatch(value);
    else if (key == "policy") config.recovery_policy = parse_policy(value);
    else if (key == "backoff")
      config.retry_backoff_seconds = parse_f64(key, value);
    else if (key == "times")
      config.record_flow_times = parse_bool(key, value);
    else if (key == "faults") config.fault_mode = parse_fault_mode(value);
    else if (key == "cables")
      config.fault_cables = static_cast<std::uint32_t>(parse_u64(key, value));
    else if (key == "endpoints")
      config.fault_endpoints =
          static_cast<std::uint32_t>(parse_u64(key, value));
    else if (key == "fseed") config.fault_seed = parse_u64(key, value);
    else if (key == "frouter") config.fault_router = parse_bool(key, value);
    else if (key == "tamper")
      config.capacity_tamper_factor = parse_f64(key, value);
    else
      throw std::invalid_argument("chaos config: unknown key '" +
                                  std::string(key) + "'");
  }
  return config;
}

std::string reproducer_line(const ChaosConfig& config,
                            const std::string& failure) {
  return "REPRO: fuzz_engine --config '" + to_config_string(config) +
         "'  # " + failure;
}

void run_chaos(const ChaosConfig& config) {
  const auto topology = make_topology(config.topo);
  if (config.tasks > topology->num_endpoints()) {
    throw std::invalid_argument("chaos config: tasks " +
                                std::to_string(config.tasks) +
                                " exceed endpoints " +
                                std::to_string(topology->num_endpoints()));
  }
  const auto workload = make_workload(config.workload);
  TrafficProgram program =
      workload->generate({config.tasks, config.workload_seed});
  if (config.weighted) {
    Prng rng(config.seed, 0x3e197u);
    for (FlowIndex f = 0; f < program.num_flows(); ++f) {
      if (!program.flow(f).is_sync) {
        program.set_flow_weight(
            f, static_cast<double>(1 + rng.next_below(4)));
      }
    }
  }

  const FaultPicks picks =
      config.fault_mode == ChaosFaultMode::kStatic
          ? pick_faults(config, topology->graph())
          : FaultPicks{};

  double poisson_horizon = 0.0;
  if (config.fault_mode == ChaosFaultMode::kPoisson) {
    // Size the failure process to the workload: a quick unaudited healthy
    // run yields the horizon failures are drawn over.
    FlowEngine prelim(*topology);
    poisson_horizon = prelim.run(program).makespan;
    if (!(poisson_horizon > 0.0)) poisson_horizon = 1.0;
  }

  const RunKind run_kind = config.fault_mode == ChaosFaultMode::kPoisson
                               ? RunKind::kPoisson
                               : RunKind::kPreApplied;

  // Reference: the naive solver path, fully audited, always on the PR-6
  // heap kernel — the yardstick every sampled strategy is pinned against.
  EngineOptions reference_options = physics_options(config);
  reference_options.incremental_solver = false;
  reference_options.route_cache = false;
  reference_options.solve_cache = false;
  reference_options.solver_threads = 1;
  reference_options.solver_strategy = SolverStrategy::kHeap;
  reference_options.dispatch_strategy = DispatchStrategy::kEager;
  const SimResult reference = run_trial(config, *topology, program, picks,
                                        reference_options, run_kind,
                                        poisson_horizon);

  // Variant: the sampled incremental/cache/thread configuration. Same
  // physics, so everything but the effort counters must be bit-identical.
  EngineOptions variant_options = physics_options(config);
  variant_options.incremental_solver = config.incremental_solver;
  variant_options.route_cache = config.route_cache;
  variant_options.solve_cache = config.solve_cache;
  variant_options.solver_threads =
      config.incremental_solver ? config.solver_threads : 1;
  variant_options.solver_strategy = config.solver_strategy;
  variant_options.dispatch_strategy = config.dispatch_strategy;
  const SimResult variant = run_trial(config, *topology, program, picks,
                                      variant_options, run_kind,
                                      poisson_horizon);
  compare_results("reference-vs-variant", reference, variant,
                  /*exact=*/true);

  // Static faults delivered as t = 0 timeline events must tell the same
  // story (counts exactly; byte sums within FP strand-order noise).
  if (config.fault_mode == ChaosFaultMode::kStatic) {
    const SimResult timeline =
        run_trial(config, *topology, program, picks, variant_options,
                  RunKind::kTimelineT0, 0.0);
    compare_results("static-vs-t0-timeline", variant, timeline,
                    /*exact=*/false);
  }
}

std::string run_chaos_failure(const ChaosConfig& config) {
  try {
    run_chaos(config);
    return {};
  } catch (const std::exception& error) {
    return error.what();
  }
}

ChaosConfig shrink_config(const ChaosConfig& config) {
  ChaosConfig best = config;
  if (run_chaos_failure(best).empty()) return best;

  // Each move proposes a simpler config; greedily keep it while the trial
  // still fails. Repeat passes until a whole pass changes nothing.
  const auto moves = std::vector<void (*)(ChaosConfig&)>{
      [](ChaosConfig& c) {
        c.fault_mode = ChaosFaultMode::kNone;
        c.fault_cables = 0;
        c.fault_endpoints = 0;
      },
      [](ChaosConfig& c) { c.fault_endpoints = 0; },
      [](ChaosConfig& c) { c.fault_cables = c.fault_cables > 1 ? 1 : c.fault_cables; },
      [](ChaosConfig& c) { c.fault_router = false; },
      [](ChaosConfig& c) { c.recovery_policy = RecoveryPolicy::kStrand; },
      [](ChaosConfig& c) { c.weighted = false; },
      [](ChaosConfig& c) { c.record_flow_times = false; },
      [](ChaosConfig& c) { c.hop_latency_seconds = 0.0; },
      [](ChaosConfig& c) { c.rate_quantum_rel = 0.0; },
      [](ChaosConfig& c) { c.completion_batch_rel = 0.0; },
      [](ChaosConfig& c) { c.adaptive_routing = false; },
      [](ChaosConfig& c) { c.retry_backoff_seconds = 0.0; },
      [](ChaosConfig& c) { c.solver_threads = 1; },
      // Forcing the reference kernel exonerates (or indicts) the scan/auto
      // paths: if the failure survives on kHeap, the new kernel is not it.
      [](ChaosConfig& c) { c.solver_strategy = SolverStrategy::kHeap; },
      // Same idea for dispatch: a failure that survives on the eager sweep
      // clears the indexed/auto dispatch kernels.
      [](ChaosConfig& c) { c.dispatch_strategy = DispatchStrategy::kEager; },
      [](ChaosConfig& c) { c.solve_cache = false; },
      [](ChaosConfig& c) { c.route_cache = false; },
      [](ChaosConfig& c) {
        c.incremental_solver = false;
        c.solver_threads = 1;
      },
      [](ChaosConfig& c) {
        if (c.tasks >= 8) c.tasks /= 2;
      },
      [](ChaosConfig& c) {
        // Walk to a smaller machine of the same family.
        for (const auto& family : kFamilies) {
          for (std::size_t i = 1; i < family.specs.size(); ++i) {
            if (c.topo == family.specs[i]) {
              c.topo = family.specs[i - 1];
              return;
            }
          }
        }
        for (std::size_t i = 1; i < kJellyfish.size(); ++i) {
          if (c.topo == kJellyfish[i]) c.topo = kJellyfish[i - 1];
        }
      },
      [](ChaosConfig& c) { c.workload = "flood"; },
  };

  bool changed = true;
  int passes = 0;
  while (changed && passes++ < 4) {
    changed = false;
    for (const auto& move : moves) {
      ChaosConfig candidate = best;
      move(candidate);
      // Keep tasks legal for the (possibly shrunken) machine.
      try {
        const auto topology = make_topology(candidate.topo);
        candidate.tasks = std::min(
            candidate.tasks, pow2_floor(topology->num_endpoints()));
      } catch (const std::exception&) {
        continue;
      }
      if (to_config_string(candidate) == to_config_string(best)) continue;
      if (!run_chaos_failure(candidate).empty()) {
        best = candidate;
        changed = true;
      }
    }
  }
  return best;
}

void check_degenerate_inputs() {
  std::vector<std::string> offenders;
  const auto expect_invalid = [&offenders](const char* what, auto&& call) {
    try {
      call();
    } catch (const std::invalid_argument& error) {
      if (error.what() == nullptr || error.what()[0] == '\0') {
        offenders.push_back(std::string("'") + what +
                            "' threw an empty-message error");
      }
      return;
    } catch (const std::exception& error) {
      offenders.push_back(std::string("'") + what + "' threw \"" +
                          error.what() +
                          "\" instead of std::invalid_argument");
      return;
    }
    offenders.push_back(std::string("'") + what + "' was silently accepted");
  };

  // Malformed / impossible topology specs.
  for (const char* spec :
       {"", "torus", "torus:", "torus:0x0x0", "torus:1x1x1", "torus:axbxc",
        "fattree:", "fattree:0,4", "ghc:0x2x2", "nesttree:0,2,1",
        "nesttree:16,0,1", "thintree:1,2,2", "thintree:4,2,0",
        "thintree:4,0,2", "dragonfly:0,2,1", "dragonfly:2,0,1",
        "jellyfish:4,2,0", "jellyfish:0,2,4", "bogus:1"}) {
    expect_invalid(spec, [spec] { (void)make_topology(spec); });
  }

  // Malformed workload specs: unknown names/keys and non-numeric values.
  for (const char* spec :
       {"bogus", "flood:bogus=1", "allreduce:bytes=nope",
        "allreduce:bytes=", "reduce:bytes=1x", "bisection:rounds=-3",
        "uniform-injection:load=1e", "allreduce:bytes=1;rounds=2"}) {
    expect_invalid(spec, [spec] { (void)make_workload(spec); });
  }

  // Task counts below each workload's minimum.
  const std::pair<const char*, std::uint32_t> generate_probes[] = {
      {"flood", 0},         {"flood", 1},       {"allreduce", 6},
      {"bisection", 7},     {"sweep3d", 1},     {"nearneighbors", 0},
      {"reduce", 1},        {"nbodies", 1},     {"mapreduce", 1},
      {"unstructured-app", 1},
  };
  for (const auto& [name, tasks] : generate_probes) {
    const std::string what =
        std::string(name) + " with " + std::to_string(tasks) + " tasks";
    expect_invalid(what.c_str(), [name = name, tasks = tasks] {
      (void)make_workload(name)->generate({tasks, 1});
    });
  }

  if (!offenders.empty()) {
    std::string message = "degenerate inputs mishandled:";
    for (const auto& offender : offenders) message += "\n  " + offender;
    throw std::runtime_error(message);
  }
}

}  // namespace nestflow::verify
