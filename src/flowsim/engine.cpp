#include "flowsim/engine.hpp"

#include "flowsim/audit.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define NESTFLOW_SWEEP_AVX2 1
#endif

namespace nestflow {

namespace {

/// Min-heap order on release time. Deliberately no tie-break on the flow
/// index: equal-time pops follow heap order, a deterministic function of
/// the push sequence, and that pre-existing order is part of the engine's
/// bit-exact regression surface.
bool release_after(const std::pair<double, FlowIndex>& a,
                   const std::pair<double, FlowIndex>& b) {
  return a.first > b.first;
}

/// "Less" comparator that turns std::*_heap into a MIN-heap over
/// (finish, flow): the heap's notion of "largest" is the latest finish, so
/// the front is always the earliest predicted finish — ties broken toward
/// the smallest flow index, which is the deterministic order the dispatch
/// contract promises. Generic parameters because FinishEntry is
/// FlowEngine-private.
constexpr auto finish_after = [](const auto& a, const auto& b) {
  if (a.finish != b.finish) return a.finish > b.finish;
  return a.flow > b.flow;
};

}  // namespace

FlowEngine::FlowEngine(const Topology& topology, EngineOptions options)
    : topology_(topology),
      options_(options),
      route_cache_active_(options.route_cache && !options.adaptive_routing &&
                          topology.routes_are_static()) {
  // Floor the batching window at a couple of ulps so the flow that defines
  // dt always passes its own completion test despite rounding.
  options_.completion_batch_rel =
      std::max(options_.completion_batch_rel, 1e-12);

  const Graph& graph = topology_.graph();
  const auto num_links = graph.num_links();
  link_capacity_.resize(num_links);
  for (LinkId l = 0; l < num_links; ++l) {
    link_capacity_[l] = graph.link(l).capacity_bps;
  }
  link_base_capacity_ = link_capacity_;
  incidence_.reset(num_links);
  link_active_count_.assign(num_links, 0);
  link_weight_sum_.assign(num_links, 0.0);
  link_in_used_.assign(num_links, 0);
  link_bytes_.assign(num_links, 0.0);
  link_dirty_.assign(num_links, 0);
  link_in_component_.assign(num_links, 0);

  // Intra-run parallelism: one keep-alive pool for the engine's lifetime.
  // Only the incremental path is parallelised (the component partition is
  // what the workers divide), so a serial-solver engine never pays for a
  // pool it cannot use.
  std::size_t solver_threads = options_.solver_threads;
  if (solver_threads == 0) {
    solver_threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (solver_threads > 1 && options_.incremental_solver) {
    solver_pool_ = std::make_unique<ThreadPool>(solver_threads);
    worker_solvers_.reserve(solver_threads);
    for (std::size_t w = 0; w < solver_threads; ++w) {
      worker_solvers_.push_back(
          std::make_unique<FairShareSolver<EngineContext>>());
      worker_solvers_.back()->set_strategy(options_.solver_strategy);
    }
  }
  solver_.set_strategy(options_.solver_strategy);
}

void FlowEngine::set_capacity_factor(LinkId link, double factor) {
  if (link >= link_capacity_.size()) {
    throw std::out_of_range("set_capacity_factor: bad link");
  }
  if (std::isnan(factor)) {
    throw std::invalid_argument("set_capacity_factor: factor is NaN");
  }
  if (factor < 0.0) {
    throw std::invalid_argument(
        "set_capacity_factor: factor is negative; use 0 for a dead link");
  }
  if (factor > 1.0) {
    throw std::invalid_argument(
        "set_capacity_factor: factor exceeds 1 (links cannot exceed "
        "nominal capacity)");
  }
  link_capacity_[link] = link_base_capacity_[link] * factor;
  drop_solve_cache();
}

void FlowEngine::reset_capacity_factors() {
  link_capacity_ = link_base_capacity_;
  drop_solve_cache();
}

EngineError::Snapshot FlowEngine::loop_snapshot(std::uint64_t events,
                                                double now) const noexcept {
  EngineError::Snapshot snapshot;
  snapshot.events = events;
  snapshot.sim_time = now;
  snapshot.active_flows = active_flows_.size();
  snapshot.pending_flows = release_queue_.size();
  snapshot.last_event = last_event_;
  return snapshot;
}

void FlowEngine::drop_solve_cache() {
  // Correctness never needs this — every key embeds the capacity bits of
  // its links, so entries recorded under other capacities simply stop
  // matching — but fault sweeps that keep flipping factors would otherwise
  // accumulate unmatchable entries until the size cap bites.
  solve_cache_map_.clear();
  solve_cache_entries_.clear();
  solve_key_arena_.clear();
  solve_rates_arena_.clear();
  solve_insert_armed_ = false;
}

bool FlowEngine::activate(FlowIndex f, double now, SimResult& result) {
  // flows()[f], not flow(f): f comes from validated engine state, and the
  // .at() bounds check is measurable at shuffle activation rates.
  const FlowSpec& spec = program_->flows()[f];
  const Graph& graph = topology_.graph();

  std::uint32_t offset;
  std::uint32_t len;
  const std::uint64_t pair_key = spec.pair_key();
  const RouteCacheEntry* cached =
      route_cache_active_ ? route_cache_.find(pair_key) : nullptr;
  if (cached != nullptr) {
    // Memoized full resource path (the NIC links are themselves functions
    // of (src, dst)): share the cached extent instead of routing + copying.
    ++result.route_cache_hits;
    offset = cached->offset;
    len = cached->length;
    path_shared_[f] = 1;
  } else {
    route_scratch_.clear();
    const RouteOutcome outcome = topology_.try_route(
        spec.src, spec.dst, route_scratch_,
        LinkLoads(link_active_count_, link_capacity_),
        options_.adaptive_routing);
    if (outcome.status == RouteStatus::kStranded) return false;
    if (outcome.status == RouteStatus::kRerouted) {
      ++result.rerouted_flows;
      result.reroute_extra_hops += outcome.extra_hops;
    }

    // Full resource path: injection NIC, transit links, consumption NIC.
    len = static_cast<std::uint32_t>(route_scratch_.links.size() + 2);
    if (len > std::numeric_limits<std::uint16_t>::max()) {
      // path_length_ is u16 on purpose (per-flow arrays scale with total
      // flow count); the deepest nested route here is tens of links.
      throw std::length_error("FlowEngine: route exceeds 65535 links");
    }
    if (route_cache_active_) ++result.route_cache_misses;
    const bool cache_owned =
        route_cache_active_ && route_cache_.size() < kMaxCachedRoutes;
    LinkId* dst;
    if (cache_owned) {
      // The cache takes ownership of the extent: it lives in the persistent
      // shared arena (never recycled, survives run() calls) so the
      // (offset, length) pair is a stable identity for this pair's path —
      // which is what the solve cache keys flows by.
      offset = static_cast<std::uint32_t>(shared_arena_.size());
      shared_arena_.resize(shared_arena_.size() + len);
      dst = shared_arena_.data() + offset;
      route_cache_.insert(pair_key, RouteCacheEntry{offset, len});
      path_shared_[f] = 1;
    } else {
      if (len < free_paths_by_length_.size() &&
          !free_paths_by_length_[len].empty()) {
        offset = free_paths_by_length_[len].back();
        free_paths_by_length_[len].pop_back();
      } else {
        offset = static_cast<std::uint32_t>(path_arena_.size());
        path_arena_.resize(path_arena_.size() + len);
      }
      dst = path_arena_.data() + offset;
      path_shared_[f] = 0;
    }
    dst[0] = graph.injection_link(spec.src);
    std::copy(route_scratch_.links.begin(), route_scratch_.links.end(),
              dst + 1);
    dst[len - 1] = graph.consumption_link(spec.dst);
  }

  path_offset_[f] = offset;
  path_length_[f] = static_cast<std::uint16_t>(len);
  state_[f] = FlowState::kActive;

  // Claim the next dispatch slot (slot index == position in active_flows_).
  // Growth is manual 1.25x instead of the vector's doubling: at million-
  // endpoint scale the live+old copies of a doubling realloc would dominate
  // peak RSS, and run_impl pre-reserves the exact first wave anyway.
  active_pos_[f] = static_cast<std::uint32_t>(active_flows_.size());
  active_flows_.push_back(f);
  if (slots_.capacity() < active_flows_.size()) {
    const std::size_t want = std::max(
        active_flows_.size(), slots_.capacity() + slots_.capacity() / 4);
    slots_.reserve(want);
    slot_rate_.reserve(want);
    slot_finish_.reserve(want);
  }
  slots_.resize(active_flows_.size());
  slot_rate_.resize(active_flows_.size());
  slot_finish_.resize(active_flows_.size());
  SlotState& slot = slots_.back();
  slot.remaining = spec.bytes;
  // Pipeline-fill latency: one hop per transit link (the two NIC links are
  // endpoint-internal).
  slot.latency_left = options_.hop_latency_seconds > 0.0
                          ? options_.hop_latency_seconds * (len - 2)
                          : 0.0;
  // Sentinel: no real rate compares equal, so the next advance pass is
  // guaranteed to touch this flow (activation marks its links dirty, so it
  // is always in the solved set). It is never multiplied: settling at the
  // slot's own settle_time is an exact no-op.
  slot_rate_.back() = -1.0;
  slot.settle_time = now;

  // Prefetch front-pass: the charge loop below touches four per-link
  // structures at random link ids. At figure scale they sit in cache, but
  // at 2^20 endpoints each is tens of MB and every first touch is a DRAM
  // miss — starting all of them before any is consumed lets the misses
  // overlap instead of serialising per link.
  for (const LinkId l : path_view(f)) {
    incidence_.prefetch(l);
    __builtin_prefetch(&link_weight_sum_[l], 1);
    __builtin_prefetch(&link_active_count_[l], 1);
    __builtin_prefetch(&link_dirty_[l], 1);
  }
  for (const LinkId l : path_view(f)) {
    incidence_.add(l, f);
    link_weight_sum_[l] += spec.weight;
    if (incremental_) mark_dirty(l);
    if (link_active_count_[l]++ == 0) {
      ++num_active_links_;
      if (!link_in_used_[l]) {
        link_in_used_[l] = 1;
        used_links_.push_back(l);
      }
    }
  }
  return true;
}

void FlowEngine::complete(FlowIndex f, double now,
                          std::vector<FlowIndex>& ready) {
  state_[f] = FlowState::kDone;
  last_event_ = "completion";
  // A completed flow delivered exactly its payload across every link of its
  // path; accounting once here is equivalent to (and much cheaper than)
  // accumulating rate*dt per event.
  const FlowSpec& spec = program_->flows()[f];  // unchecked: f is active
  const double bytes = spec.bytes;
  const double weight = spec.weight;
  for (const LinkId l : path_view(f)) {
    link_bytes_[l] += bytes;
    if (--link_active_count_[l] == 0) --num_active_links_;
    // Zero exactly when the link empties so weight dust never accumulates.
    link_weight_sum_[l] =
        link_active_count_[l] == 0 ? 0.0 : link_weight_sum_[l] - weight;
    if (incremental_) mark_dirty(l);
    incidence_.note_stale(l);
    if (incidence_.should_compact(l)) compact_link(l);
  }
  recycle_path(f);

  if (!flow_finish_times_scratch_.empty()) {
    flow_finish_times_scratch_[f] = now;
  }

  for (const FlowIndex child : dag_scratch_->children(f)) {
    // Children cancelled by a stranded ancestor stay cancelled.
    if (--pending_parents_[child] == 0 &&
        state_[child] == FlowState::kPending) {
      ready.push_back(child);
    }
  }
}

void FlowEngine::strand(FlowIndex f, SimResult& result) {
  state_[f] = FlowState::kCancelled;
  ++result.stranded_flows;
  result.undelivered_bytes += program_->flow(f).bytes;
  if (!flow_finish_times_scratch_.empty()) {
    flow_finish_times_scratch_[f] = std::numeric_limits<double>::quiet_NaN();
  }
  cancel_descendants(f, result);
}

void FlowEngine::detach_from_network(FlowIndex f) {
  // Undo the link occupancy activate() charged. Bytes the flow moved before
  // the teardown are not credited to this path: link_bytes_ counts payload
  // against the path that finally delivers it (see complete()).
  const double weight = program_->flow(f).weight;
  for (const LinkId l : path_view(f)) {
    if (--link_active_count_[l] == 0) --num_active_links_;
    link_weight_sum_[l] =
        link_active_count_[l] == 0 ? 0.0 : link_weight_sum_[l] - weight;
    if (incremental_) mark_dirty(l);
    // Eager removal, not note_stale: a detached flow may re-activate on a
    // DIFFERENT path (reroute, restart retry), and the solver's staleness
    // filter — "is the flow active?" — would then wrongly freeze it at
    // shares of links it no longer crosses (found by the chaos harness's
    // max-min optimality oracle, see src/verify/).
    incidence_.remove(l, f);
  }
  recycle_path(f);
}

void FlowEngine::strand_active(FlowIndex f, SimResult& result) {
  detach_from_network(f);
  strand(f, result);
}

void FlowEngine::recycle_path(FlowIndex f) {
  // Cache-owned extents are shared across flows and live for the whole run.
  if (path_shared_[f]) return;
  const auto len = path_length_[f];
  if (len >= free_paths_by_length_.size()) {
    free_paths_by_length_.resize(len + 1);
  }
  free_paths_by_length_[len].push_back(path_offset_[f]);
}

bool FlowEngine::collect_dirty_components() {
  // Seed with the dirty links that still carry active flows; a drained
  // dirty link contributes nothing itself, but each link of a completed
  // flow's path was marked dirty individually, so every component the
  // completion touched is reached through its surviving links.
  affected_links_.clear();
  affected_flows_.clear();
  for (const LinkId seed : dirty_links_) {
    link_dirty_[seed] = 0;
    if (link_active_count_[seed] != 0 && !link_in_component_[seed]) {
      link_in_component_[seed] = 1;
      affected_links_.push_back(seed);
    }
  }
  dirty_links_.clear();

  // Once the walk has pulled in more than half the active flows, finishing
  // it costs more than it can save — the whole-set solve it would justify
  // is exact for any superset. Bail, clear the marks, let the caller
  // promote.
  const std::size_t bail_flows = active_flows_.size() / 2;

  // BFS over the bipartite flow-link incidence; affected_links_ doubles as
  // the frontier queue. The result is a union of *complete* connected
  // components: any flow sharing a link with an affected flow is affected,
  // which is exactly the closure that makes a sub-solve exact (rates of a
  // component depend on nothing outside it).
  for (std::size_t scan = 0; scan < affected_links_.size(); ++scan) {
    for (const FlowIndex g : incidence_.flows(affected_links_[scan])) {
      if (state_[g] != FlowState::kActive || flow_in_component_[g]) continue;
      flow_in_component_[g] = 1;
      affected_flows_.push_back(g);
      for (const LinkId l : path_view(g)) {
        if (!link_in_component_[l]) {
          link_in_component_[l] = 1;
          affected_links_.push_back(l);
        }
      }
    }
    if (affected_flows_.size() > bail_flows) {
      for (const LinkId l : affected_links_) link_in_component_[l] = 0;
      for (const FlowIndex g : affected_flows_) flow_in_component_[g] = 0;
      return true;
    }
  }
  for (const LinkId l : affected_links_) link_in_component_[l] = 0;
  for (const FlowIndex g : affected_flows_) flow_in_component_[g] = 0;
  return false;
}

bool FlowEngine::collect_dirty_components_partitioned() {
  // Same seeding and closure rules as collect_dirty_components(), but each
  // seed's component is BFS-exhausted before the next seed starts, so every
  // component occupies a contiguous range of affected_flows_ and
  // affected_links_ — the unit of work the solver pool divides. The union
  // of ranges equals the serial function's affected set; only the
  // enumeration order differs (grouped by component instead of globally
  // interleaved), which cannot change any rate: components share no links,
  // and within a component the solver's freeze sequence is a pure function
  // of content, not of enumeration order (see maxmin.hpp).
  affected_links_.clear();
  affected_flows_.clear();
  components_.clear();
  const std::size_t bail_flows = active_flows_.size() / 2;
  for (const LinkId seed : dirty_links_) link_dirty_[seed] = 0;
  for (const LinkId seed : dirty_links_) {
    if (link_active_count_[seed] == 0 || link_in_component_[seed]) continue;
    const auto flow_begin = static_cast<std::uint32_t>(affected_flows_.size());
    const auto link_begin = static_cast<std::uint32_t>(affected_links_.size());
    link_in_component_[seed] = 1;
    affected_links_.push_back(seed);
    for (std::size_t scan = link_begin; scan < affected_links_.size();
         ++scan) {
      for (const FlowIndex g : incidence_.flows(affected_links_[scan])) {
        if (state_[g] != FlowState::kActive || flow_in_component_[g]) continue;
        flow_in_component_[g] = 1;
        affected_flows_.push_back(g);
        for (const LinkId l : path_view(g)) {
          if (!link_in_component_[l]) {
            link_in_component_[l] = 1;
            affected_links_.push_back(l);
          }
        }
      }
      if (affected_flows_.size() > bail_flows) {
        for (const LinkId l : affected_links_) link_in_component_[l] = 0;
        for (const FlowIndex g : affected_flows_) flow_in_component_[g] = 0;
        dirty_links_.clear();
        return true;
      }
    }
    components_.push_back(
        ComponentRange{flow_begin,
                       static_cast<std::uint32_t>(affected_flows_.size()),
                       link_begin,
                       static_cast<std::uint32_t>(affected_links_.size())});
  }
  dirty_links_.clear();
  for (const LinkId l : affected_links_) link_in_component_[l] = 0;
  for (const FlowIndex g : affected_flows_) flow_in_component_[g] = 0;
  return false;
}

void FlowEngine::prune_used_links() {
  std::erase_if(used_links_, [this](LinkId l) {
    if (link_active_count_[l] > 0) return false;
    link_in_used_[l] = 0;
    return true;
  });
}

void FlowEngine::solve_component(std::size_t c,
                                 FairShareSolver<EngineContext>& solver) {
  const ComponentRange& range = components_[c];
  const std::span<const LinkId> links(
      affected_links_.data() + range.link_begin,
      range.link_end - range.link_begin);
  const std::span<const FlowIndex> flows(
      affected_flows_.data() + range.flow_begin,
      range.flow_end - range.flow_begin);

  if (solve_cache_active_) {
    // Per-component analogue of try_cached_solve: an unstable path identity
    // only forfeits memoization for THIS component, not the whole event.
    bool stable_identity = true;
    for (const FlowIndex f : flows) {
      if (!path_shared_[f]) {
        stable_identity = false;
        break;
      }
    }
    if (stable_identity) {
      auto& key = component_keys_[c];
      const std::uint64_t hash = build_solve_key(links, flows, key);
      component_hash_[c] = hash;
      // Read-only probe against the cache state frozen at event start
      // (inserts are deferred to the serial commit), so concurrent
      // components race on nothing — and the lookup outcome is independent
      // of scheduling.
      if (const double* memo = find_cached_rates(key, hash)) {
        for (std::size_t i = 0; i < flows.size(); ++i) {
          rates_[flows[i]] = memo[i];
        }
        component_cache_[c] = ComponentCache::kHit;
        return;
      }
      component_cache_[c] = ComponentCache::kMiss;
    }
  }
  const EngineContext ctx{this};
  component_rounds_[c] =
      solver.solve(ctx, links, link_weight_sum_, flows, rates_);
}

void FlowEngine::parallel_solve(SimResult& result) {
  const std::size_t ncomp = components_.size();
  component_rounds_.assign(ncomp, 0);
  component_cache_.assign(ncomp, ComponentCache::kUncacheable);
  component_hash_.assign(ncomp, 0);
  if (component_keys_.size() < ncomp) component_keys_.resize(ncomp);

  if (ncomp == 1) {
    // Nothing to divide: solve inline on the caller with the engine's own
    // scratch, skipping the pool round-trip. Identical arithmetic either
    // way — worker scratch carries no state between solves.
    solve_component(0, solver_);
  } else {
    // Workers pull component indices off a shared counter (dynamic load
    // balance: component sizes are wildly uneven). Which worker solves
    // which component is scheduling-dependent, but nothing observable
    // depends on it: rates land in disjoint per-flow slots, per-component
    // outcomes land in the c-th slot of each array, and cache probes read
    // frozen state.
    std::atomic<std::size_t> next{0};
    TaskGroup group(*solver_pool_);
    const std::size_t lanes = std::min(ncomp, solver_pool_->size());
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      group.run([this, &next, ncomp] {
        FairShareSolver<EngineContext>& solver =
            *worker_solvers_[solver_pool_->current_worker_index()];
        for (;;) {
          const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
          if (c >= ncomp) return;
          solve_component(c, solver);
        }
      });
    }
    group.wait();
  }

  // Serial commit in component-discovery order: counters and cache inserts
  // become a pure function of the event sequence — independent of worker
  // count and scheduling — which is what makes every SimResult field
  // bit-identical across thread counts > 1.
  for (std::size_t c = 0; c < ncomp; ++c) {
    switch (component_cache_[c]) {
      case ComponentCache::kHit:
        ++result.solve_cache_hits;
        break;
      case ComponentCache::kMiss: {
        ++result.solve_cache_misses;
        result.solver_rounds += component_rounds_[c];
        const ComponentRange& range = components_[c];
        const std::span<const FlowIndex> flows(
            affected_flows_.data() + range.flow_begin,
            range.flow_end - range.flow_begin);
        const auto& key = component_keys_[c];
        // Two identical components in one event both missed (their probes
        // ran against the event-start state); insert only the first.
        if (solve_key_arena_.size() + key.size() + solve_rates_arena_.size() +
                    flows.size() <=
                options_.solve_cache_budget_words &&
            find_cached_rates(key, component_hash_[c]) == nullptr) {
          insert_solved_rates(key, component_hash_[c], flows);
        }
        break;
      }
      case ComponentCache::kUncacheable:
        result.solver_rounds += component_rounds_[c];
        break;
    }
  }
}

std::uint64_t FlowEngine::build_solve_key(
    std::span<const LinkId> links, std::span<const FlowIndex> flows,
    std::vector<std::uint64_t>& key) const {
  // Content blob in BFS-discovery order, deliberately NOT canonicalised:
  // with uniform weights a flow's rate is a pure function of (its extent,
  // the component's content multiset) — equal-extent flows are bit-exactly
  // interchangeable in the solver — so position i of the blob determines
  // position i's rate no matter how the component was enumerated. Sorting
  // would dedup permutations of one component into one entry, but costs an
  // O(n log n) sort per event that profiling showed dominates the hit path;
  // the steady regime re-enumerates components in an identical order anyway
  // (the whole engine is deterministic), so permuted duplicates are rare
  // and the size cap absorbs them.
  key.clear();
  key.reserve(1 + 3 * links.size() + flows.size());
  // FNV-1a picks the bucket; correctness rests on the full-content
  // comparison in find_cached_rates, never on the hash.
  std::uint64_t hash = 14695981039346656037ull;
  const auto push = [&key, &hash](std::uint64_t word) {
    key.push_back(word);
    hash ^= word;
    hash *= 1099511628211ull;
  };
  push((static_cast<std::uint64_t>(links.size()) << 32) | flows.size());
  for (const LinkId l : links) {
    push(l);
    push(std::bit_cast<std::uint64_t>(link_capacity_[l]));
    push(std::bit_cast<std::uint64_t>(link_weight_sum_[l]));
  }
  for (const FlowIndex f : flows) {
    push((static_cast<std::uint64_t>(path_offset_[f]) << 32) |
         path_length_[f]);
  }
  return hash;
}

const double* FlowEngine::find_cached_rates(std::span<const std::uint64_t> key,
                                            std::uint64_t hash) const {
  // Guaranteed miss on a cold cache: skip the bucket walk entirely.
  if (solve_cache_entries_.empty()) return nullptr;
  const auto it = solve_cache_map_.find(hash);
  if (it == solve_cache_map_.end()) return nullptr;
  for (const std::uint32_t index : it->second) {
    const SolveCacheEntry& entry = solve_cache_entries_[index];
    if (entry.key_words != key.size() ||
        !std::equal(key.begin(), key.end(),
                    solve_key_arena_.begin() +
                        static_cast<std::ptrdiff_t>(entry.key_offset))) {
      continue;
    }
    return solve_rates_arena_.data() + entry.rates_offset;
  }
  return nullptr;
}

void FlowEngine::insert_solved_rates(std::span<const std::uint64_t> key,
                                     std::uint64_t hash,
                                     std::span<const FlowIndex> flows) {
  SolveCacheEntry entry;
  entry.key_offset = solve_key_arena_.size();
  entry.key_words = static_cast<std::uint32_t>(key.size());
  entry.rates_offset = static_cast<std::uint32_t>(solve_rates_arena_.size());
  solve_key_arena_.insert(solve_key_arena_.end(), key.begin(), key.end());
  for (const FlowIndex f : flows) {
    solve_rates_arena_.push_back(rates_[f]);
  }
  solve_cache_map_[hash].push_back(
      static_cast<std::uint32_t>(solve_cache_entries_.size()));
  solve_cache_entries_.push_back(entry);
}

bool FlowEngine::try_cached_solve(SimResult& result,
                                  std::span<const LinkId> links,
                                  std::span<const FlowIndex> flows) {
  solve_insert_armed_ = false;
  // The key identifies flows by their shared (route-cache-owned) arena
  // extents; a free-listed extent's offset means nothing across events, so
  // any unshared path in the component forfeits memoization for this event.
  for (const FlowIndex f : flows) {
    if (!path_shared_[f]) return false;
  }

  // A key larger than the entire cache budget can never have been inserted
  // (insertion admits blobs only under the budget), so the probe is a
  // guaranteed miss: skip materialising the blob — at million-endpoint
  // scale a whole-set key runs to hundreds of MB — and record the miss the
  // built-and-compared path would have recorded. Insertion stays disarmed,
  // exactly as the arming check below would have decided.
  if (1 + 3 * links.size() + flows.size() >
      options_.solve_cache_budget_words) {
    ++result.solve_cache_misses;
    return false;
  }

  solve_key_hash_ = build_solve_key(links, flows, solve_key_);
  if (const double* memo = find_cached_rates(solve_key_, solve_key_hash_)) {
    if (options_.dispatch_strategy != DispatchStrategy::kIndexed &&
        flows.data() == active_flows_.data() &&
        flows.size() == active_flows_.size()) {
      // Whole-set hit feeding this event's fused sweep (whole-set events
      // always sweep under kEager/kAuto): the memo blob is already in slot
      // order, so the sweep streams it directly — skipping this O(active)
      // scatter AND its own rates_ gather. Bitwise equivalent: a flow whose
      // rate is unchanged already holds these exact bits in rates_ (the
      // lazy-advance invariant keeps rates_[f] == finish_rate between
      // solves), and the sweep writes back every entry that differs.
      whole_hit_slot_rates_ = memo;
    } else {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        rates_[flows[i]] = memo[i];
      }
    }
    ++result.solve_cache_hits;
    return true;
  }
  ++result.solve_cache_misses;
  solve_insert_armed_ = solve_key_arena_.size() + solve_key_.size() +
                            solve_rates_arena_.size() + flows.size() <=
                        options_.solve_cache_budget_words;
  return false;
}

void FlowEngine::solve_cache_insert(std::span<const FlowIndex> flows) {
  solve_insert_armed_ = false;
  insert_solved_rates(solve_key_, solve_key_hash_, flows);
}

void FlowEngine::cancel_descendants(FlowIndex f, SimResult& result) {
  cancel_stack_.assign(1, f);
  while (!cancel_stack_.empty()) {
    const FlowIndex parent = cancel_stack_.back();
    cancel_stack_.pop_back();
    for (const FlowIndex child : dag_scratch_->children(parent)) {
      if (state_[child] != FlowState::kPending) continue;
      state_[child] = FlowState::kCancelled;
      if (!program_->flow(child).is_sync) {
        ++result.cancelled_flows;
        result.undelivered_bytes += program_->flow(child).bytes;
      }
      if (!flow_finish_times_scratch_.empty()) {
        flow_finish_times_scratch_[child] =
            std::numeric_limits<double>::quiet_NaN();
      }
      cancel_stack_.push_back(child);
    }
  }
}

void FlowEngine::compact_link(LinkId l) {
  incidence_.compact(
      l, [this](FlowIndex f) { return state_[f] == FlowState::kActive; });
}

void FlowEngine::apply_due_fault_events(FaultDriver& driver, double now,
                                        SimResult& result) {
  // The same relative tolerance as release-time admission, so an event
  // scripted exactly at a completion instant applies in the same iteration
  // that lands there.
  fault_changed_scratch_.clear();
  const std::size_t applied =
      driver.apply_due(now * (1.0 + 1e-12), fault_changed_scratch_);
  if (applied == 0) return;
  result.fault_events_applied += applied;
  last_event_ = "fault";
  for (const auto& [link, factor] : fault_changed_scratch_) {
    if (link >= link_capacity_.size()) {
      throw std::out_of_range(
          "FlowEngine: fault driver reported a link outside this topology");
    }
    // Write capacities directly instead of set_capacity_factor: dropping
    // the solve cache on every timeline event would defeat it, and keys
    // embed capacity bits, so stale entries can never match — and a repair
    // restores the exact pre-fault bits, re-hitting the old entries.
    const double capacity = link_base_capacity_[link] * factor;
    if (capacity == link_capacity_[link]) continue;
    link_capacity_[link] = capacity;
    if (incremental_) mark_dirty(link);
  }
}

bool FlowEngine::queue_retry(FlowIndex f, double now, SimResult& result) {
  // The per-flow counter is a byte (see max_retries); the guard keeps the
  // increment below from ever wrapping.
  if (retry_count_[f] >= std::min<std::uint32_t>(options_.max_retries, 255)) {
    return false;
  }
  const double delay =
      options_.retry_backoff_seconds * std::ldexp(1.0, retry_count_[f]);
  ++retry_count_[f];
  ++result.flow_retries;
  state_[f] = FlowState::kPending;
  release_queue_.emplace_back(now + delay, f);
  std::push_heap(release_queue_.begin(), release_queue_.end(), release_after);
  return true;
}

void FlowEngine::recover_flow(FlowIndex f, double now, double remaining_now,
                              SimResult& result) {
  last_event_ = "recovery";
  switch (options_.recovery_policy) {
    case RecoveryPolicy::kStrand:
      strand_active(f, result);
      return;
    case RecoveryPolicy::kReroute: {
      detach_from_network(f);
      if (!activate(f, now, result)) {
        // No surviving path right now; the flow's progress cannot be parked
        // (reroute keeps no retry schedule), so it strands.
        strand(f, result);
        return;
      }
      // activate() seeded a fresh slot with the full payload and restarted
      // the pipeline fill; transferred bytes carry over, the fill (a new
      // path) does not.
      slots_[active_pos_[f]].remaining = remaining_now;
      for (const LinkId l : path_view(f)) {
        if (link_capacity_[l] <= 0.0) {
          // A fault-oblivious topology handed back the same dead route;
          // tearing it down and re-activating forever would hang the run.
          remove_active_slot(active_pos_[f]);  // activate() appended f above
          strand_active(f, result);
          return;
        }
      }
      ++result.recovered_flows;
      return;
    }
    case RecoveryPolicy::kRestartBackoff:
      detach_from_network(f);
      if (!queue_retry(f, now, result)) strand(f, result);
      return;
  }
}

// ---------------------------------------------------------------------------
// Dispatch kernel (DESIGN.md §12). One arithmetic, three access strategies:
// per-flow progress is rebased ("settled") only when a flow's rate changes,
// and between touches the flow's absolute predicted finish time — written
// once per rate change — is the single source of truth the sweep/heap
// strategies both read. That shared arithmetic is what makes every strategy
// and thread count bit-identical.

void FlowEngine::settle_slot(std::uint32_t s, double at) noexcept {
  SlotState& slot = slots_[s];
  const double elapsed = at - slot.settle_time;
  // Exact no-op at elapsed == 0 (both stored values are >= 0; rate * 0 is
  // 0), so fresh slots and already-settled flows lose nothing. This is also
  // why the -1 finish_rate sentinel is never multiplied.
  if (elapsed == 0.0) return;
  slot.latency_left = std::max(0.0, slot.latency_left - elapsed);
  slot.remaining =
      std::max(0.0, slot.remaining - slot_rate_[s] * elapsed);
  slot.settle_time = at;
}

double FlowEngine::settled_remaining(FlowIndex f, double at) const noexcept {
  const std::uint32_t s = active_pos_[f];
  const SlotState& slot = slots_[s];
  const double elapsed = at - slot.settle_time;
  if (elapsed == 0.0) return slot.remaining;
  return std::max(0.0, slot.remaining - slot_rate_[s] * elapsed);
}

double FlowEngine::settled_latency_left(FlowIndex f,
                                        double at) const noexcept {
  const SlotState& slot = slots_[active_pos_[f]];
  return std::max(0.0, slot.latency_left - (at - slot.settle_time));
}

void FlowEngine::remove_active_slot(std::uint32_t s) noexcept {
  const std::uint32_t last =
      static_cast<std::uint32_t>(active_flows_.size() - 1);
  if (s != last) {
    const FlowIndex moved = active_flows_[last];
    active_flows_[s] = moved;
    active_pos_[moved] = s;
    slots_[s] = slots_[last];
    slot_rate_[s] = slot_rate_[last];
    slot_finish_[s] = slot_finish_[last];
  }
  active_flows_.pop_back();
  slots_.pop_back();
  slot_rate_.pop_back();
  slot_finish_.pop_back();
}

void FlowEngine::advance_flows(std::span<const FlowIndex> flows, double now,
                               std::vector<FlowIndex>& zero_out,
                               std::vector<FlowIndex>* changed_out) {
  // Quantise BEFORE the zero-rate test below: the recovery path restarts
  // the event loop, and solved-but-skipped flows would otherwise keep raw
  // rates that only a full (non-incremental) re-solve would ever
  // re-quantise — the incremental path would then diverge from the naive
  // one on the next event (found by the chaos harness, see src/verify/).
  const double log_step = options_.rate_quantum_rel > 0.0
                              ? std::log1p(options_.rate_quantum_rel)
                              : 0.0;
  const auto advance_one = [this, now, log_step](
                               const FlowIndex f,
                               std::vector<FlowIndex>& zero,
                               std::vector<FlowIndex>* changed) {
    double r = rates_[f];
    if (log_step > 0.0 && r > 0.0) {
      r = std::exp(std::floor(std::log(r) / log_step) * log_step);
      rates_[f] = r;
    }
    const std::uint32_t s = active_pos_[f];
    // Unchanged rate (bitwise): the stored absolute finish time is still
    // exact — this is the lazy-advance invariant, nothing to rewrite.
    if (r == slot_rate_[s]) return;
    settle_slot(s, now);
    SlotState& slot = slots_[s];
    if (r <= 0.0 && slot.remaining > 0.0) {
      // A dead (capacity-0) link sits on the flow's path — it could never
      // finish as routed. Collected for the recovery policy.
      zero.push_back(f);
      return;
    }
    slot_rate_[s] = r;
    // Explicit zero-rate guard for the scan: remaining == 0 with rate 0 is
    // a pure pipeline-fill tail (a rerouted/faulted flow that already
    // delivered its bytes), and remaining / rate would be 0/0 = NaN. The
    // transfer term of such a flow is 0 — only the fill remains.
    const double transfer = slot.remaining > 0.0 ? slot.remaining / r : 0.0;
    slot_finish_[s] = now + std::max(slot.latency_left, transfer);
    if (changed != nullptr) changed->push_back(f);
  };

  const std::size_t n = flows.size();
  if (!parallel_active_ || n < 2 * kDispatchShardGrain) {
    for (const FlowIndex f : flows) advance_one(f, zero_out, changed_out);
    return;
  }
  // Sharded sweep: disjoint flow ranges (distinct flows own distinct slots,
  // so there are no write races), per-shard output lists concatenated in
  // shard order — which equals the serial enumeration order, so the result
  // is bit-identical at any thread count.
  const std::size_t nshards = std::min(
      solver_pool_->size(), (n + kDispatchShardGrain - 1) / kDispatchShardGrain);
  const std::size_t chunk = (n + nshards - 1) / nshards;
  if (dispatch_shards_.size() < nshards) dispatch_shards_.resize(nshards);
  solver_pool_->parallel_for(nshards, [&](std::size_t shard) {
    DispatchShard& out = dispatch_shards_[shard];
    out.zero.clear();
    out.changed.clear();
    const std::size_t begin = shard * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    for (std::size_t i = begin; i < end; ++i) {
      advance_one(flows[i], out.zero,
                  changed_out != nullptr ? &out.changed : nullptr);
    }
  });
  for (std::size_t shard = 0; shard < nshards; ++shard) {
    DispatchShard& out = dispatch_shards_[shard];
    zero_out.insert(zero_out.end(), out.zero.begin(), out.zero.end());
    if (changed_out != nullptr) {
      changed_out->insert(changed_out->end(), out.changed.begin(),
                          out.changed.end());
    }
  }
}

#if defined(NESTFLOW_SWEEP_AVX2)
namespace {

// Checked once at load: the binary is built without -mavx2, so the kernel
// below carries its own target attribute and must be gated at runtime.
const bool kSweepHaveAvx2 = __builtin_cpu_supports("avx2");

// Advances `s` past 4-slot blocks in which every lane keeps its solved rate
// (bitwise) and no lane's stored finish is at or below the candidate bound.
// Such a block is provably untouched by the scalar sweep: the unchanged-rate
// test skips every state write, and finish > bound >= fmin rules out both a
// candidate push and an fmin update — so skipping it wholesale is
// bit-identical. Returns the first index needing scalar handling (or `end`).
// NEQ_UQ mirrors the scalar !(r == slot_rate) — an unordered lane
// (impossible for engine rates, but kept exact anyway) counts as changed;
// LE_OQ mirrors finish <= bound (unordered compares false, like the scalar).
__attribute__((target("avx2"))) std::size_t sweep_skip_avx2(
    const double* rates, const double* slot_rate, const double* slot_finish,
    std::size_t s, std::size_t end, double bound) {
  const __m256d vbound = _mm256_set1_pd(bound);
  while (s + 4 <= end) {
    // Three independent sequential streams; the explicit distance-64 hints
    // keep all three ahead of the compares when the hardware prefetcher
    // has to re-lock onto the streams after each scalar interruption.
    __builtin_prefetch(rates + s + 64);
    __builtin_prefetch(slot_rate + s + 64);
    __builtin_prefetch(slot_finish + s + 64);
    const __m256d r = _mm256_loadu_pd(rates + s);
    const __m256d sr = _mm256_loadu_pd(slot_rate + s);
    const __m256d fin = _mm256_loadu_pd(slot_finish + s);
    const __m256d changed = _mm256_cmp_pd(r, sr, _CMP_NEQ_UQ);
    const __m256d cand = _mm256_cmp_pd(fin, vbound, _CMP_LE_OQ);
    if (_mm256_movemask_pd(_mm256_or_pd(changed, cand)) != 0) break;
    s += 4;
  }
  return s;
}

}  // namespace
#endif  // NESTFLOW_SWEEP_AVX2

double FlowEngine::advance_flows_whole(double now,
                                       std::vector<FlowIndex>& zero_out,
                                       const double* slot_rates) {
  // Same arithmetic as advance_flows, restricted to the case where the
  // solved span IS active_flows_: slot s holds solved flow s, so the
  // active_pos_ gather disappears and slots_/slot_finish_ stream
  // sequentially. The unchanged-rate test runs before any slot write, so
  // skipped flows are bitwise untouched either way; changed flows go
  // through the identical quantise/settle/refresh sequence. Quantisation
  // is applied unconditionally (as advance_flows does for every solved
  // flow — and every slot is solved here), never re-applied to already-
  // quantised skips: exp(floor(log r)) is not bitwise idempotent, so the
  // r == finish_rate pre-check in the log_step == 0 path relies on the
  // invariant that a live slot's rates_[f] only moves when solved.
  const double log_step = options_.rate_quantum_rel > 0.0
                              ? std::log1p(options_.rate_quantum_rel)
                              : 0.0;
  // Candidate bound: a slot whose finish is <= now + (fmin - now) * mult is
  // a possible completion this event (the complete phase's deadline is that
  // exact expression of the FINAL fmin, or smaller when an arrival/fault
  // caps dt, or fmin itself via the max floor). The running bound computed
  // from the running fmin only ever tightens, so every slot scanned before
  // the final fmin was known saw a LOOSER bound — the candidate list is
  // always a superset of the true harvest, never missing a completion.
  const double batch_mult = 1.0 + options_.completion_batch_rel;
  const std::size_t n = active_flows_.size();
  const auto sweep_range = [this, now, log_step, slot_rates, batch_mult](
                               std::size_t begin, std::size_t end,
                               std::vector<FlowIndex>& zero,
                               std::vector<std::uint32_t>& cand) {
    double fmin = std::numeric_limits<double>::infinity();
    double bound = std::numeric_limits<double>::infinity();
    const auto note_finish = [&fmin, &bound, &cand, now,
                              batch_mult](std::size_t s, double finish) {
      if (finish <= bound) {
        cand.push_back(static_cast<std::uint32_t>(s));
        if (finish < fmin) {
          fmin = finish;
          // max floor: the deadline is floored at fmin itself (the product
          // can round below it), so the bound must be too.
          bound = std::max(now + (fmin - now) * batch_mult, fmin);
        }
      }
    };
#if defined(NESTFLOW_SWEEP_AVX2)
    // Vector fast-skip for the dominant case (whole-set cache-hit blob, no
    // quantisation): hop over 4-slot blocks with no rate change and no
    // completion candidate in two packed compares, falling back to the
    // scalar body — in ascending slot order — for any flagged block.
    const bool vec_skip =
        kSweepHaveAvx2 && slot_rates != nullptr && log_step == 0.0;
#endif
    for (std::size_t s = begin; s < end; ++s) {
#if defined(NESTFLOW_SWEEP_AVX2)
      if (vec_skip) {
        s = sweep_skip_avx2(slot_rates, slot_rate_.data(), slot_finish_.data(),
                            s, end, bound);
        if (s >= end) break;
      }
#endif
      // slot_rates streams sequentially; the rates_[f] gather it replaces
      // is one DRAM miss per slot at million-flow scale. Writebacks then
      // only happen past the unchanged test: a skipped flow's rates_ entry
      // already holds exactly these bits (see try_cached_solve). The fast
      // path touches only slot_rates/slot_rate_/slot_finish_ — the settle
      // record (slots_) is never pulled in for unchanged flows.
      double r = slot_rates != nullptr ? slot_rates[s]
                                       : rates_[active_flows_[s]];
      if (log_step > 0.0 && r > 0.0) {
        r = std::exp(std::floor(std::log(r) / log_step) * log_step);
        if (slot_rates == nullptr) rates_[active_flows_[s]] = r;
      }
      if (r == slot_rate_[s]) {
        note_finish(s, slot_finish_[s]);
        continue;
      }
      if (slot_rates != nullptr) rates_[active_flows_[s]] = r;
      settle_slot(static_cast<std::uint32_t>(s), now);
      SlotState& slot = slots_[s];
      if (r <= 0.0 && slot.remaining > 0.0) {
        zero.push_back(active_flows_[s]);
        continue;
      }
      slot_rate_[s] = r;
      const double transfer = slot.remaining > 0.0 ? slot.remaining / r : 0.0;
      const double finish = now + std::max(slot.latency_left, transfer);
      slot_finish_[s] = finish;
      note_finish(s, finish);
    }
    return fmin;
  };

  cand_slots_.clear();
  if (!parallel_active_ || n < 2 * kDispatchShardGrain) {
    return sweep_range(0, n, zero_out, cand_slots_);
  }
  // Sharding mirrors advance_flows: disjoint slot ranges, zero lists
  // concatenated in shard order (== slot order == the solved span's serial
  // enumeration order), min reduced exactly (order-independent).
  const std::size_t nshards = std::min(
      solver_pool_->size(), (n + kDispatchShardGrain - 1) / kDispatchShardGrain);
  const std::size_t chunk = (n + nshards - 1) / nshards;
  if (dispatch_shards_.size() < nshards) dispatch_shards_.resize(nshards);
  solver_pool_->parallel_for(nshards, [&](std::size_t shard) {
    DispatchShard& out = dispatch_shards_[shard];
    out.zero.clear();
    out.cand.clear();
    const std::size_t begin = shard * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    out.fmin = sweep_range(begin, end, out.zero, out.cand);
  });
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t shard = 0; shard < nshards; ++shard) {
    DispatchShard& out = dispatch_shards_[shard];
    zero_out.insert(zero_out.end(), out.zero.begin(), out.zero.end());
    cand_slots_.insert(cand_slots_.end(), out.cand.begin(), out.cand.end());
    best = std::min(best, out.fmin);
  }
  return best;
}

double FlowEngine::min_slot_finish() {
  const std::size_t n = slot_finish_.size();
  if (!parallel_active_ || n < 2 * kDispatchShardGrain) {
    double best = std::numeric_limits<double>::infinity();
    for (const double finish : slot_finish_) best = std::min(best, finish);
    return best;
  }
  // The min of a set of doubles is order-independent (no rounding anywhere),
  // so the per-shard partial mins reduce to the exact serial answer.
  const std::size_t nshards = std::min(
      solver_pool_->size(), (n + kDispatchShardGrain - 1) / kDispatchShardGrain);
  const std::size_t chunk = (n + nshards - 1) / nshards;
  if (dispatch_shards_.size() < nshards) dispatch_shards_.resize(nshards);
  solver_pool_->parallel_for(nshards, [&](std::size_t shard) {
    const std::size_t begin = shard * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t s = begin; s < end; ++s) {
      best = std::min(best, slot_finish_[s]);
    }
    dispatch_shards_[shard].fmin = best;
  });
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t shard = 0; shard < nshards; ++shard) {
    best = std::min(best, dispatch_shards_[shard].fmin);
  }
  return best;
}

void FlowEngine::harvest_finished(double deadline) {
  const std::size_t n = slot_finish_.size();
  if (!parallel_active_ || n < 2 * kDispatchShardGrain) {
    for (std::size_t s = 0; s < n; ++s) {
      if (slot_finish_[s] <= deadline) {
        harvest_scratch_.push_back(active_flows_[s]);
      }
    }
    return;
  }
  const std::size_t nshards = std::min(
      solver_pool_->size(), (n + kDispatchShardGrain - 1) / kDispatchShardGrain);
  const std::size_t chunk = (n + nshards - 1) / nshards;
  if (dispatch_shards_.size() < nshards) dispatch_shards_.resize(nshards);
  solver_pool_->parallel_for(nshards, [&](std::size_t shard) {
    DispatchShard& out = dispatch_shards_[shard];
    out.harvest.clear();
    const std::size_t begin = shard * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    for (std::size_t s = begin; s < end; ++s) {
      if (slot_finish_[s] <= deadline) out.harvest.push_back(active_flows_[s]);
    }
  });
  for (std::size_t shard = 0; shard < nshards; ++shard) {
    const DispatchShard& out = dispatch_shards_[shard];
    harvest_scratch_.insert(harvest_scratch_.end(), out.harvest.begin(),
                            out.harvest.end());
  }
}

void FlowEngine::rebuild_finish_heap() {
  finish_heap_.clear();
  const std::size_t n = active_flows_.size();
  finish_heap_.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    finish_heap_.push_back(FinishEntry{slot_finish_[s], active_flows_[s]});
  }
  std::make_heap(finish_heap_.begin(), finish_heap_.end(), finish_after);
  finish_heap_stale_ = false;
}

SimResult FlowEngine::run(const TrafficProgram& program) {
  return run_impl(program, nullptr);
}

SimResult FlowEngine::run(const TrafficProgram& program, FaultDriver& faults) {
  return run_impl(program, &faults);
}

SimResult FlowEngine::run_impl(const TrafficProgram& program,
                               FaultDriver* driver) {
  program.validate(topology_.num_endpoints());
  const DependencyDag dag(program);
  program_ = &program;
  dag_scratch_ = &dag;

  const std::uint32_t n = program.num_flows();
  state_.assign(n, FlowState::kPending);
  pending_parents_ = dag.pending_parents();
  retry_count_.assign(n, 0);
  rates_.assign(n, 0.0);
  // active_pos_ entries are only read while their flow is active (activate
  // always writes first), so stale values from a previous run are fine —
  // resize instead of assign to skip an O(n) fill.
  active_pos_.resize(n);
  slots_.clear();
  slot_rate_.clear();
  slot_finish_.clear();
  finish_heap_.clear();
  finish_heap_stale_ = true;
  // Kept all-zero between events by the harvest extraction loop; only needs
  // zeroing when the flow count grows.
  finished_mask_.assign((n + 63) / 64, 0);
  path_offset_.assign(n, 0);
  path_length_.assign(n, 0);
  path_shared_.assign(n, 0);
  path_arena_.clear();
  free_paths_by_length_.clear();
  // route_cache_ / shared_arena_ are deliberately NOT cleared: native routes
  // on a static-route topology are pure functions of (src, dst), so repeated
  // programs on one engine (sweep and ablation drivers, repeated phases)
  // route straight from cache on every run after the first.
  incremental_ = options_.incremental_solver;
  solve_cache_active_ =
      options_.solve_cache && incremental_ && route_cache_active_;
  if (solve_cache_active_) {
    // Equal-weight flows are bit-exactly exchangeable inside a solver
    // freeze round (identical subtrahends commute in floating point);
    // weighted ones are not, and memoized rates could then differ from a
    // fresh solve. Keep the bit-identity contract by sitting out.
    for (FlowIndex f = 0; f < n; ++f) {
      if (program.flow(f).weight != 1.0) {
        solve_cache_active_ = false;
        break;
      }
    }
  }
  solve_insert_armed_ = false;
  whole_probe_misses_ = 0;
  walk_bail_streak_ = 0;
  walk_skips_left_ = 0;
  // whole_set_hint_ deliberately persists across runs: a steady-state
  // replay's first giant event then probes (and hits) immediately.
  if (route_cache_active_) {
    // Pre-size the route cache for the program's pair count so a cold run
    // never pays incremental rehashing of a million-entry table mid-loop.
    // An upper bound is fine (distinct pairs <= flows, insertion stops at
    // kMaxCachedRoutes) and reserve() is a no-op once the table is there.
    route_cache_.reserve(std::min<std::size_t>(n, kMaxCachedRoutes));
  }
  for (const LinkId l : dirty_links_) link_dirty_[l] = 0;
  dirty_links_.clear();
  flow_in_component_.assign(n, 0);
  active_flows_.clear();
  used_links_.clear();
  std::fill(link_bytes_.begin(), link_bytes_.end(), 0.0);
  // Link occupancy must be clean from the previous run.
  assert(std::all_of(link_active_count_.begin(), link_active_count_.end(),
                     [](std::uint32_t c) { return c == 0; }));
  num_active_links_ = 0;
  std::fill(link_weight_sum_.begin(), link_weight_sum_.end(), 0.0);
  incidence_.reset(link_capacity_.size());
  std::fill(link_in_used_.begin(), link_in_used_.end(), 0);
  solver_.resize(link_capacity_.size(), n);
  parallel_active_ = incremental_ && solver_pool_ != nullptr;
  if (parallel_active_) {
    for (auto& solver : worker_solvers_) {
      solver->resize(link_capacity_.size(), n);
    }
  }
  flow_finish_times_scratch_.clear();
  if (options_.record_flow_times) {
    flow_finish_times_scratch_.assign(n, 0.0);
  }

  SimResult result;
  result.num_flows = program.num_data_flows();

  std::vector<FlowIndex> ready = dag.roots();
  double now = 0.0;
  double weighted_active = 0.0;
  const EngineContext ctx{this};

  // Exact-fit slot reservation for the first activation wave (flows with no
  // dependencies and no future release time). On the big steady-state
  // recipes the first wave IS the peak concurrency, and nailing it up front
  // means the slot arrays never realloc mid-run — a doubling realloc at
  // peak would transiently hold old + new copies and poison peak RSS.
  {
    std::size_t immediate = 0;
    for (const FlowIndex f : ready) {
      const FlowSpec& spec = program.flow(f);
      if (!spec.is_sync && spec.release_seconds <= 0.0) ++immediate;
    }
    if (slots_.capacity() < immediate) {
      slots_.reserve(immediate);
      slot_rate_.reserve(immediate);
      slot_finish_.reserve(immediate);
    }
  }

  last_event_ = "start";
  // Consecutive events with frozen time and no state change; see the
  // kLivelock watchdog at the bottom of the loop.
  std::uint64_t zero_progress_events = 0;
  const bool auditing =
      auditor_ != nullptr && options_.audit_level != AuditLevel::kOff;
  const bool audit_events =
      auditing && options_.audit_level == AuditLevel::kPerEvent;
  if (auditing) auditor_->on_run_start(AuditView(*this, now, 0.0, 0));

  release_queue_.clear();
  // Timeline presence is frozen here: an exhausted driver (no events at
  // all) must leave every code path — including the legacy strand
  // enumeration order below — exactly as a driverless run, bit for bit.
  const bool have_timeline =
      driver != nullptr && std::isfinite(driver->next_event_time());
  // The pre-timeline engine strands zero-rate flows in solver-enumeration
  // order, which differs between the serial and partitioned component
  // collectors. That order is part of the bit-exact regression surface, so
  // it is kept whenever this run cannot observe recovery; timeline runs
  // (and non-default policies) instead sort by flow index, which is what
  // makes their results identical at every solver_threads count.
  const bool legacy_strand_order =
      options_.recovery_policy == RecoveryPolicy::kStrand && !have_timeline;

  for (;;) {
    // Bring the fault state up to `now` before activating or solving:
    // routing and rate allocation must agree on which links are up.
    if (have_timeline) apply_due_fault_events(*driver, now, result);

    // Activate everything runnable; sync flows complete instantly and may
    // cascade more activations within the same pass. Flows whose release
    // time lies in the future are parked in the release queue.
    std::chrono::steady_clock::time_point route_start;
    if (options_.time_solver) route_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const FlowIndex f = ready[i];
      if (state_[f] != FlowState::kPending) continue;  // cancelled meanwhile
      last_event_ = "activation";
      if (route_cache_active_) {
        // Route-table lookups probe DRAM in hash order; start the probe for
        // a flow a few activations ahead so the bucket line is resident by
        // the time activate() reads it. ready may grow mid-loop (sync
        // cascades), so the bound is re-read each iteration.
        constexpr std::size_t kRouteLookahead = 8;
        if (i + kRouteLookahead < ready.size()) {
          const FlowSpec& ahead =
              program.flows()[ready[i + kRouteLookahead]];
          if (!ahead.is_sync) route_cache_.prefetch(ahead.pair_key());
        }
      }
      const FlowSpec& spec = program.flows()[f];
      if (spec.release_seconds > now * (1.0 + 1e-12) &&
          spec.release_seconds > 0.0) {
        release_queue_.emplace_back(spec.release_seconds, f);
        std::push_heap(release_queue_.begin(), release_queue_.end(),
                       release_after);
        continue;
      }
      if (spec.is_sync) {
        state_[f] = FlowState::kDone;
        if (!flow_finish_times_scratch_.empty()) {
          flow_finish_times_scratch_[f] = now;
        }
        for (const FlowIndex child : dag.children(f)) {
          if (--pending_parents_[child] == 0 &&
              state_[child] == FlowState::kPending) {
            ready.push_back(child);
          }
        }
      } else if (!activate(f, now, result)) {
        // No surviving path (dead endpoint or partition). Under restart
        // backoff the partition may heal — a repair event can precede the
        // retry — so the flow waits out its backoff instead of stranding;
        // otherwise graceful degradation instead of a routing crash or an
        // engine hang.
        if (options_.recovery_policy != RecoveryPolicy::kRestartBackoff ||
            !queue_retry(f, now, result)) {
          strand(f, result);
        }
      }
    }
    ready.clear();
    if (options_.time_solver) {
      result.route_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        route_start)
              .count();
    }

    // The network is idle: jump straight to the next arrival.
    if (active_flows_.empty() && !release_queue_.empty()) {
      now = std::max(now, release_queue_.front().first);
    }
    // Re-admit everything due by `now`.
    while (!release_queue_.empty() &&
           release_queue_.front().first <= now * (1.0 + 1e-12)) {
      ready.push_back(release_queue_.front().second);
      std::pop_heap(release_queue_.begin(), release_queue_.end(),
                    release_after);
      release_queue_.pop_back();
    }
    if (!ready.empty()) continue;

    if (active_flows_.empty()) break;

    std::chrono::steady_clock::time_point solve_start;
    if (options_.time_solver) solve_start = std::chrono::steady_clock::now();
    // Flows whose rates this event's solve (re)wrote; the quantise and
    // zero-rate recovery passes below enumerate exactly this set.
    whole_hit_slot_rates_ = nullptr;
    std::span<const FlowIndex> solved = active_flows_;
    if (incremental_) {
      // One selection policy serves both the serial and the parallel
      // incremental path; only HOW the chosen set is solved differs
      // (inline, pool-sharded whole set, or per-component fan-out). Every
      // choice below reproduces the same rates bit-for-bit — solving
      // independent components together or apart is the same arithmetic
      // (the freeze sequence is a pure function of component content,
      // maxmin.hpp), and re-solving an untouched component regenerates its
      // frozen rates exactly — so the policy only routes work, and every
      // decision is a pure function of engine state (never of thread
      // count or scheduling), keeping parallel counters deterministic.
      //
      // Threshold: most of the live fabric dirty (giant completion
      // batches: the mapreduce shuffle dirties nearly every link every
      // event) means the component BFS would walk the whole incidence only
      // to rediscover "everything" — solve the whole active set directly.
      bool whole = 2 * dirty_links_.size() >= num_active_links_;
      bool cache_hit = false;
      bool cache_probed = false;  // try_cached_solve ran on the whole set
      if (!whole && solve_cache_active_ && whole_set_hint_ &&
          !solve_cache_entries_.empty()) {
        // Probe-first: recent events solved the whole active set, so its
        // canonical key likely repeats (phase-structured workloads replay
        // bit-identical allocation problems). Looking it up costs one key
        // build; a hit skips BOTH the component BFS and the solve. Misses
        // are tolerated once (the whole-set solve they promote re-earns
        // the hint via the cache insert); twice in a row drops the hint
        // and returns to BFS-decided routing.
        prune_used_links();
        cache_hit = try_cached_solve(result, used_links_, active_flows_);
        cache_probed = true;
        if (cache_hit) {
          whole = true;
          whole_probe_misses_ = 0;
        } else if (++whole_probe_misses_ <= 1) {
          whole = true;
        } else {
          whole_set_hint_ = false;
          solve_insert_armed_ = false;  // key is whole-set; form undecided
          cache_probed = false;
        }
      }
      if (!whole && !solve_cache_active_ && whole_set_hint_ &&
          walk_skips_left_ > 0) {
        // Walk skip: the last kWalkBailStreak or more walks all bailed, so
        // this one is predicted to bail too — go straight to the whole-set
        // solve it would have promoted to.
        --walk_skips_left_;
        whole = true;
      }
      if (!whole) {
        // Re-solve only the connected components touched by an occupancy
        // change; untouched components keep their frozen rates (max-min
        // independence — see DESIGN.md "Performance model"). The walk
        // bails once it has pulled in over half the active flows; a
        // whole-set solve is then cheaper and just as exact.
        whole = parallel_active_ ? collect_dirty_components_partitioned()
                                 : collect_dirty_components();
        if (whole) {
          ++result.component_walk_bails;
          // A bail streak backs off exponentially: 1, 2, 4, ... skipped
          // events between probe walks; a walk that completes resets it.
          if (!solve_cache_active_ &&
              ++walk_bail_streak_ >= kWalkBailStreak) {
            whole_set_hint_ = true;
            walk_skips_left_ = std::min<std::uint32_t>(
                kWalkSkipCap,
                1u << std::min<std::uint32_t>(
                    walk_bail_streak_ - kWalkBailStreak, 31));
          }
        } else if (!solve_cache_active_) {
          walk_bail_streak_ = 0;
          whole_set_hint_ = false;
        }
      }
      if (whole) {
        ++result.whole_set_solves;
        for (const LinkId l : dirty_links_) link_dirty_[l] = 0;
        dirty_links_.clear();
        prune_used_links();
        if (solve_cache_active_) {
          whole_set_hint_ = true;
          if (!cache_probed) whole_probe_misses_ = 0;
        }
        if (!cache_hit && !active_flows_.empty()) {
          if (solve_cache_active_ && !cache_probed) {
            cache_hit = try_cached_solve(result, used_links_, active_flows_);
          }
          if (!cache_hit) {
            result.solver_rounds += solver_.solve(
                ctx, used_links_, link_weight_sum_, active_flows_, rates_,
                parallel_active_ ? solver_pool_.get() : nullptr);
            // Memoize BEFORE quantisation: the quantiser below is a pure
            // per-flow function, so replaying raw rates through it on a
            // future hit lands on identical quantised values.
            if (solve_insert_armed_) solve_cache_insert(active_flows_);
          }
        }
        solved = active_flows_;
      } else if (parallel_active_) {
        // Per-component ranges solved across the engine-owned pool. Cache
        // inserts happen inside the commit phase, still BEFORE quantisation.
        if (!components_.empty()) parallel_solve(result);
        solved = affected_flows_;
      } else {
        if (!affected_flows_.empty() &&
            (!solve_cache_active_ ||
             !try_cached_solve(result, affected_links_, affected_flows_))) {
          result.solver_rounds += solver_.solve(ctx, affected_links_,
                                                link_weight_sum_,
                                                affected_flows_, rates_);
          if (solve_insert_armed_) solve_cache_insert(affected_flows_);
        }
        solved = affected_flows_;
      }
    } else {
      // Prune stale used-link entries so the solver only seeds live links.
      prune_used_links();

      result.solver_rounds += solver_.solve(ctx, used_links_,
                                            link_weight_sum_, active_flows_,
                                            rates_);
      ++result.whole_set_solves;
    }
    if (options_.time_solver) {
      result.solve_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        solve_start)
              .count();
    }
    // Everything from here to the end of the iteration (rate quantisation,
    // lazy advance, zero-rate recovery, time advance, completion harvest)
    // is "event dispatch" in the per-phase breakdown; auditor callbacks are
    // timed separately, and the advance/select/complete sub-timers carve up
    // the dispatch total (schema v6).
    std::chrono::steady_clock::time_point dispatch_start;
    const auto take_dispatch = [&result, &dispatch_start, this] {
      if (options_.time_solver) {
        const auto now_tp = std::chrono::steady_clock::now();
        result.dispatch_seconds +=
            std::chrono::duration<double>(now_tp - dispatch_start).count();
      }
    };
    if (options_.time_solver) {
      dispatch_start = std::chrono::steady_clock::now();
    }
    std::chrono::steady_clock::time_point phase_start = dispatch_start;
    const auto lap = [&result, &phase_start, this](double SimResult::*field) {
      if (options_.time_solver) {
        const auto now_tp = std::chrono::steady_clock::now();
        result.*field +=
            std::chrono::duration<double>(now_tp - phase_start).count();
        phase_start = now_tp;
      }
    };

    // --- Advance: settle rate-changed flows, refresh finish times --------
    // Only freshly solved flows can have changed rate; untouched components
    // keep both their (positive) rates and their quantised values, exactly
    // as a full solve-and-requantise would recompute them. The strategy
    // choice is a pure function of engine state (never of timing or thread
    // count): kAuto sweeps when this event re-solved at least half the
    // active set — the heap would be rebuilt wholesale anyway — and
    // indexes otherwise. Any sweep event leaves the heap stale; the next
    // indexed event rebuilds it.
    const bool sweep_event =
        options_.dispatch_strategy == DispatchStrategy::kEager ||
        (options_.dispatch_strategy == DispatchStrategy::kAuto &&
         2 * solved.size() >= active_flows_.size());
    if (sweep_event) finish_heap_stale_ = true;
    changed_scratch_.clear();
    zero_rate_scratch_.clear();
    // Whole-set events (the span aliases active_flows_ itself — cache hits,
    // threshold and bailed solves) take the fused slot-order sweep, which
    // also yields the select phase's min for free. Component sweeps keep
    // the span path + separate min scan.
    const bool whole_sweep = sweep_event &&
                             solved.data() == active_flows_.data() &&
                             solved.size() == active_flows_.size();
    double fused_fmin = std::numeric_limits<double>::infinity();
    if (whole_sweep) {
      fused_fmin =
          advance_flows_whole(now, zero_rate_scratch_, whole_hit_slot_rates_);
    } else {
      advance_flows(solved, now, zero_rate_scratch_,
                    sweep_event ? nullptr : &changed_scratch_);
    }
    if (!zero_rate_scratch_.empty()) {
      // A rate of 0 with bytes left means a dead (capacity-0) link sits on
      // the flow's path — it could never finish as routed. Hand such flows
      // to the recovery policy (strand / reroute / restart-backoff) and
      // re-solve. Every recovery outcome leaves the active list (strand,
      // requeue) or re-enters it with a fresh slot (reroute), so slots are
      // freed first; the settled residual rides along because the slot that
      // held it is gone by the time the policy runs.
      if (!legacy_strand_order) {
        std::sort(zero_rate_scratch_.begin(), zero_rate_scratch_.end());
      }
      for (const FlowIndex f : zero_rate_scratch_) {
        const std::uint32_t s = active_pos_[f];
        const double left = slots_[s].remaining;
        remove_active_slot(s);
        recover_flow(f, now, left, result);
      }
      // Flows whose finish changed this event were never pushed onto the
      // heap (the push below is skipped by the continue), so it cannot be
      // trusted for the next indexed event.
      finish_heap_stale_ = true;
      lap(&SimResult::advance_seconds);
      take_dispatch();
      continue;
    }
    lap(&SimResult::advance_seconds);

    // --- Select: earliest predicted finish, then arrival/fault caps ------
    double fmin;
    if (sweep_event) {
      fmin = whole_sweep ? fused_fmin : min_slot_finish();
    } else {
      if (finish_heap_stale_ ||
          finish_heap_.size() > 4 * active_flows_.size() + 64) {
        // Stale after a sweep/recovery, or bloated with lazy-deleted
        // entries: rebuild from the live slots (which also covers every
        // flow changed this event).
        rebuild_finish_heap();
      } else {
        for (const FlowIndex f : changed_scratch_) {
          finish_heap_.push_back(
              FinishEntry{slot_finish_[active_pos_[f]], f});
          std::push_heap(finish_heap_.begin(), finish_heap_.end(),
                         finish_after);
        }
      }
      // Pop to the first live entry: one whose flow is still active and
      // whose finish bits match the flow's current prediction (lazy
      // deletion discards the rest). The invariant that every active flow
      // has a live entry makes this the exact min over the active set —
      // the same double the sweep would find.
      fmin = std::numeric_limits<double>::infinity();
      while (!finish_heap_.empty()) {
        const FinishEntry top = finish_heap_.front();
        if (state_[top.flow] == FlowState::kActive &&
            slot_finish_[active_pos_[top.flow]] == top.finish) {
          fmin = top.finish;
          break;
        }
        std::pop_heap(finish_heap_.begin(), finish_heap_.end(), finish_after);
        finish_heap_.pop_back();
      }
      if (!(fmin < std::numeric_limits<double>::infinity())) {
        // Unreachable by the invariant above; a rebuild restores it cheaply
        // rather than letting a latent bookkeeping bug stall the horizon.
        rebuild_finish_heap();
        if (!finish_heap_.empty()) fmin = finish_heap_.front().finish;
      }
    }
    // dt is the gap to the earliest finish unless an arrival or fault event
    // lands first: both change the rate allocation, so time never steps
    // past them. Events due at `now` were applied at the top of the
    // iteration, so the next fault is strictly later and dt stays >= 0.
    const double flow_dt = fmin - now;
    double dt = flow_dt;
    if (!release_queue_.empty()) {
      dt = std::min(dt, std::max(0.0, release_queue_.front().first - now));
    }
    if (have_timeline) {
      const double next_fault = driver->next_event_time();
      if (std::isfinite(next_fault)) {
        dt = std::min(dt, std::max(0.0, next_fault - now));
      }
    }
    if (!std::isfinite(dt) || dt < 0.0) {
      throw EngineError(EngineError::Kind::kNonFiniteHorizon,
                        loop_snapshot(result.events, now));
    }

    ++result.events;
    if (options_.max_events != 0 && result.events > options_.max_events) {
      throw EngineError(EngineError::Kind::kMaxEventsExceeded,
                        loop_snapshot(result.events, now));
    }
    lap(&SimResult::select_seconds);

    if (audit_events) {
      take_dispatch();
      std::chrono::steady_clock::time_point audit_start;
      if (options_.time_solver) {
        audit_start = std::chrono::steady_clock::now();
      }
      auditor_->on_event(AuditView(*this, now, dt, result.events));
      if (options_.time_solver) {
        dispatch_start = std::chrono::steady_clock::now();
        phase_start = dispatch_start;
        result.audit_seconds +=
            std::chrono::duration<double>(dispatch_start - audit_start)
                .count();
      }
    }

    // --- Complete: harvest everything inside the batching window ---------
    // The deadline is absolute: old now + dt*(1 + batch_rel). When dt is
    // flow-defined (not capped by an arrival/fault), it is additionally
    // floored at fmin itself, because now + (fmin - now) can round BELOW
    // fmin — the defining flow must always pass its own completion test.
    // Survivors provably keep finish > deadline >= the new now (the
    // deadline product and sum are FP-monotone), so the next event's dt
    // stays non-negative.
    double deadline = now + dt * (1.0 + options_.completion_batch_rel);
    if (dt == flow_dt) deadline = std::max(deadline, fmin);
    now += dt;
    weighted_active += static_cast<double>(active_flows_.size()) * dt;
    result.peak_active_flows = std::max(
        result.peak_active_flows,
        static_cast<std::uint32_t>(active_flows_.size()));

    const std::size_t active_before = active_flows_.size();
    harvest_scratch_.clear();
    if (whole_sweep) {
      // The fused sweep already collected every possible completion (a
      // superset — see advance_flows_whole); filter it against the actual
      // deadline instead of re-scanning a million slot finishes. Candidate
      // order is slot order, exactly what harvest_finished would produce.
      for (const std::uint32_t s : cand_slots_) {
        if (slot_finish_[s] <= deadline) {
          harvest_scratch_.push_back(active_flows_[s]);
        }
      }
    } else if (sweep_event) {
      harvest_finished(deadline);
    } else {
      // Drain the heap up to the deadline; live entries are this event's
      // completions, lazy-deleted ones just leave. Every harvested flow's
      // entries are at the front by the heap property, so nothing live can
      // be missed.
      while (!finish_heap_.empty() &&
             finish_heap_.front().finish <= deadline) {
        const FinishEntry top = finish_heap_.front();
        std::pop_heap(finish_heap_.begin(), finish_heap_.end(), finish_after);
        finish_heap_.pop_back();
        if (state_[top.flow] == FlowState::kActive &&
            slot_finish_[active_pos_[top.flow]] == top.finish) {
          harvest_scratch_.push_back(top.flow);
        }
      }
    }
    // Process in ascending flow order — the strategy- and thread-count-
    // independent order (the sweep collects in slot order, the heap in
    // finish order; both reduce to the same sequence). Ordering goes
    // through the flow bitmap instead of a sort, which also collapses
    // duplicate live heap entries (a rate that changed and changed back
    // lands the same (finish, flow) twice).
    if (harvest_scratch_.size() > 1) {
      std::size_t lo = finished_mask_.size();
      std::size_t hi = 0;
      for (const FlowIndex f : harvest_scratch_) {
        const std::size_t w = f >> 6;
        finished_mask_[w] |= 1ull << (f & 63u);
        lo = std::min(lo, w);
        hi = std::max(hi, w);
      }
      harvest_scratch_.clear();
      for (std::size_t w = lo; w <= hi; ++w) {
        std::uint64_t bits = finished_mask_[w];
        if (bits == 0) continue;
        finished_mask_[w] = 0;
        const FlowIndex base = static_cast<FlowIndex>(w << 6);
        do {
          harvest_scratch_.push_back(
              base + static_cast<FlowIndex>(std::countr_zero(bits)));
          bits &= bits - 1;
        } while (bits != 0);
      }
    }
    const std::size_t batch = harvest_scratch_.size();
    const FlowSpec* const specs = program.flows().data();
    for (std::size_t i = 0; i < batch; ++i) {
      // Two-stage lookahead: the far stage pulls the flow-indexed records
      // in; the near stage reads them (now resident) to start the truly
      // random loads — the flow's slot (remove_active_slot's swap target)
      // and its path extent — early enough to hide DRAM latency under a
      // giant batch (the mapreduce shuffle completes ~30k flows per event).
      constexpr std::size_t kFar = 24;
      constexpr std::size_t kNear = 8;
      if (i + kFar < batch) {
        const FlowIndex pf = harvest_scratch_[i + kFar];
        __builtin_prefetch(&state_[pf]);
        __builtin_prefetch(&active_pos_[pf]);
        __builtin_prefetch(&path_offset_[pf]);
        __builtin_prefetch(&path_length_[pf]);
        __builtin_prefetch(&path_shared_[pf]);
        __builtin_prefetch(specs + pf);
        dag.prefetch_children(pf);
      }
      if (i + kNear < batch) {
        const FlowIndex pf = harvest_scratch_[i + kNear];
        if (state_[pf] == FlowState::kActive) {
          const std::uint32_t ps = active_pos_[pf];
          __builtin_prefetch(&slots_[ps], 1);
          __builtin_prefetch(&slot_rate_[ps], 1);
          __builtin_prefetch(&slot_finish_[ps], 1);
          __builtin_prefetch(&active_flows_[ps], 1);
          __builtin_prefetch((path_shared_[pf] ? shared_arena_.data()
                                               : path_arena_.data()) +
                             path_offset_[pf]);
        }
        // The removal that processes pf will move the then-tail flow into
        // pf's slot and rewrite that flow's active_pos_ entry — a random
        // store. The tail is consumed in order, so the flow kNear removals
        // from the back is (approximately, completions can skip) the one
        // that removal will move; start its position line now.
        if (active_flows_.size() > kNear) {
          __builtin_prefetch(
              &active_pos_[active_flows_[active_flows_.size() - 1 - kNear]],
              1);
        }
      }
      // Third stage: the near stage made the path extent resident, so the
      // link ids themselves are readable — start the per-link state loads
      // complete() will hit. A wash at figure scale (the link arrays live
      // in cache), but at 2^20 endpoints they are tens of MB each and
      // every first touch is a DRAM miss.
      constexpr std::size_t kLink = 3;
      if (i + kLink < batch) {
        const FlowIndex pf = harvest_scratch_[i + kLink];
        if (state_[pf] == FlowState::kActive) {
          for (const LinkId l : path_view(pf)) {
            __builtin_prefetch(&link_weight_sum_[l], 1);
            __builtin_prefetch(&link_active_count_[l], 1);
            __builtin_prefetch(&link_bytes_[l], 1);
            incidence_.prefetch(l);
          }
        }
      }
      const FlowIndex f = harvest_scratch_[i];
      if (state_[f] != FlowState::kActive) continue;
      remove_active_slot(active_pos_[f]);
      complete(f, now, ready);
    }

    // Watchdog: an event that advanced neither simulated time nor any flow's
    // lifecycle is only legal as a transient (e.g. a zero-dt arrival step).
    // A long unbroken run of them means the loop will never drain.
    if (dt > 0.0 || !ready.empty() ||
        active_flows_.size() != active_before) {
      zero_progress_events = 0;
    } else if (++zero_progress_events > kMaxZeroProgressEvents) {
      throw EngineError(EngineError::Kind::kLivelock,
                        loop_snapshot(result.events, now));
    }
    lap(&SimResult::complete_seconds);
    take_dispatch();
  }

  for (FlowIndex f = 0; f < n; ++f) {
    if (state_[f] != FlowState::kDone &&
        state_[f] != FlowState::kCancelled) {
      throw EngineError(EngineError::Kind::kFlowNeverCompleted,
                        loop_snapshot(result.events, now));
    }
  }

  result.makespan = now;
  result.total_bytes = program.total_bytes();
  result.avg_active_flows = now > 0.0 ? weighted_active / now : 0.0;

  const Graph& graph = topology_.graph();
  for (LinkId l = 0; l < graph.num_links(); ++l) {
    const auto cls = static_cast<std::size_t>(graph.link(l).link_class);
    result.bytes_by_class[cls] += link_bytes_[l];
    if (now > 0.0 && link_capacity_[l] > 0.0) {
      result.max_link_utilization =
          std::max(result.max_link_utilization,
                   link_bytes_[l] / (link_capacity_[l] * now));
    }
  }
  if (options_.record_flow_times) {
    result.flow_finish_times = std::move(flow_finish_times_scratch_);
    flow_finish_times_scratch_.clear();
  }

  // program_ is still set here: the end-of-run view may read flow specs.
  if (auditing) {
    auditor_->on_run_end(AuditView(*this, now, 0.0, result.events), result);
  }

  program_ = nullptr;
  dag_scratch_ = nullptr;
  return result;
}

}  // namespace nestflow
