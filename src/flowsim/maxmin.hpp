// Max-min fair rate allocation (progressive filling / water-filling).
//
// Given a set of active flows, each pinned to a fixed path of capacitated
// links, the max-min fair allocation repeatedly finds the most contended
// link (smallest capacity-per-flow share), freezes every flow crossing it
// at that share, removes the frozen bandwidth everywhere, and continues
// until all flows are frozen. This is the bandwidth model of flow-level
// simulators such as INRFlow: instantaneous fair sharing with no transport
// dynamics.
//
// Key algorithmic fact exploited here: during progressive filling a link's
// fair share (remaining capacity / unfrozen flow count) is monotonically
// NON-DECREASING — freezing a flow at the global minimum share s removes s
// capacity and one flow from each of its links, and (c - s)/(n - 1) >= c/n
// whenever s <= c/n. Each round therefore only needs the minimum FRESH
// (share, link-id) pair over live links plus every link whose fresh share
// ties it bitwise; the batch freezes in ascending link-id order and frozen
// bandwidth is subtracted through per-link deferred-delta accumulators
// (one accumulated subtraction per surviving link per round). The freeze
// sequence is a strict (share, id) order — a pure function of component
// content — which is what lets the incremental engine solve one connected
// component in isolation and get bit-identical rates to a whole-network
// solve (see engine.cpp).
//
// Two interchangeable kernels identify each round's batch (SolverStrategy):
//
//   kHeap — lazy-revalidation min-heap keyed by stale lower-bound shares
//   (shares only grow, so any previously computed share lower-bounds the
//   fresh one): pop a link, recompute its fresh share, freeze if it is
//   <= the next key (which lower-bounds every other fresh share) else
//   re-push. Ties are harvested by draining keys <= the leader's share:
//   every tied link's keys are <= its fresh share == the leader's share,
//   so the drain pops each at least once; non-tied links re-enter with
//   their fresh (> leader) key. O(P + U log U) heap traffic. This is the
//   PR-6 algorithm, operation for operation, and the reference yardstick.
//
//   kScan — struct-of-arrays saturation scan: residuals and unfrozen
//   weight sums live in two contiguous slot arrays (compacted over the
//   live links of this solve, not indexed by global link id), and each
//   round sweeps them once computing every live fresh share (one division,
//   see the residual-clamp invariant below), takes the minimum, then
//   harvests bitwise ties in a second sweep that recomputes the same
//   quotients. Dead slots (weight drained below epsilon) are compacted out
//   in place during the sweep. O(U) per round with streaming access — far
//   cheaper than heap churn when rounds are few and batches are huge
//   (symmetric workloads: the mapreduce shuffle, nearest-neighbour
//   exchanges at scale), far worse when an adversarial instance needs
//   O(U) singleton rounds.
//
//   kAuto (default) — near-set scan. A refill is one scan round that also
//   picks a threshold T near the K-th smallest fresh share (K = a fixed
//   fraction of the live slots, with a floor; estimated from a strided
//   sample) and lists every other slot with share <= T as "near". Later
//   rounds sweep only the near list, dropping dead slots and slots whose
//   share has passed T, and harvest ties exactly as the scan does. A far
//   slot is re-tested with the same division whenever a round's deltas
//   touch it, and rejoins the list if its share is now <= T — so every
//   live slot off the list has a fresh share > T at all times, without
//   relying on "shares only grow" (which FP rounding can break by an
//   ulp, see heap_round). Every share kept on the list is <= T, so the
//   list's minimum is the global minimum and every slot tied with it is
//   on the list. The round refills once the list is empty. Every refill
//   is a full scan round, so it returns a batch or finds no live slot:
//   the loop ends. O(U) per refill plus O(near) per round.
//
// All kernels produce the identical (share, id) minimum each round — the
// heap's freeze certificate selects exactly the lexicographic minimum
// fresh pair, the scans compute it directly, and every tie harvest
// collects exactly the set of live links whose fresh share equals it — so
// rates, rounds, and every downstream bit are identical regardless of
// strategy. tests/test_maxmin_properties.cpp pins this (including against
// a verbatim copy of the PR-6 solver), and the chaos harness samples the
// strategy knob across its differential matrix.
//
// Residual-clamp invariant: the PR-6 solver stored each link's raw
// residual and computed shares as max(residual, capacity*1e-12)/weight —
// the floor keeps FP drift from stalling the event loop on a dust link.
// This kernel instead stores the CLAMPED residual (init: the capacity
// itself, trivially >= its floor) and re-clamps at delta application:
// residual = max(residual - delta, capacity*1e-12). Because deltas are
// non-negative, max(max(r, c) - d, c) == max(r - d, c) holds bit-exactly
// (when r >= c the subtraction is the identical FP op; when r < c both
// sides pin to c, since subtracting d >= 0 cannot raise either operand
// above c), so every share equals PR-6's max(r, c)/w bitwise while the
// hot sweep pays one load and one division per slot — no floor array, no
// max in the inner loop.
//
// Freezing is two-pass per round: pass 1 walks the sorted batch freezing
// flows (marking them "new this round"); pass 2 re-walks the identical
// batch/incidence order, demoting the marks and accumulating path deltas.
// Splitting the passes lets the final round of a solve skip delta
// accumulation entirely (no unfrozen flow remains, so no future round
// reads link state), and an exact first-round
// broadcast handles the fully-symmetric case: when round one's batch is
// every live slot and no link weight sits in the epsilon dust zone, every
// active flow freezes at the same share, so rates are assigned by a
// single linear pass over the flow array with no incidence walk at all.
// Neither shortcut performs or skips any floating-point operation that a
// later round could observe, so both are bit-exact.
//
// Sharded whole-set solves: solve() optionally takes a ThreadPool. The
// pool accelerates only order-independent phases — kScan's per-shard
// minimum scans (combined by an exact serial min over shard results),
// per-shard tie harvests (concatenated, then sorted as always), and
// disjoint broadcast rate writes (every strategy) — while freezing and
// delta accumulation stay serial in the identical order. Results are
// therefore bit-identical at any shard/thread count, the same two-phase
// commit discipline as the engine's parallel component path (DESIGN.md
// §7).
//
// The solver is a template over a context type so the one algorithm serves
// both the event engine (structure-of-arrays, incremental link occupancy)
// and a simple reference entry point used by tests:
//
//   struct Ctx {
//     double capacity(LinkId) const;
//     std::span<const FlowIndex> link_flows(LinkId) const;  // may contain
//                                                           // stale entries
//     bool flow_active(FlowIndex) const;
//     std::span<const LinkId> flow_path(FlowIndex) const;   // non-empty
//     double flow_weight(FlowIndex) const;  // > 0; 1.0 = plain fairness
//   };
//
// Weighted max-min: on each bottleneck the remaining capacity is split in
// proportion to weights (rate_f = weight_f * share, share = cap / sum of
// weights). With all weights 1 this is classic max-min; weights model the
// paper's future-work "bandwidth scheduling to give priority to critical
// flows". The monotonicity argument survives weighting: freezing at the
// global minimum share removes weight_f * share* <= cap_l * w_f / W_l from
// link l, so (cap - w*share*)/(W - w) >= cap/W.
//
// Concurrency contract: a solver instance owns mutable scratch (slot
// arrays, frozen flags, heap) and must not be shared between threads, but
// DISTINCT instances may solve DISTINCT components concurrently against
// one read-only context — solve() only reads the context and only writes
// rates[f] for flows of its own component, and the freeze sequence is a
// pure function of component content, never of which instance runs it or
// when. The engine's parallel path keeps one solver per pool worker on
// exactly this contract (see DESIGN.md §7); scratch carries no state
// between solves, so a worker solver and the engine's serial solver
// produce bit-identical rates for the same input. All scratch lives in
// one arena-backed allocation per instance, carved once per (links,
// flows) shape and reused across every solve of a run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "flowsim/flow.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"

namespace nestflow {

/// How the solver locates each round's minimum-share batch. Every strategy
/// produces bit-identical rates and round counts (see the header comment);
/// the knob exists for differential testing and as an escape hatch.
enum class SolverStrategy : std::uint8_t {
  kAuto,  ///< near-set scan: full sweeps only to refill (default)
  kHeap,  ///< lazy-revalidation heap: the PR-6 reference kernel
  kScan,  ///< SoA saturation scan every round, no fallback
};

template <typename Ctx>
class FairShareSolver {
 public:
  void set_strategy(SolverStrategy strategy) noexcept {
    strategy_ = strategy;
  }
  [[nodiscard]] SolverStrategy strategy() const noexcept { return strategy_; }
  /// kAuto near-list refills performed by the last solve (0 otherwise).
  [[nodiscard]] std::uint32_t near_refills() const noexcept {
    return near_refills_;
  }

  /// Scratch arrays are carved from one arena block on first use (or when
  /// the shape grows) and reused across solves — the steady path performs
  /// no allocation.
  void resize(std::size_t num_links, std::size_t num_flows) {
    if (num_links == num_links_ && num_flows == num_flows_) return;
    num_links_ = num_links;
    num_flows_ = num_flows;
    std::size_t bytes = 0;
    bytes += ScratchArena::bytes_for<LinkId>(num_links);         // slot_link_
    bytes += ScratchArena::bytes_for<double>(num_links) * 2;     // SoA slots
    bytes += ScratchArena::bytes_for<std::uint32_t>(num_links);  // link_slot_
    bytes += ScratchArena::bytes_for<double>(2 * num_links);     // delta_
    bytes += ScratchArena::bytes_for<std::uint8_t>(num_links);   // in_batch_
    bytes += ScratchArena::bytes_for<std::uint8_t>(num_links);   // slot_near_
    bytes += ScratchArena::bytes_for<std::uint8_t>(num_flows);   // frozen_
    arena_.reset(bytes);
    slot_link_ = arena_.carve<LinkId>(num_links);
    slot_residual_ = arena_.carve<double>(num_links);
    slot_weight_ = arena_.carve<double>(num_links);
    link_slot_ = arena_.carve<std::uint32_t>(num_links);
    delta_ = arena_.carve<double>(2 * num_links);
    in_batch_ = arena_.carve<std::uint8_t>(num_links);
    slot_near_ = arena_.carve<std::uint8_t>(num_links);
    frozen_ = arena_.carve<std::uint8_t>(num_flows);
    // delta_ and in_batch_ are held at zero BETWEEN rounds by the round
    // epilogue; frozen_ is cleared per solve for the active flows only.
    // Zero all three once so the invariant starts true.
    std::memset(delta_.data(), 0, delta_.size_bytes());
    std::memset(in_batch_.data(), 0, in_batch_.size_bytes());
    std::memset(frozen_.data(), 0, frozen_.size_bytes());
  }

  /// Computes rates for every flow in `active_flows`. `used_links` must
  /// cover every link on an active path; stale entries (weight 0) are
  /// skipped. `link_weight_sum[l]` is the total weight of active flows
  /// whose path crosses l. Rates are written into `rates` (indexed by
  /// FlowIndex). Returns the number of bottleneck-freeze rounds performed.
  /// When `pool` is non-null, whole-solve scans and broadcast writes above
  /// a size floor are sharded across it (bit-identical at any pool size).
  std::uint64_t solve(const Ctx& ctx, std::span<const LinkId> used_links,
                      std::span<const double> link_weight_sum,
                      std::span<const FlowIndex> active_flows,
                      std::span<double> rates, ThreadPool* pool = nullptr) {
    for (const FlowIndex f : active_flows) frozen_[f] = 0;
    std::size_t live_flows = active_flows.size();

    // Gather the live links of this solve into compact SoA slots. The slot
    // order is the used_links order, so a heap built over slots pushes the
    // exact entry sequence the PR-6 solver pushed over used_links.
    std::uint32_t nslots = 0;
    bool dust_free = true;  // no link weight in (0, epsilon]: broadcast-safe
    for (const LinkId l : used_links) {
      const double weights = link_weight_sum[l];
      if (weights <= 0.0) continue;
      if (weights <= kWeightEpsilon) dust_free = false;
      slot_link_[nslots] = l;
      // Residuals store the CLAMPED value (see the header's residual-clamp
      // invariant); the capacity trivially satisfies it at init.
      slot_residual_[nslots] = ctx.capacity(l);
      slot_weight_[nslots] = weights;
      link_slot_[l] = nslots;
      ++nslots;
    }
    nslots_ = nslots;
    live_slots_ = nslots;

    const bool use_heap = strategy_ == SolverStrategy::kHeap;
    const bool use_near = strategy_ == SolverStrategy::kAuto;
    heap_.clear();
    near_.clear();  // the first near-set round is a refill
    near_refills_ = 0;
    if (use_heap) {
      // Initial keys are the unfloored capacity/weight quotients, exactly
      // as the PR-6 solver seeded its heap (valid lower bounds either way).
      for (std::uint32_t s = 0; s < nslots; ++s) {
        heap_.push_back(Entry{slot_residual_[s] / slot_weight_[s],
                              slot_link_[s]});
      }
      std::make_heap(heap_.begin(), heap_.end());
    }
    std::uint64_t rounds = 0;
    bool first_round = true;
    while (live_flows > 0) {
      double share;
      bool found;
      if (use_heap) {
        found = heap_round(share);
      } else if (use_near) {
        found = near_round(share);
      } else if (pool != nullptr && nslots >= 2 * kShardGrain) {
        found = scan_round_sharded(*pool, share);
      } else {
        found = scan_round_serial(share);
      }
      if (!found) break;  // every remaining link drained to dust
      rounds += batch_.size();

      if (first_round && dust_free && batch_.size() == nslots &&
          all_paths_nonempty(ctx, active_flows)) {
        // Every live link bottlenecks at once (fully symmetric instance):
        // every active flow freezes this round at the same share, so skip
        // the sort and the whole incidence walk — rates are a pure per-flow
        // function. No deltas would survive (every path link is in the
        // batch), so nothing downstream can observe the shortcut.
        broadcast_rates(ctx, active_flows, share, rates, pool);
        for (const LinkId bl : batch_) in_batch_[bl] = 0;  // heap-mode marks
        return rounds;
      }
      first_round = false;

      // Freeze the batch in ascending link id — the order serial pops
      // would visit equal-share entries — so the freeze sequence (and the
      // delta accumulation order below) stays a pure function of component
      // content: a component solved in isolation forms the same batches,
      // in the same order, as it does inside a whole-network solve.
      std::sort(batch_.begin(), batch_.end());
      for (const LinkId bl : batch_) in_batch_[bl] = 1;

      // Pass 1: freeze + assign rates, marking each flow "new this round"
      // (kFrozenNew). The mark replaces an explicit freeze-order array:
      // pass 2 re-walks the identical batch/incidence sequence and first
      // encounters reproduce the exact recording order.
      std::size_t nfrozen = 0;
      for (const LinkId bl : batch_) {
        for (const FlowIndex f : ctx.link_flows(bl)) {
          if (!ctx.flow_active(f) || frozen_[f]) continue;
          frozen_[f] = kFrozenNew;
          rates[f] = share * ctx.flow_weight(f);
          ++nfrozen;
        }
      }
      live_flows -= nfrozen;

      // Pass 2: re-walk the batch demoting kFrozenNew marks (so each new
      // flow is processed exactly once, in pass 1's order) and accumulate
      // per-link deferred deltas. Skipped entirely on the final round — no
      // unfrozen flow remains, so no future round reads the link state
      // these deltas would update; the leftover kFrozenNew marks are
      // harmless (every solve resets frozen_ for its active flows, and
      // stale incidence entries are screened by flow_active).
      if (live_flows > 0) {
        for (const LinkId bl : batch_) {
          for (const FlowIndex f : ctx.link_flows(bl)) {
            if (!ctx.flow_active(f) || frozen_[f] != kFrozenNew) continue;
            frozen_[f] = kFrozenOld;
            const double weight = ctx.flow_weight(f);
            const double rate = rates[f];
            for (const LinkId l2 : ctx.flow_path(f)) {
              if (in_batch_[l2]) continue;  // zeroed wholesale below
              // delta_ interleaves (cap, weight) per link so each
              // accumulation touches one cache line; a zero weight slot
              // doubles as the "first touch this round" flag (weights are
              // strictly positive, so a touched slot can never read 0).
              double* const d = &delta_[2 * l2];
              if (d[1] == 0.0) touched_.push_back(l2);
              d[0] += rate;
              d[1] += weight;
            }
          }
        }
        // One deferred subtraction per surviving link, re-clamped to the
        // capacity floor (the residual-clamp invariant — bit-exact against
        // PR-6's floor-at-share-time because deltas are non-negative);
        // shares still only grow, so outstanding heap keys remain valid
        // lower bounds. Links whose slot was compacted away (drained to
        // dust in an earlier round) absorb nothing: their state is never
        // read again. Under kAuto a touched far slot is re-tested against
        // the near threshold (the near-set invariant, see the header).
        for (const LinkId l2 : touched_) {
          double* const d = &delta_[2 * l2];
          const std::uint32_t s = link_slot_[l2];
          if (s != kNoSlot) {
            slot_residual_[s] = std::max(slot_residual_[s] - d[0],
                                         ctx.capacity(l2) * 1e-12);
            const double w = slot_weight_[s] - d[1];
            slot_weight_[s] = w;
            if (use_near && !slot_near_[s] && w > kWeightEpsilon &&
                slot_residual_[s] / w <= near_threshold_) {
              slot_near_[s] = 1;
              near_.push_back(s);
            }
          }
          d[0] = 0.0;
          d[1] = 0.0;
        }
        touched_.clear();
      }
      for (const LinkId bl : batch_) {
        slot_weight_[link_slot_[bl]] = 0.0;
        in_batch_[bl] = 0;
      }
    }
    return rounds;
  }

 private:
  struct Entry {
    double share;
    LinkId link;
    /// Min-heap via std::*_heap (max-heap algorithms, inverted compare);
    /// ties broken by link id for determinism.
    bool operator<(const Entry& other) const noexcept {
      if (share != other.share) return share > other.share;
      return link > other.link;
    }
  };

  /// Weight dust below this is treated as "no unfrozen flows left".
  static constexpr double kWeightEpsilon = 1e-9;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// frozen_ states: 0 = live, kFrozenOld = frozen in a completed round,
  /// kFrozenNew = frozen by the current round's pass 1, pending its pass-2
  /// delta replay (also left behind by a solve's final round, where pass 2
  /// is skipped — per-solve resets make that unobservable).
  static constexpr std::uint8_t kFrozenOld = 1;
  static constexpr std::uint8_t kFrozenNew = 2;
  /// kAuto's near list targets the K smallest shares at each refill,
  /// K = max(kNearFloor, live slots / kNearDivisor); T is read off a
  /// strided sample of about kNearSample shares. When K covers every live
  /// slot, T is +inf and the solve never refills again.
  static constexpr std::uint32_t kNearFloor = 128;
  static constexpr std::uint32_t kNearDivisor = 32;
  static constexpr std::uint32_t kNearSample = 64;
  /// Minimum slots (or flows) per shard before pool fan-out pays for its
  /// barrier; below 2x this, scans stay serial even with a pool.
  static constexpr std::size_t kShardGrain = 65536;

  /// Remaining per-unit-weight share of a slot. The capacity floor that
  /// keeps FP drift from stalling the event loop is already folded into
  /// the stored residual (the residual-clamp invariant, see the header),
  /// so the fresh share is a single division.
  [[nodiscard]] double slot_share(std::uint32_t s) const noexcept {
    return slot_residual_[s] / slot_weight_[s];
  }

  /// Sweeps the live slots, compacting drained ones out in place, and
  /// calls visit(fresh share) for every survivor in slot order.
  template <typename Visit>
  void sweep_live_slots(Visit&& visit) {
    const std::uint32_t n = live_slots_;
    std::uint32_t out = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      const double w = slot_weight_[s];
      if (w <= kWeightEpsilon) {
        // Drained to dust: fully frozen via other bottlenecks. Compact the
        // slot away; weights only shrink, so it can never come back live.
        link_slot_[slot_link_[s]] = kNoSlot;
        continue;
      }
      if (out != s) {
        slot_link_[out] = slot_link_[s];
        slot_residual_[out] = slot_residual_[s];
        slot_weight_[out] = w;
        link_slot_[slot_link_[out]] = out;
      }
      visit(slot_residual_[out] / w);
      ++out;
    }
    live_slots_ = out;
  }

  /// One scan round: sweep live slots computing fresh shares (compacting
  /// drained slots out in place), take the minimum, harvest bitwise ties
  /// into batch_. Returns false when no live slot remains.
  bool scan_round_serial(double& share_out) {
    double best = std::numeric_limits<double>::infinity();
    sweep_live_slots([&best](double fresh) {
      if (fresh < best) best = fresh;
    });
    const std::uint32_t out = live_slots_;
    if (out == 0) return false;
    batch_.clear();
    // Ties are harvested by recomputing each quotient — same operands,
    // same bits as the minimum sweep — rather than storing per-slot shares
    // (a full extra double array at million-link scale).
    for (std::uint32_t s = 0; s < out; ++s) {
      if (slot_residual_[s] / slot_weight_[s] == best) {
        batch_.push_back(slot_link_[s]);
      }
    }
    share_out = best;
    return true;
  }

  /// Sharded scan round: per-shard minimum sweeps combined by an exact
  /// serial min (order-independent), then per-shard tie harvests
  /// concatenated (order irrelevant — the batch is sorted by the caller).
  /// No compaction (shards own fixed ranges); dead slots are skipped by
  /// branch in both phases. Bit-identical to the serial scan.
  bool scan_round_sharded(ThreadPool& pool, double& share_out) {
    const std::uint32_t n = nslots_;
    const std::size_t nshards =
        std::min<std::size_t>(pool.size(), (n + kShardGrain - 1) /
                                               kShardGrain);
    const std::uint32_t chunk =
        static_cast<std::uint32_t>((n + nshards - 1) / nshards);
    shard_min_.assign(nshards, std::numeric_limits<double>::infinity());
    pool.parallel_for(nshards, [&](std::size_t shard) {
      const std::uint32_t lo = static_cast<std::uint32_t>(shard) * chunk;
      const std::uint32_t hi = std::min(n, lo + chunk);
      double best = std::numeric_limits<double>::infinity();
      for (std::uint32_t s = lo; s < hi; ++s) {
        const double w = slot_weight_[s];
        if (w <= kWeightEpsilon) continue;
        const double fresh = slot_residual_[s] / w;
        if (fresh < best) best = fresh;
      }
      shard_min_[shard] = best;
    });
    double best = std::numeric_limits<double>::infinity();
    for (const double m : shard_min_) best = std::min(best, m);
    if (best == std::numeric_limits<double>::infinity()) return false;

    shard_batches_.resize(nshards);
    pool.parallel_for(nshards, [&](std::size_t shard) {
      const std::uint32_t lo = static_cast<std::uint32_t>(shard) * chunk;
      const std::uint32_t hi = std::min(n, lo + chunk);
      auto& local = shard_batches_[shard];
      local.clear();
      // Recomputed quotient — identical operands to the minimum sweep, so
      // the tie compare is bit-exact (and no per-slot share array exists).
      for (std::uint32_t s = lo; s < hi; ++s) {
        if (slot_weight_[s] > kWeightEpsilon &&
            slot_residual_[s] / slot_weight_[s] == best) {
          local.push_back(slot_link_[s]);
        }
      }
    });
    batch_.clear();
    for (const auto& local : shard_batches_) {
      batch_.insert(batch_.end(), local.begin(), local.end());
    }
    share_out = best;
    return true;
  }

  /// One heap round: lazy revalidation + tie drain, operation for
  /// operation the PR-6 algorithm (over slot state instead of per-link
  /// arrays). Marks harvested links in in_batch_ for drain dedup; the
  /// caller clears the marks. Returns false when the heap runs dry.
  bool heap_round(double& share_out) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const LinkId l = heap_.back().link;
      heap_.pop_back();
      const std::uint32_t s = link_slot_[l];
      // Fully frozen via other bottlenecks (floor absorbs FP dust).
      if (s == kNoSlot || slot_weight_[s] <= kWeightEpsilon) continue;
      const double share = slot_share(s);
      if (!heap_.empty() && Entry{share, l} < heap_.front()) {
        // Stale key: the link's fresh (share, id) priority dropped below
        // the next candidate's lower bound. Re-queue fresh and look again.
        heap_.push_back(Entry{share, l});
        std::push_heap(heap_.begin(), heap_.end());
        continue;
      }
      // share <= every other link's current fresh share: l leads the
      // round. Harvest every link tied with it. Any live link's keys
      // lower-bound its fresh share (shares only grow), and fresh shares
      // are >= share, so draining keys <= share pops every tied link at
      // least once. Non-tied links popped here re-enter with their fresh
      // key (> share); duplicate keys of links already in the batch are
      // dropped via in_batch_.
      batch_.clear();
      batch_.push_back(l);
      in_batch_[l] = 1;
      bool leader_is_min = true;
      while (!heap_.empty() && !(heap_.front().share > share)) {
        std::pop_heap(heap_.begin(), heap_.end());
        const LinkId cand = heap_.back().link;
        heap_.pop_back();
        const std::uint32_t cs = link_slot_[cand];
        if (in_batch_[cand] || cs == kNoSlot ||
            slot_weight_[cs] <= kWeightEpsilon) {
          continue;
        }
        const double fresh = slot_share(cs);
        if (fresh == share) {
          batch_.push_back(cand);
          in_batch_[cand] = 1;
          continue;
        }
        heap_.push_back(Entry{fresh, cand});
        std::push_heap(heap_.begin(), heap_.end());
        if (fresh < share) {
          // FP rounding can leave a fresh share one ulp below the key it
          // was queued with, breaking "shares only grow": the leader was
          // not the minimum. Draining on would pop this candidate forever.
          leader_is_min = false;
          break;
        }
      }
      if (!leader_is_min) {
        // Return the batch with its fresh keys and choose the leader again.
        for (const LinkId bl : batch_) {
          in_batch_[bl] = 0;
          heap_.push_back(Entry{share, bl});
          std::push_heap(heap_.begin(), heap_.end());
        }
        continue;
      }
      share_out = share;
      return true;
    }
    return false;
  }

  /// One kAuto round. Sweeps the near list, dropping dead slots and slots
  /// whose share passed the threshold (the delta pass re-tests those from
  /// then on). Every kept share is <= threshold < every far share, so the
  /// list's minimum is the global one and its ties are all on the list.
  /// Refills once the list is empty. Returns false when no live slot
  /// remains.
  bool near_round(double& share_out) {
    const double threshold = near_threshold_;
    std::size_t out = 0;
    double best = std::numeric_limits<double>::infinity();
    for (const std::uint32_t s : near_) {
      const double w = slot_weight_[s];
      if (w <= kWeightEpsilon) {
        slot_near_[s] = 0;  // dead for good (weights only shrink)
        continue;
      }
      const double fresh = slot_residual_[s] / w;
      if (fresh > threshold) {
        slot_near_[s] = 0;  // far again: the delta pass re-tests it
        continue;
      }
      near_[out] = s;
      near_share_[out] = fresh;
      ++out;
      if (fresh < best) best = fresh;
    }
    near_.resize(out);
    if (out == 0) return near_refill(share_out);
    batch_.clear();
    for (std::size_t i = 0; i < out; ++i) {
      if (near_share_[i] == best) batch_.push_back(slot_link_[near_[i]]);
    }
    share_out = best;
    return true;
  }

  /// A full scan round (compaction, minimum, bitwise tie harvest — the
  /// same arithmetic as scan_round_serial) that also rebuilds the near
  /// list around a fresh threshold. Always returns a batch unless no live
  /// slot remains, which is what bounds the kAuto loop.
  bool near_refill(double& share_out) {
    ++near_refills_;
    const std::uint32_t stride =
        std::max<std::uint32_t>(1, live_slots_ / kNearSample);
    std::uint32_t to_sample = 1;  // live slots until the next sample
    sample_.clear();
    double best = std::numeric_limits<double>::infinity();
    sweep_live_slots([&](double fresh) {
      if (fresh < best) best = fresh;
      if (--to_sample == 0) {
        sample_.push_back(fresh);
        to_sample = stride;
      }
    });
    const std::uint32_t out = live_slots_;
    near_.clear();
    if (out == 0) return false;

    const std::uint32_t k = std::max(kNearFloor, out / kNearDivisor);
    double threshold = std::numeric_limits<double>::infinity();
    if (k < out) {
      const std::size_t rank = std::min<std::size_t>(
          sample_.size() - 1, std::size_t{k} * sample_.size() / out);
      std::nth_element(sample_.begin(),
                       sample_.begin() + static_cast<std::ptrdiff_t>(rank),
                       sample_.end());
      threshold = sample_[rank];
    }
    near_threshold_ = threshold;
    near_share_.resize(out);

    batch_.clear();
    for (std::uint32_t s = 0; s < out; ++s) {
      // Same operands as the minimum sweep, so the compares are bit-exact.
      const double fresh = slot_residual_[s] / slot_weight_[s];
      const bool near = fresh != best && fresh <= threshold;
      slot_near_[s] = near ? 1 : 0;
      if (fresh == best) {
        batch_.push_back(slot_link_[s]);
      } else if (near) {
        near_.push_back(s);
      }
    }
    share_out = best;
    return true;
  }

  /// The broadcast shortcut only matches the freeze-walk when every active
  /// flow actually crosses a batch link; a (contract-violating) empty-path
  /// flow would never be frozen by the walk. Checked only when the
  /// broadcast condition already fired, so the steady path never pays it.
  [[nodiscard]] bool all_paths_nonempty(
      const Ctx& ctx, std::span<const FlowIndex> active_flows) const {
    for (const FlowIndex f : active_flows) {
      if (ctx.flow_path(f).empty()) return false;
    }
    return true;
  }

  /// rates[f] = share * weight(f) for every active flow — disjoint slots,
  /// no accumulation, so pool chunking is bit-exact at any chunk count.
  void broadcast_rates(const Ctx& ctx, std::span<const FlowIndex> flows,
                       double share, std::span<double> rates,
                       ThreadPool* pool) const {
    const std::size_t n = flows.size();
    if (pool == nullptr || n < 2 * kShardGrain) {
      for (const FlowIndex f : flows) rates[f] = share * ctx.flow_weight(f);
      return;
    }
    const std::size_t nshards =
        std::min<std::size_t>(pool->size(), (n + kShardGrain - 1) /
                                                kShardGrain);
    const std::size_t chunk = (n + nshards - 1) / nshards;
    pool->parallel_for(nshards, [&](std::size_t shard) {
      const std::size_t lo = shard * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        const FlowIndex f = flows[i];
        rates[f] = share * ctx.flow_weight(f);
      }
    });
  }

  SolverStrategy strategy_ = SolverStrategy::kAuto;

  // All fixed-shape scratch is carved from one arena block (see resize()).
  // Slot arrays are compact over the live links of the CURRENT solve;
  // link_slot_, delta_, in_batch_ are indexed by global link id; frozen_
  // by flow index.
  ScratchArena arena_;
  std::size_t num_links_ = 0;
  std::size_t num_flows_ = 0;
  std::span<LinkId> slot_link_;
  std::span<double> slot_residual_;  // clamped (residual-clamp invariant)
  std::span<double> slot_weight_;
  std::span<std::uint32_t> link_slot_;
  std::span<double> delta_;  // (cap, weight) pairs, held 0 between rounds
  std::span<std::uint8_t> in_batch_;  // held 0 between rounds
  std::span<std::uint8_t> slot_near_;  // kAuto: slot is on near_
  std::span<std::uint8_t> frozen_;  // 0 / kFrozenOld / kFrozenNew

  std::uint32_t nslots_ = 0;      // slots carved by the current solve
  std::uint32_t live_slots_ = 0;  // shrinks under serial-scan compaction
  double near_threshold_ = 0.0;   // kAuto: T of the last refill
  std::uint32_t near_refills_ = 0;
  std::vector<std::uint32_t> near_;  // kAuto: slots with share <= T
  std::vector<double> near_share_;   // scratch: shares of near_, by position
  std::vector<double> sample_;       // scratch: refill's strided shares
  std::vector<LinkId> batch_;
  std::vector<LinkId> touched_;
  std::vector<Entry> heap_;
  std::vector<double> shard_min_;
  std::vector<std::vector<LinkId>> shard_batches_;
};

/// Reference entry point: max-min rates for explicit paths over explicit
/// capacities (all weights 1). Exercised directly by unit/property tests;
/// the engine uses the same template with its incremental context. Always
/// solves with SolverStrategy::kHeap — the PR-6 reference kernel — so the
/// scan/auto kernels are always differentially pinned against it.
[[nodiscard]] std::vector<double> maxmin_fair_rates(
    std::span<const double> link_capacities,
    const std::vector<std::vector<LinkId>>& flow_paths);

/// Weighted variant: rates on shared bottlenecks split proportionally to
/// `flow_weights` (same size as flow_paths, all > 0).
[[nodiscard]] std::vector<double> maxmin_fair_rates(
    std::span<const double> link_capacities,
    const std::vector<std::vector<LinkId>>& flow_paths,
    std::span<const double> flow_weights);

}  // namespace nestflow
