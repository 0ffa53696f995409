//===- core/ShardedRapSession.h - Per-producer ingest -----------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrent ingest front-end for RapTree. The paper's profiler is a
/// hardware unit fed by one event stream; this session lets many
/// producer threads feed one logical profile by giving each producer
/// its own delta tree, the per-thread-buffer shape PROMPT uses:
///
///   * on its first ingest into any session, a thread draws an ordinal
///     from a global counter and keeps it thread_local; it ingests
///     into slot (ordinal mod slot count) of every session. Nothing
///     per-session is cached, so a session built at a freed address
///     cannot route a thread into a dead slot. Threads that start
///     ingesting one after another get distinct slots; with more
///     producers than slots, they share slots round-robin;
///   * ingest updates the thread's own delta tree under the slot's
///     mutex. The mutex is uncontended on the ingest path (besides its
///     owner, only readers and combineNow take it) and stays on the
///     owner's core; readers need it because an owner may be parked
///     while its delta is read;
///   * when a slot's pending weight crosses the watermark, the thread
///     drains only its own delta: it allocates a fresh tree, takes
///     CombineMu, swaps the fresh tree in under the slot lock (an
///     O(1) pointer handoff), releases the slot lock and absorbs the
///     old delta into the combined tree while the other producers
///     keep ingesting. combineNow() runs the same handoff for every
///     slot. Combines trigger on ingested-event counts, never on
///     wall-clock, so the core stays free of time sources.
///
/// The constructor's count names the number of producer slots. It
/// bounds how many threads ingest without sharing a delta; it does
/// not partition the key space.
///
/// Accuracy: each delta tree keeps the eps*n_i guarantee over its own
/// sub-stream, and absorb's union preserves lower bounds, so any range
/// estimate read from the combined tree under-counts by at most
/// sum(eps*n_i) = eps*n (see RapTree::absorb). Event counts are exact:
/// every unit of ingested weight is in exactly one tree whenever
/// CombineMu is free, and every reader holds CombineMu.
///
/// Lock discipline (checked by rap_lint's interprocedural rules and,
/// under Clang, -Wthread-safety): each slot's delta state is guarded
/// by that slot's IngestMu, the combined tree by CombineMu, and
/// CombineMu is always acquired before any IngestMu. A drain holds at
/// most one slot lock, and only for the swap.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_SHARDEDRAPSESSION_H
#define RAP_CORE_SHARDEDRAPSESSION_H

#include "core/RapConfig.h"
#include "core/RapTree.h"
#include "support/Annotations.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace rap {

/// A concurrent ingest session over RapTree with one delta tree per
/// producer slot.
///
/// Thread-safe: ingest, combineNow and every query may be called
/// concurrently from any thread. Queries serve the combined view as
/// of the last combine (totalEvents and topKRanges additionally fold
/// in pending deltas); call combineNow() first when a query must
/// observe all prior ingest.
class ShardedRapSession {
public:
  /// Creates a session with \p SlotCount producer slots (clamped to
  /// [1, MaxSlots]): up to that many threads that start ingesting
  /// together get deltas of their own before threads share them. \p CombineEvery is
  /// the per-slot pending-weight watermark at which the ingesting
  /// thread drains its slot; 0 disables automatic drains (callers
  /// then drive combineNow() themselves).
  explicit ShardedRapSession(const RapConfig &Config, unsigned SlotCount,
                             uint64_t CombineEvery = DefaultCombineEvery);

  ShardedRapSession(const ShardedRapSession &) = delete;
  ShardedRapSession &operator=(const ShardedRapSession &) = delete;

  /// Records \p Weight occurrences of event \p X in the calling
  /// thread's delta. When the slot's pending weight crosses the
  /// combine watermark, drains that slot after releasing its lock.
  /// (Named distinctly from RapTree::addPoint: rap_lint's call graph
  /// merges functions by unqualified name, and a shared name would
  /// alias the delta tree's lock-free update with this lock-taking
  /// entry point.)
  void ingest(uint64_t X, uint64_t Weight = 1);

  /// Absorbs every slot's delta tree into the combined tree, handing
  /// each slot a fresh tree allocated before CombineMu is taken.
  /// Holds CombineMu throughout but each slot lock only for its swap.
  /// Safe to call concurrently with ingest; events added to a slot
  /// after its swap surface at the next combine.
  void combineNow();

  // The query API deliberately avoids reusing RapTree method names
  // (numEvents, estimateRange, ...): rap_lint's interprocedural pass
  // merges functions by unqualified name, so sharing a name would
  // charge these lock-taking queries' acquisitions to every tree
  // call site in the project. Session-specific names also read
  // better: they answer over the *combined* view, not one tree.

  /// Exact total ingested weight: the combined tree's count plus all
  /// pending slot deltas.
  uint64_t totalEvents() const;

  /// Lower-bound estimate over [Lo, Hi] (inclusive) from the combined
  /// view as of the last combine; under-counts the combined stream by
  /// at most eps * n. See RapTree::estimateRange.
  uint64_t combinedEstimate(uint64_t Lo, uint64_t Hi) const;

  /// Deterministic bracket on a range count from the combined view.
  RapTree::RangeBounds combinedEstimateBounds(uint64_t Lo,
                                              uint64_t Hi) const;

  /// Hot ranges of the combined view at hotness fraction \p Phi.
  std::vector<HotRange> combinedHotRanges(double Phi) const;

  /// Top \p K hottest ranges of the whole session, pending slot
  /// deltas included. Candidates are the per-tree topK(K) sets of the
  /// combined tree and every slot delta, merged by range identity
  /// (Lo, WidthBits) and then re-bracketed as the sum of
  /// estimateRangeBounds over *all* trees — a tree that did not
  /// nominate a range still holds part of its weight, so summing
  /// uppers only over nominating trees would under-state the bound.
  /// Retained carries the summed lower bracket (the ranking score);
  /// entries are ordered by it, ties broken by (Lo, WidthBits).
  /// Each delta is read once under its own lock, so concurrent ingest
  /// between reads can only raise a later tree's contribution; call
  /// combineNow() first (or quiesce writers) when the report must
  /// reflect one consistent cut of the stream.
  std::vector<TopKRange> topKRanges(size_t K) const;

  /// Number of drains run so far: one per watermark drain that handed
  /// off a delta (not one a thread sharing the slot emptied first)
  /// plus one per combineNow().
  uint64_t numCombines() const;

  /// Node count of the combined tree (pending deltas excluded).
  uint64_t combinedNodes() const;

  /// The number of producer slots after clamping.
  unsigned shardCount() const { return SlotCount; }

  /// The configuration every tree in the session was built with.
  const RapConfig &config() const { return Config; }

  static constexpr uint64_t DefaultCombineEvery = 1 << 16;
  static constexpr unsigned MaxSlots = 64;

private:
  /// One producer slot. Cache-line aligned so two producers' slots
  /// never share a line. The mutex is mutable so const queries can
  /// take it.
  struct alignas(64) Slot {
    mutable std::mutex IngestMu;
    /// Delta tree holding events ingested since the slot's last drain.
    std::unique_ptr<RapTree> Delta RAP_GUARDED_BY(IngestMu);
    /// Ingested weight since the last drain; drives the watermark.
    uint64_t PendingSinceCombine RAP_GUARDED_BY(IngestMu) = 0;
  };

  /// When \p S holds events, swaps the fresh tree in \p Tree into S
  /// under the slot lock and absorbs the old delta, which \p Tree then
  /// holds, into the combined tree; the caller frees it after releasing
  /// CombineMu. Returns false, leaving \p Tree unused, when S is empty.
  bool drainSlot(Slot &S, std::unique_ptr<RapTree> &Tree)
      RAP_REQUIRES(CombineMu);

  RAP_ACQUIRED_BEFORE(CombineMu, IngestMu);

  RapConfig Config;
  uint64_t CombineEvery;
  unsigned SlotCount;
  std::vector<std::unique_ptr<Slot>> Slots;

  mutable std::mutex CombineMu;
  /// Union of every drained delta; what queries read.
  std::unique_ptr<RapTree> CombinedTree RAP_GUARDED_BY(CombineMu);
  uint64_t NumCombines RAP_GUARDED_BY(CombineMu) = 0;
};

} // namespace rap

#endif // RAP_CORE_SHARDEDRAPSESSION_H
