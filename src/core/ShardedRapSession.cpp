//===- core/ShardedRapSession.cpp - Per-producer concurrent ingest --------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ShardedRapSession.h"

#include "support/BitUtils.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

namespace rap {

namespace {

/// Source of thread ordinals.
std::atomic<unsigned> NextThreadOrdinal{0};

/// The calling thread's ordinal, drawn on its first ingest into any
/// session and kept for the thread's lifetime. Threads that start
/// ingesting one after another get consecutive ordinals, so up to
/// SlotCount of them land in distinct slots of every session.
unsigned threadOrdinal() {
  thread_local const unsigned Ordinal =
      NextThreadOrdinal.fetch_add(1, std::memory_order_relaxed);
  return Ordinal;
}

} // namespace

ShardedRapSession::ShardedRapSession(const RapConfig &ConfigIn,
                                     unsigned SlotCountIn,
                                     uint64_t CombineEveryIn)
    : Config(ConfigIn), CombineEvery(CombineEveryIn),
      SlotCount(std::clamp(SlotCountIn, 1u, MaxSlots)) {
  assert(Config.validate() && "config must validate");
  Slots.reserve(SlotCount);
  for (unsigned I = 0; I < SlotCount; ++I) {
    auto S = std::make_unique<Slot>();
    S->Delta = std::make_unique<RapTree>(Config);
    Slots.push_back(std::move(S));
  }
  // No other thread can see a half-built session, but guarded state
  // is written under its lock even here so the discipline has no
  // exceptions for the checkers to special-case.
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  CombinedTree = std::make_unique<RapTree>(Config);
}

void ShardedRapSession::ingest(uint64_t X, uint64_t Weight) {
  // The slot is a function of the thread alone: no per-session state
  // to go stale, and any thread may use any slot.
  Slot &S = *Slots[threadOrdinal() % SlotCount];
  bool WatermarkHit = false;
  {
    std::lock_guard<std::mutex> Guard(S.IngestMu);
    S.Delta->addPoint(X, Weight);
    S.PendingSinceCombine += Weight;
    WatermarkHit =
        CombineEvery != 0 && S.PendingSinceCombine >= CombineEvery;
  }
  if (!WatermarkHit)
    return;
  // Drain outside the slot lock: drainSlot re-acquires it in the
  // declared CombineMu-before-IngestMu order. A thread sharing the slot
  // may have drained it in the gap; then nothing is drained or
  // counted. The fresh tree is built before CombineMu is taken, and
  // the retired one is freed after CombineMu is released.
  std::unique_ptr<RapTree> Tree = std::make_unique<RapTree>(Config);
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  if (drainSlot(S, Tree))
    NumCombines += 1;
}

bool ShardedRapSession::drainSlot(Slot &S, std::unique_ptr<RapTree> &Tree) {
  {
    std::lock_guard<std::mutex> Guard(S.IngestMu);
    if (S.Delta->numEvents() == 0)
      return false;
    std::swap(S.Delta, Tree);
    S.PendingSinceCombine = 0;
  }
  // Only CombineMu is held: the slot's producer keeps ingesting into
  // the fresh delta while the old one is folded in.
  CombinedTree->absorb(*Tree);
  return true;
}

void ShardedRapSession::combineNow() {
  // One fresh tree per slot, built before CombineMu is taken; the
  // drained deltas (and any tree an empty slot did not need) are freed
  // after it is released.
  std::vector<std::unique_ptr<RapTree>> Trees;
  Trees.reserve(SlotCount);
  for (unsigned I = 0; I < SlotCount; ++I)
    Trees.push_back(std::make_unique<RapTree>(Config));
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  for (unsigned I = 0; I < SlotCount; ++I)
    drainSlot(*Slots[I], Trees[I]);
  NumCombines += 1;
}

uint64_t ShardedRapSession::totalEvents() const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  uint64_t Total = CombinedTree->numEvents();
  for (const std::unique_ptr<Slot> &SP : Slots) {
    std::lock_guard<std::mutex> Guard(SP->IngestMu);
    Total = saturatingAdd(Total, SP->Delta->numEvents());
  }
  return Total;
}

uint64_t ShardedRapSession::combinedEstimate(uint64_t Lo, uint64_t Hi) const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->estimateRange(Lo, Hi);
}

RapTree::RangeBounds
ShardedRapSession::combinedEstimateBounds(uint64_t Lo, uint64_t Hi) const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->estimateRangeBounds(Lo, Hi);
}

std::vector<HotRange> ShardedRapSession::combinedHotRanges(double Phi) const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->extractHotRanges(Phi);
}

std::vector<TopKRange> ShardedRapSession::topKRanges(size_t K) const {
  std::vector<TopKRange> Result;
  if (K == 0)
    return Result;
  std::lock_guard<std::mutex> CombineGuard(CombineMu);

  // Pass 1: gather candidate ranges. A range hot over the whole
  // session holds at least 1/(S+1) of its weight in some single tree,
  // so taking each tree's own top K keeps every plausible winner in
  // play. Slot locks are taken one at a time (the declared
  // CombineMu-before-IngestMu order), never all at once.
  std::vector<TopKRange> Candidates = CombinedTree->topK(K);
  for (const std::unique_ptr<Slot> &SP : Slots) {
    std::lock_guard<std::mutex> Guard(SP->IngestMu);
    std::vector<TopKRange> Local = SP->Delta->topK(K);
    Candidates.insert(Candidates.end(), Local.begin(), Local.end());
  }

  // Dedupe by range identity. (Lo, WidthBits) names the aligned range;
  // Depth is a function of WidthBits under a fixed config, so keeping
  // the first nomination loses nothing.
  std::sort(Candidates.begin(), Candidates.end(),
            [](const TopKRange &A, const TopKRange &B) {
              return A.Lo != B.Lo ? A.Lo < B.Lo
                                  : A.WidthBits < B.WidthBits;
            });
  Candidates.erase(
      std::unique(Candidates.begin(), Candidates.end(),
                  [](const TopKRange &A, const TopKRange &B) {
                    return A.Lo == B.Lo && A.WidthBits == B.WidthBits;
                  }),
      Candidates.end());

  // Pass 2: re-bracket every candidate across ALL trees. Per-tree
  // brackets are sound for that tree's slice of the stream and every
  // ingested event lives in exactly one tree, so their sums bracket
  // the whole stream's count. This is the combiner's hot loop
  // (candidates x trees bounds queries).
  for (TopKRange &C : Candidates) {
    RapTree::RangeBounds B = CombinedTree->estimateRangeBounds(C.Lo, C.Hi);
    C.LowerWeight = B.Lower;
    C.UpperWeight = B.Upper;
  }
  for (const std::unique_ptr<Slot> &SP : Slots) {
    std::lock_guard<std::mutex> Guard(SP->IngestMu);
    for (TopKRange &C : Candidates) {
      RapTree::RangeBounds B =
          SP->Delta->estimateRangeBounds(C.Lo, C.Hi);
      C.LowerWeight = saturatingAdd(C.LowerWeight, B.Lower);
      C.UpperWeight = saturatingAdd(C.UpperWeight, B.Upper);
    }
  }

  // Rank by the summed lower bracket — the session-wide analogue of a
  // single tree's retained count — with the same deterministic
  // tie-break order as RapTree::topK.
  for (TopKRange &C : Candidates)
    C.Retained = C.LowerWeight;
  std::sort(Candidates.begin(), Candidates.end(),
            [](const TopKRange &A, const TopKRange &B) {
              if (A.Retained != B.Retained)
                return A.Retained > B.Retained;
              if (A.Lo != B.Lo)
                return A.Lo < B.Lo;
              return A.WidthBits < B.WidthBits;
            });
  if (Candidates.size() > K)
    Candidates.resize(K);
  Result = std::move(Candidates);
  return Result;
}

uint64_t ShardedRapSession::numCombines() const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return NumCombines;
}

uint64_t ShardedRapSession::combinedNodes() const {
  std::lock_guard<std::mutex> CombineGuard(CombineMu);
  return CombinedTree->numNodes();
}

} // namespace rap
