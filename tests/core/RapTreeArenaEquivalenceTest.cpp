//===- tests/core/RapTreeArenaEquivalenceTest.cpp - Arena vs legacy -------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arena rewrite's contract is bit-for-bit equivalence: the
/// slab/SoA core/RapTree must produce the SAME tree as the preserved
/// pointer-based implementation (verify/ReferenceRapTree) on every
/// stream — same preorder (lo, widthBits, count) node sequence, same
/// split/merge statistics, same merge timeline. These sweeps feed both
/// implementations identical streams across the same 50 random
/// configurations as RapTreePropertyTest (tests/core/SweepSampler.h)
/// and compare structurally at checkpoints, then push the corners the
/// sampler cannot reach: the single-value universe R = 1, the
/// smallest splittable universe, full 64-bit keys, counter
/// saturation, disabled merges, stage-0 combined delivery, and the
/// serialization round-trip.
///
/// The same sweep and corners also pin the subtree-sum column: a live
/// tree that has just taken updates answers from recursive walks (its
/// column is stale), while its snapshot-restored copy answers from the
/// column. Every range estimate, bracket, top-k report and hot-range
/// extraction must agree bit for bit.
///
//===----------------------------------------------------------------------===//

#include "SweepSampler.h"

#include "core/RapTree.h"
#include "core/Serialization.h"
#include "core/StageZeroBuffer.h"
#include "verify/ReferenceRapTree.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace rap;
using namespace rap::sweeptest;

namespace {

using NodeTriple = ReferenceRapTree::NodeTriple;

/// Preorder (lo, widthBits, count) triples of the arena tree — the
/// same order ReferenceRapTree::collectNodes emits (root first,
/// children in ascending slot order).
void collectPreorder(const RapNode &Node, std::vector<NodeTriple> &Out) {
  Out.emplace_back(Node.lo(), static_cast<uint8_t>(Node.widthBits()),
                   Node.count());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectPreorder(*Child, Out);
}

/// Full structural comparison. \p Context names the checkpoint in
/// failure output.
void expectEquivalent(const RapTree &Arena, const ReferenceRapTree &Legacy,
                      const std::string &Context) {
  ASSERT_EQ(Arena.numEvents(), Legacy.numEvents()) << Context;
  ASSERT_EQ(Arena.numNodes(), Legacy.numNodes()) << Context;
  ASSERT_EQ(Arena.maxNumNodes(), Legacy.maxNumNodes()) << Context;
  ASSERT_EQ(Arena.numSplits(), Legacy.numSplits()) << Context;
  ASSERT_EQ(Arena.numMergePasses(), Legacy.numMergePasses()) << Context;
  ASSERT_EQ(Arena.numMergedNodes(), Legacy.numMergedNodes()) << Context;
  ASSERT_EQ(Arena.nextMergeAt(), Legacy.nextMergeAt()) << Context;
  ASSERT_EQ(Arena.mergeEventCounts(), Legacy.mergeEventCounts()) << Context;

  std::vector<NodeTriple> ArenaNodes, LegacyNodes;
  collectPreorder(Arena.root(), ArenaNodes);
  LegacyNodes = Legacy.collectNodes();
  ASSERT_EQ(ArenaNodes.size(), LegacyNodes.size()) << Context;
  for (size_t I = 0; I != ArenaNodes.size(); ++I)
    ASSERT_EQ(ArenaNodes[I], LegacyNodes[I])
        << Context << ": preorder position " << I << " diverges (lo "
        << std::get<0>(ArenaNodes[I]) << " width "
        << unsigned(std::get<1>(ArenaNodes[I])) << " count "
        << std::get<2>(ArenaNodes[I]) << " vs lo "
        << std::get<0>(LegacyNodes[I]) << " width "
        << unsigned(std::get<1>(LegacyNodes[I])) << " count "
        << std::get<2>(LegacyNodes[I]) << ")";
}

void expectSameTopK(const std::vector<TopKRange> &A,
                    const std::vector<TopKRange> &B,
                    const std::string &Context) {
  ASSERT_EQ(A.size(), B.size()) << Context;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Lo, B[I].Lo) << Context << " entry " << I;
    EXPECT_EQ(A[I].Hi, B[I].Hi) << Context << " entry " << I;
    EXPECT_EQ(A[I].WidthBits, B[I].WidthBits) << Context << " entry " << I;
    EXPECT_EQ(A[I].Depth, B[I].Depth) << Context << " entry " << I;
    EXPECT_EQ(A[I].Retained, B[I].Retained) << Context << " entry " << I;
    EXPECT_EQ(A[I].LowerWeight, B[I].LowerWeight) << Context << " entry " << I;
    EXPECT_EQ(A[I].UpperWeight, B[I].UpperWeight) << Context << " entry " << I;
  }
}

void expectSameHot(const std::vector<HotRange> &A,
                   const std::vector<HotRange> &B,
                   const std::string &Context) {
  ASSERT_EQ(A.size(), B.size()) << Context;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Lo, B[I].Lo) << Context << " entry " << I;
    EXPECT_EQ(A[I].Hi, B[I].Hi) << Context << " entry " << I;
    EXPECT_EQ(A[I].WidthBits, B[I].WidthBits) << Context << " entry " << I;
    EXPECT_EQ(A[I].Depth, B[I].Depth) << Context << " entry " << I;
    EXPECT_EQ(A[I].ExclusiveWeight, B[I].ExclusiveWeight)
        << Context << " entry " << I;
    EXPECT_EQ(A[I].SubtreeWeight, B[I].SubtreeWeight)
        << Context << " entry " << I;
  }
}

/// Own counters of every node in \p Nodes (preorder triples) that
/// intersects [Lo, Hi] without lying inside it.
uint64_t straddlingCounts(const std::vector<NodeTriple> &Nodes, uint64_t Lo,
                          uint64_t Hi) {
  uint64_t Total = 0;
  for (const auto &[NodeLo, WidthBits, Count] : Nodes) {
    uint64_t NodeHi = NodeLo + lowBitMask(WidthBits);
    if (NodeLo <= Hi && Lo <= NodeHi && !(Lo <= NodeLo && NodeHi <= Hi))
      Total = saturatingAdd(Total, Count);
  }
  return Total;
}

/// Appends the ranges of up to \p Limit nodes whose subtrees retain no
/// weight, outermost first.
void collectUntouched(const RapNode &Node, size_t Limit,
                      std::vector<std::pair<uint64_t, uint64_t>> &Out) {
  if (Out.size() == Limit)
    return;
  if (Node.subtreeWeight() == 0) {
    Out.emplace_back(Node.lo(), Node.hi());
    return;
  }
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectUntouched(*Child, Limit, Out);
}

/// Restores \p Live from its snapshot — a copy that answers from the
/// subtree-sum column — and checks both trees give bit-identical
/// answers: random and node-aligned range estimates and brackets,
/// top-k reports at several K, and hot ranges at several fractions.
/// On ranges the tree retains nothing inside, both trees must also
/// estimate 0 and bracket them by exactly the straddling counters.
void expectRestoredAnswersMatch(const RapTree &Live, uint64_t QuerySeed,
                                const std::string &Context) {
  std::unique_ptr<RapTree> Fresh = ProfileSnapshot::capture(Live).restore();
  ASSERT_NE(Fresh, nullptr) << Context;
  ASSERT_TRUE(Fresh->subtreeSumsFresh()) << Context;
  // Only the column's own invariant: at the saturation corner the
  // merge schedule pins to the sentinel, which the audit also flags.
  for (const InvariantViolation &V : TreeInvariants::audit(*Fresh))
    EXPECT_NE(V.Invariant, "subtree-sum-column") << Context << ": " << V.Detail;

  unsigned Bits = Live.config().RangeBits;
  uint64_t UniverseHi = Bits == 0 ? 0 : lowBitMask(Bits);
  std::vector<std::pair<uint64_t, uint64_t>> Ranges = {{0, UniverseHi}};
  Rng Q(QuerySeed);
  for (unsigned I = 0; I != 48; ++I) {
    uint64_t Lo = Q.next() & UniverseHi;
    uint64_t Hi = Lo + (Q.next() & (UniverseHi - Lo));
    Ranges.emplace_back(Lo, Hi);
  }
  // Node-aligned queries: the ranges of the smallest covers of a few
  // points, where the estimate is exactly one subtree weight.
  for (unsigned I = 0; I != 16; ++I) {
    RapNode Cover = Live.findSmallestCover(Q.next() & UniverseHi);
    Ranges.emplace_back(Cover.lo(), Cover.hi());
  }
  for (const auto &[Lo, Hi] : Ranges) {
    EXPECT_EQ(Live.estimateRange(Lo, Hi), Fresh->estimateRange(Lo, Hi))
        << Context << " on [" << Lo << ", " << Hi << "]";
    RapTree::RangeBounds A = Live.estimateRangeBounds(Lo, Hi);
    RapTree::RangeBounds B = Fresh->estimateRangeBounds(Lo, Hi);
    EXPECT_EQ(A.Lower, B.Lower) << Context << " on [" << Lo << ", " << Hi
                                << "]";
    EXPECT_EQ(A.Upper, B.Upper) << Context << " on [" << Lo << ", " << Hi
                                << "]";
  }
  std::vector<NodeTriple> Nodes;
  collectPreorder(Live.root(), Nodes);
  std::vector<std::pair<uint64_t, uint64_t>> Untouched;
  collectUntouched(Live.root(), 8, Untouched);
  for (size_t I = 0, E = Untouched.size(); I != E; ++I)
    Untouched.emplace_back(Untouched[I].first, Untouched[I].first);
  const RapTree *Trees[] = {&Live, Fresh.get()};
  for (const auto &[Lo, Hi] : Untouched) {
    uint64_t Straddling = straddlingCounts(Nodes, Lo, Hi);
    for (const RapTree *T : Trees) {
      const char *Which = T == &Live ? "live" : "restored";
      EXPECT_EQ(T->estimateRange(Lo, Hi), 0u)
          << Context << ", " << Which << " untouched [" << Lo << ", " << Hi
          << "]";
      RapTree::RangeBounds B = T->estimateRangeBounds(Lo, Hi);
      EXPECT_EQ(B.Lower, 0u) << Context << ", " << Which << " untouched ["
                             << Lo << ", " << Hi << "]";
      EXPECT_EQ(B.Upper, Straddling) << Context << ", " << Which
                                     << " untouched [" << Lo << ", " << Hi
                                     << "]";
    }
  }

  for (size_t K : {size_t(1), size_t(8), size_t(Live.numNodes() + 1)})
    expectSameTopK(Live.topK(K), Fresh->topK(K),
                   Context + ", topK(" + std::to_string(K) + ")");
  for (double Phi : {0.01, 0.1, 0.5})
    expectSameHot(Live.extractHotRanges(Phi), Fresh->extractHotRanges(Phi),
                  Context + ", hot ranges at " + std::to_string(Phi));
}

class ArenaEquivalence : public testing::TestWithParam<SweepParam> {
protected:
  static constexpr uint64_t NumEvents = 20000;
  static constexpr uint64_t CheckpointEvery = 5000;

  RapConfig makeConfig() const {
    const SweepParam &P = GetParam();
    RapConfig Config;
    Config.Epsilon = P.Epsilon;
    Config.BranchFactor = P.BranchFactor;
    Config.RangeBits = P.RangeBits;
    Config.MergeRatio = P.MergeRatio;
    Config.InitialMergeInterval = 1024;
    return Config;
  }
};

} // namespace

TEST_P(ArenaEquivalence, IdenticalStreamsProduceIdenticalTrees) {
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  ReferenceRapTree Legacy(Config);
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed);
  for (uint64_t I = 1; I <= NumEvents; ++I) {
    uint64_t X = Gen.next();
    Arena.addPoint(X);
    Legacy.addPoint(X);
    if (I % CheckpointEvery == 0)
      expectEquivalent(Arena, Legacy,
                       "after " + std::to_string(I) + " events");
  }
  // Explicit merges must also agree, including the removal count.
  EXPECT_EQ(Arena.mergeNow(), Legacy.mergeNow());
  expectEquivalent(Arena, Legacy, "after final mergeNow");
  expectRestoredAnswersMatch(Arena, P.StreamSeed, "after final mergeNow");
}

TEST_P(ArenaEquivalence, WeightedStreamsProduceIdenticalTrees) {
  // Weighted delivery (the stage-0 combined shape) through both paths.
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  ReferenceRapTree Legacy(Config);
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed ^ 0x77);
  Rng Weights(P.StreamSeed ^ 0x1234);
  for (uint64_t I = 1; I <= 6000; ++I) {
    uint64_t X = Gen.next();
    uint64_t W = 1 + Weights.nextBelow(97);
    Arena.addPoint(X, W);
    Legacy.addPoint(X, W);
  }
  expectEquivalent(Arena, Legacy, "after weighted stream");
}

TEST_P(ArenaEquivalence, CombinedDeliveryProducesIdenticalTrees) {
  // Both implementations consume the SAME stage-0 combined pair
  // stream; the buffer's window boundaries shape the delivered
  // weights, so this exercises heavy weighted arrivals against the
  // split/merge schedule on both sides.
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  ReferenceRapTree Legacy(Config);
  StageZeroBuffer Buffer(64 + (P.Index % 3) * 960); // 64, 1024, 1984
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed ^ 0xC0);
  auto Deliver = [&] {
    for (const auto &[Event, Weight] : Buffer.drain()) {
      Arena.addPoint(Event, Weight);
      Legacy.addPoint(Event, Weight);
    }
  };
  for (uint64_t I = 0; I != NumEvents; ++I)
    if (Buffer.push(Gen.next()))
      Deliver();
  Deliver();
  EXPECT_EQ(Arena.numEvents(), NumEvents);
  expectEquivalent(Arena, Legacy, "after combined delivery");
}

TEST_P(ArenaEquivalence, NodeSetRoundTripRestoresIdenticalTree) {
  // Serialize the arena tree as preorder triples (the ProfileSnapshot
  // node-set form), reconstruct, and keep feeding both the original
  // and the restored tree: they must stay identical, which proves the
  // round-trip also restored the merge schedule.
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed);
  for (uint64_t I = 0; I != 10000; ++I)
    Arena.addPoint(Gen.next());

  std::vector<NodeTriple> Nodes;
  collectPreorder(Arena.root(), Nodes);
  std::string Error;
  std::unique_ptr<RapTree> Restored = RapTree::fromNodeSet(
      Config, Nodes, Arena.numEvents(), &Error, Arena.nextMergeAt());
  ASSERT_NE(Restored, nullptr) << Error;

  std::vector<NodeTriple> RestoredNodes;
  collectPreorder(Restored->root(), RestoredNodes);
  EXPECT_EQ(Nodes, RestoredNodes);
  EXPECT_EQ(Restored->numEvents(), Arena.numEvents());
  EXPECT_EQ(Restored->nextMergeAt(), Arena.nextMergeAt());

  for (uint64_t I = 0; I != 10000; ++I) {
    uint64_t X = Gen.next();
    Arena.addPoint(X);
    Restored->addPoint(X);
  }
  std::vector<NodeTriple> A, B;
  collectPreorder(Arena.root(), A);
  collectPreorder(Restored->root(), B);
  EXPECT_EQ(A, B) << "restored tree diverged under further updates";
}

TEST_P(ArenaEquivalence, LiveAndRestoredTreesAnswerAlike) {
  // The live tree has just taken updates, so its sum column is stale
  // and every answer comes from walks; the restored copy answers from
  // the column. Compared at checkpoints through the stream.
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed ^ 0x5u);
  for (uint64_t I = 1; I <= NumEvents; ++I) {
    Arena.addPoint(Gen.next());
    if (I % CheckpointEvery == 0)
      expectRestoredAnswersMatch(Arena, P.StreamSeed + I,
                                 "after " + std::to_string(I) + " events");
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ArenaEquivalence,
                         testing::ValuesIn(standardSweep()), paramName);

namespace {

/// Corners the random sampler cannot reach.
class ArenaEquivalenceEdge : public testing::Test {
protected:
  static void feedAndCompare(const RapConfig &Config,
                             const std::vector<std::pair<uint64_t, uint64_t>>
                                 &Stream,
                             const std::string &Context) {
    RapTree Arena(Config);
    ReferenceRapTree Legacy(Config);
    for (const auto &[X, W] : Stream) {
      Arena.addPoint(X, W);
      Legacy.addPoint(X, W);
    }
    expectEquivalent(Arena, Legacy, Context);
    expectRestoredAnswersMatch(Arena, Stream.size(), Context);
  }
};

} // namespace

TEST_F(ArenaEquivalenceEdge, SingleValueUniverse) {
  // R = 1: the root is a unit range, no split can ever happen, every
  // event is 0.
  RapConfig Config;
  Config.RangeBits = 0;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  for (uint64_t I = 0; I != 5000; ++I)
    Stream.emplace_back(0, 1 + I % 3);
  feedAndCompare(Config, Stream, "single-value universe");
}

TEST_F(ArenaEquivalenceEdge, SmallestSplittableUniverse) {
  RapConfig Config;
  Config.RangeBits = 1;
  Config.BranchFactor = 2;
  Config.Epsilon = 0.5;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  SplitMix64 M(99);
  for (uint64_t I = 0; I != 5000; ++I)
    Stream.emplace_back(M.next() & 1, 1);
  feedAndCompare(Config, Stream, "1-bit universe");
}

TEST_F(ArenaEquivalenceEdge, FullWidthUniverseExtremes) {
  // 64-bit keys including both universe endpoints; b = 16 stresses
  // the widest child blocks.
  RapConfig Config;
  Config.RangeBits = 64;
  Config.BranchFactor = 16;
  Config.Epsilon = 0.05;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  SplitMix64 M(7);
  for (uint64_t I = 0; I != 8000; ++I) {
    uint64_t X = M.next();
    if (I % 5 == 0)
      X = (I % 10 == 0) ? 0 : ~uint64_t(0);
    Stream.emplace_back(X, 1);
  }
  feedAndCompare(Config, Stream, "64-bit universe with endpoint keys");
  // The empty tree answers {0, 0} everywhere, whole universe included.
  feedAndCompare(Config, {}, "empty 64-bit tree");
}

TEST_F(ArenaEquivalenceEdge, CounterSaturation) {
  // Weights near 2^64 saturate counters and subtree weights; both
  // implementations must clamp identically (saturatingAdd), including
  // the merge arithmetic that runs over saturated values.
  RapConfig Config;
  Config.RangeBits = 8;
  Config.BranchFactor = 4;
  Config.Epsilon = 0.2;
  constexpr uint64_t Huge = ~uint64_t(0) - 5;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  Stream.emplace_back(3, Huge);
  Stream.emplace_back(3, Huge); // saturates the same counter
  Stream.emplace_back(200, Huge);
  SplitMix64 M(3);
  for (uint64_t I = 0; I != 3000; ++I)
    Stream.emplace_back(M.next() & 0xff, 1 + (I % 11));
  feedAndCompare(Config, Stream, "saturating weights");
}

TEST_F(ArenaEquivalenceEdge, MergesDisabled) {
  // Split-only growth (the unbounded failure mode): node recycling
  // never runs, so this isolates the arena's allocation path.
  RapConfig Config;
  Config.RangeBits = 16;
  Config.BranchFactor = 2;
  Config.Epsilon = 0.05;
  Config.EnableMerges = false;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  SplitMix64 M(11);
  for (uint64_t I = 0; I != 20000; ++I)
    Stream.emplace_back(M.next() & 0xffff, 1);
  feedAndCompare(Config, Stream, "merges disabled");
}

TEST_F(ArenaEquivalenceEdge, FixedSplitThreshold) {
  RapConfig Config;
  Config.RangeBits = 20;
  Config.BranchFactor = 4;
  Config.FixedSplitThreshold = 50.0;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  SplitMix64 M(13);
  for (uint64_t I = 0; I != 20000; ++I)
    Stream.emplace_back(M.next() & 0xfffff, 1);
  feedAndCompare(Config, Stream, "fixed split threshold");
}
