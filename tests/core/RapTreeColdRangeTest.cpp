//===- tests/core/RapTreeColdRangeTest.cpp - Untouched-range queries -----===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// Range queries over regions no event fell into: they estimate to 0
// and bracket to exactly the counters of the nodes straddling them,
// on a live tree (walk), after merges and absorb (sum column) and on
// a tree restored from its node set. The suite keeps the name it had
// while a cold-range bitmap answered these queries.
//
//===----------------------------------------------------------------------===//

#include "core/RapTree.h"
#include "core/Serialization.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

using namespace rap;

namespace {

RapConfig smallConfig() {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.BranchFactor = 4;
  Config.Epsilon = 0.05;
  return Config;
}

/// Own counters of every node that straddles [Lo, Hi] (intersects it
/// without lying inside it), found by a full walk of the tree.
uint64_t straddlingCounts(const RapNode &Node, uint64_t Lo, uint64_t Hi) {
  if (Node.hi() < Lo || Node.lo() > Hi || (Lo <= Node.lo() && Node.hi() <= Hi))
    return 0;
  uint64_t Total = Node.count();
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      Total += straddlingCounts(*Child, Lo, Hi);
  return Total;
}

/// A range no event fell into estimates to 0, and its bracket is
/// [0, the counters of the nodes straddling it]. Returns the upper
/// bound.
uint64_t expectUntouched(const RapTree &Tree, uint64_t Lo, uint64_t Hi,
                         const char *Context) {
  EXPECT_EQ(Tree.estimateRange(Lo, Hi), 0u)
      << Context << " on [" << Lo << ", " << Hi << "]";
  RapTree::RangeBounds Bounds = Tree.estimateRangeBounds(Lo, Hi);
  EXPECT_EQ(Bounds.Lower, 0u) << Context << " on [" << Lo << ", " << Hi << "]";
  EXPECT_EQ(Bounds.Upper, straddlingCounts(Tree.root(), Lo, Hi))
      << Context << " on [" << Lo << ", " << Hi << "]";
  return Bounds.Upper;
}

} // namespace

TEST(RangeFenceTree, UntouchedRegionsAreProvablyCold) {
  RapTree Tree(smallConfig());
  for (uint64_t I = 0; I != 2000; ++I)
    Tree.addPoint(0x1000 + (I % 64));

  uint64_t Upper = expectUntouched(Tree, 0x8000, 0xffff, "live tree");
  expectUntouched(Tree, 0x9abc, 0x9abc, "live tree, unit range");
  // Next to the hot band, several levels of ancestors straddle.
  uint64_t NearUpper = expectUntouched(Tree, 0x1100, 0x1fff, "live tree");
  EXPECT_GT(NearUpper, Upper);
  std::unique_ptr<RapTree> Restored = ProfileSnapshot::capture(Tree).restore();
  ASSERT_NE(Restored, nullptr);
  EXPECT_EQ(expectUntouched(*Restored, 0x8000, 0xffff, "restored"), Upper);
  EXPECT_EQ(expectUntouched(*Restored, 0x1100, 0x1fff, "restored"), NearUpper);

  // The hot region is not cold, and the full universe holds every
  // event (the root's own counter always counts there).
  EXPECT_GT(Tree.estimateRange(0x1000, 0x1040), 0u);
  EXPECT_EQ(Tree.estimateRange(0, 0xffff), Tree.numEvents());
  EXPECT_EQ(Restored->estimateRange(0, 0xffff), Tree.numEvents());
}

TEST(RangeFenceTree, EmptyTreeIsColdEverywhere) {
  RapTree Tree(smallConfig());
  EXPECT_EQ(expectUntouched(Tree, 0, 0xffff, "empty tree"), 0u);
  EXPECT_EQ(expectUntouched(Tree, 42, 42, "empty tree"), 0u);
  EXPECT_EQ(expectUntouched(Tree, 0x8000, 0xffff, "empty tree"), 0u);
  EXPECT_EQ(Tree.numNodes(), 1u);

  // A merge pass and absorbing another empty tree leave it empty.
  RapTree Other(smallConfig());
  Tree.mergeNow();
  Tree.absorb(Other);
  EXPECT_TRUE(Tree.subtreeSumsFresh());
  EXPECT_EQ(expectUntouched(Tree, 0, 0xffff, "after mergeNow + absorb"), 0u);
  EXPECT_EQ(expectUntouched(Tree, 42, 42, "after mergeNow + absorb"), 0u);
}

TEST(RangeFenceTree, MergeFoldsRegainColdness) {
  // Concentrate on [0, 0xff] with merges on: every block beyond it
  // estimates to 0 with its bracket on the straddling counters, both
  // while the merge passes run with the stream and once an explicit
  // pass has left the sum column fresh.
  RapConfig Config = smallConfig();
  Config.EnableMerges = true;
  RapTree Tree(Config);
  Rng R(7);
  for (uint64_t I = 0; I != 50000; ++I)
    Tree.addPoint(R.next() & 0xff);
  for (uint64_t Lo = 0x800; Lo < 0x10000; Lo += 0x800)
    expectUntouched(Tree, Lo, Lo + 0x7ff, "live tree");
  EXPECT_GT(Tree.estimateRange(0, 0xff), 0u);

  Tree.mergeNow();
  ASSERT_TRUE(Tree.subtreeSumsFresh());
  for (uint64_t Lo = 0x800; Lo < 0x10000; Lo += 0x800)
    expectUntouched(Tree, Lo, Lo + 0x7ff, "after mergeNow");
  EXPECT_GT(Tree.estimateRange(0, 0xff), 0u);
}

TEST(RangeFenceTree, AbsorbRebuildsTheCombinedFence) {
  RapTree A(smallConfig());
  RapTree B(smallConfig());
  for (uint64_t I = 0; I != 3000; ++I) {
    A.addPoint(0x0100 + (I % 32));
    B.addPoint(0xa000 + (I % 32));
  }
  expectUntouched(A, 0xa000, 0xafff, "before absorb");
  A.absorb(B);
  ASSERT_TRUE(A.subtreeSumsFresh());
  EXPECT_GT(A.estimateRange(0xa000, 0xafff), 0u);
  EXPECT_EQ(A.estimateRange(0, 0xffff), 6000u);
  // Regions neither tree touched still answer 0 after the union.
  expectUntouched(A, 0x4000, 0x7fff, "after absorb");
  expectUntouched(A, 0xc000, 0xffff, "after absorb");
}

TEST(RangeFenceTree, NodeSetRestoreDerivesTheFence) {
  // A tree restored from its node set answers from the counters it
  // was given.
  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Nodes = {
      {0x0000, 16, 10}, // root
      {0x4000, 14, 90}, // one warm quadrant
  };
  std::string Error;
  std::unique_ptr<RapTree> Tree =
      RapTree::fromNodeSet(smallConfig(), Nodes, 100, &Error);
  ASSERT_NE(Tree, nullptr) << Error;
  EXPECT_EQ(Tree->numNodes(), 2u);
  EXPECT_EQ(Tree->estimateRange(0x4000, 0x7fff), 90u);
  RapTree::RangeBounds Warm = Tree->estimateRangeBounds(0x4000, 0x7fff);
  EXPECT_EQ(Warm.Lower, 90u);
  EXPECT_EQ(Warm.Upper, 100u);
  // Only the root's counter can fall into the untouched half.
  EXPECT_EQ(expectUntouched(*Tree, 0x8000, 0xffff, "restored"), 10u);
  EXPECT_EQ(expectUntouched(*Tree, 0x8000, 0x8000, "restored"), 10u);
}
