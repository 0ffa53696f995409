//===- tests/core/ResourceBudgetTest.cpp - Node/byte budget governance ----===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance on RapTree: a configured node or byte budget is
/// never exceeded after any event, refusals and forced coarsening are
/// accounted in the pressure counters, the degraded estimate bound
/// (eps*n plus the charged degraded weight) still holds, and a budget
/// generous enough never to bind leaves the tree bit-identical to an
/// unbudgeted run.
///
//===----------------------------------------------------------------------===//

#include "core/MultiDimRap.h"
#include "core/RapTree.h"
#include "core/Serialization.h"
#include "support/Rng.h"
#include "verify/DifferentialOracle.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

using namespace rap;

namespace {

RapConfig budgetedConfig(uint64_t MaxNodes) {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.Epsilon = 0.01;
  Config.BranchFactor = 4;
  Config.MaxNodes = MaxNodes;
  return Config;
}

} // namespace

TEST(ResourceBudget, NodeBudgetNeverExceededPerEvent) {
  RapConfig Config = budgetedConfig(48);
  RapTree Tree(Config);
  Rng R(1);
  for (int I = 0; I != 20000; ++I) {
    Tree.addPoint(R.nextBelow(1u << 16));
    ASSERT_LE(Tree.numNodes(), 48u) << "after event " << I;
  }
  // The budget had to bind for this stream; the counters must say so.
  const TreePressure &P = Tree.pressure();
  EXPECT_EQ(P.NodeBudget, 48u);
  EXPECT_GT(P.BudgetHits, 0u);
  EXPECT_GT(P.ForcedMergePasses, 0u);
  EXPECT_GT(P.DegradedWeight, 0u);
  EXPECT_TRUE(TreeInvariants::audit(Tree).empty());
}

TEST(ResourceBudget, ForcedPassThenSplitKeepsSumColumnTruthful) {
  // A forced merge pass inside addPoint refreshes the subtree-sum
  // column and marks it fresh; the split that follows in the same
  // addPoint must leave it exact (the new children start at zero).
  // Scheduled merges are off, so the forced pass is the only refresh.
  RapConfig Config = budgetedConfig(48);
  Config.EnableMerges = false;
  RapTree Tree(Config);
  Rng R(3);
  uint64_t Hits = 0;
  for (int I = 0; I != 20000; ++I) {
    uint64_t Passes = Tree.forcedMergePasses();
    uint64_t Splits = Tree.numSplits();
    Tree.addPoint(R.nextBelow(1u << 16));
    if (Tree.forcedMergePasses() == Passes || Tree.numSplits() == Splits)
      continue;
    ++Hits;
    ASSERT_TRUE(Tree.subtreeSumsFresh()) << "after event " << I;
    std::vector<InvariantViolation> Violations = TreeInvariants::audit(Tree);
    ASSERT_TRUE(Violations.empty())
        << "after event " << I << "\n" << TreeInvariants::render(Violations);
  }
  EXPECT_GT(Hits, 0u) << "no forced pass was followed by a split";
  Tree.addPoint(7);
  EXPECT_FALSE(Tree.subtreeSumsFresh()) << "an update must clear the bit";
}

TEST(ResourceBudget, ByteBudgetTranslatesToNodes) {
  // MaxMemoryBytes is floor-divided by the per-node arena cost; both
  // caps set takes the tighter one.
  RapConfig Config = budgetedConfig(0);
  Config.MaxMemoryBytes = 4096;
  EXPECT_EQ(Config.effectiveNodeBudget(), 4096u / 16u);
  Config.MaxNodes = 100;
  EXPECT_EQ(Config.effectiveNodeBudget(), 100u);
  Config.MaxNodes = 1000;
  EXPECT_EQ(Config.effectiveNodeBudget(), 4096u / 16u);

  RapTree Tree(Config);
  Rng R(2);
  for (int I = 0; I != 5000; ++I)
    Tree.addPoint(R.nextBelow(1u << 16));
  EXPECT_LE(Tree.numNodes(), Config.effectiveNodeBudget());
  EXPECT_TRUE(TreeInvariants::audit(Tree).empty());
}

TEST(ResourceBudget, GenerousBudgetIsBitIdenticalToUnbudgeted) {
  // A budget the stream never reaches must not perturb the structure:
  // same nodes, same estimates, zero pressure events.
  RapConfig Free = budgetedConfig(0);
  RapConfig Roomy = budgetedConfig(1u << 20);
  RapTree FreeTree(Free), RoomyTree(Roomy);
  Rng R(3);
  for (int I = 0; I != 20000; ++I) {
    uint64_t X = R.nextBelow(1u << 16);
    FreeTree.addPoint(X);
    RoomyTree.addPoint(X);
  }
  std::ostringstream FreeBytes, RoomyBytes;
  ASSERT_TRUE(ProfileSnapshot::capture(FreeTree).writeBinary(FreeBytes));
  ASSERT_TRUE(ProfileSnapshot::capture(RoomyTree).writeBinary(RoomyBytes));
  // Budget fields differ in the config record by construction; the
  // node sets must not.
  std::vector<ProfileSnapshot::Node> FreeNodes =
      ProfileSnapshot::capture(FreeTree).nodes();
  std::vector<ProfileSnapshot::Node> RoomyNodes =
      ProfileSnapshot::capture(RoomyTree).nodes();
  ASSERT_EQ(FreeNodes.size(), RoomyNodes.size());
  for (size_t I = 0; I != FreeNodes.size(); ++I) {
    EXPECT_EQ(FreeNodes[I].Lo, RoomyNodes[I].Lo);
    EXPECT_EQ(FreeNodes[I].WidthBits, RoomyNodes[I].WidthBits);
    EXPECT_EQ(FreeNodes[I].Count, RoomyNodes[I].Count);
  }
  EXPECT_EQ(RoomyTree.pressure().BudgetHits, 0u);
  EXPECT_EQ(RoomyTree.pressure().RefusedSplits, 0u);
  EXPECT_EQ(RoomyTree.degradedWeight(), 0u);
}

TEST(ResourceBudget, DegradedEstimatesStayWithinChargedBound) {
  // Under a tight budget the eps*n guarantee degrades, but only by the
  // weight the tree charged to DegradedWeight: the differential oracle
  // checks exactly that bound over its whole query battery.
  RapConfig Config = budgetedConfig(32);
  OracleOptions Options;
  Options.CrossCheckReference = false;
  DifferentialOracle Oracle(Config, Options);
  Rng R(4);
  for (int I = 0; I != 30000; ++I)
    Oracle.addPoint(R.nextBelow(1u << 16));
  Rng QueryRng(44);
  Oracle.checkNow(QueryRng);
  for (const InvariantViolation &V : Oracle.violations())
    ADD_FAILURE() << V.Invariant << ": " << V.Detail;
  EXPECT_GT(Oracle.tree().degradedWeight(), 0u);
}

TEST(ResourceBudget, ChurnRearrivalsAreCharged) {
  // Regression for the fault-fuzzer failure: events that land on a
  // node already past the split threshold (because a forced pass
  // reclaimed its children) stay recorded coarse even when the
  // re-split succeeds, so they must be charged to DegradedWeight.
  // All-distinct values under a tight budget make this the dominant
  // degradation mode — the refusal counter alone stays near zero.
  RapConfig Config;
  Config.RangeBits = 24;
  Config.Epsilon = 0.0074;
  Config.BranchFactor = 16;
  Config.MaxNodes = 64;
  RapTree Tree(Config);
  for (uint64_t I = 0; I != 4096; ++I)
    Tree.addPoint((I * 2654435761u) & 0xffffffu);
  ASSERT_GT(Tree.pressure().ForcedMergePasses, 0u);
  // The root's retained counter is the degradation; the charge must
  // cover it (minus the one threshold crossing the bound allows).
  EXPECT_GT(Tree.degradedWeight(),
            Tree.root().count() / 2);
}

TEST(ResourceBudget, AbsorbEnforcesBudgetAfterUnion) {
  // The structural union can overshoot the cap in one step; absorb
  // must coarsen back under it before returning.
  RapConfig Free = budgetedConfig(0);
  RapConfig Tight = budgetedConfig(40);
  RapTree Shard(Free), Merged(Tight);
  Rng R(5);
  for (int I = 0; I != 10000; ++I)
    Shard.addPoint(R.nextBelow(1u << 16));
  ASSERT_GT(Shard.numNodes(), 40u);
  Merged.absorb(Shard);
  EXPECT_LE(Merged.numNodes(), 40u);
  EXPECT_EQ(Merged.numEvents(), Shard.numEvents());
  EXPECT_TRUE(TreeInvariants::audit(Merged).empty());
}

TEST(ResourceBudget, RestoreEnforcesBudget) {
  // A snapshot captured under a roomy budget restored into the same
  // config still fits; the invariant audit cross-checks numNodes
  // against the config-implied budget either way.
  RapConfig Config = budgetedConfig(64);
  RapTree Tree(Config);
  Rng R(6);
  for (int I = 0; I != 8000; ++I)
    Tree.addPoint(R.nextBelow(1u << 16));
  ASSERT_LE(Tree.numNodes(), 64u);
  std::unique_ptr<RapTree> Restored = ProfileSnapshot::capture(Tree).restore();
  ASSERT_NE(Restored, nullptr);
  EXPECT_LE(Restored->numNodes(), 64u);
  EXPECT_EQ(Restored->numEvents(), Tree.numEvents());
  EXPECT_TRUE(TreeInvariants::audit(*Restored).empty());
}

TEST(ResourceBudget, MdTreeHonorsBudget) {
  MdRapConfig Config;
  Config.RangeBits = 10;
  Config.Epsilon = 0.02;
  Config.MaxNodes = 64;
  MdRapTree Tree(Config);
  Rng R(7);
  for (int I = 0; I != 20000; ++I) {
    Tree.addPoint(R.nextBelow(1u << 10), R.nextBelow(1u << 10));
    ASSERT_LE(Tree.numNodes(), 64u) << "after event " << I;
  }
  const TreePressure &P = Tree.pressure();
  EXPECT_GT(P.BudgetHits, 0u);
  EXPECT_GT(P.DegradedWeight, 0u);
}

TEST(ResourceBudget, PressureCountersStartZero) {
  RapTree Tree(budgetedConfig(128));
  const TreePressure &P = Tree.pressure();
  EXPECT_EQ(P.NodeBudget, 128u);
  EXPECT_EQ(P.BudgetHits, 0u);
  EXPECT_EQ(P.RefusedSplits, 0u);
  EXPECT_EQ(P.ForcedMergePasses, 0u);
  EXPECT_EQ(P.ReclaimedNodes, 0u);
  EXPECT_EQ(P.CoarsenLevel, 0u);
  EXPECT_EQ(P.DegradedWeight, 0u);
  EXPECT_EQ(P.AllocFailures, 0u);
}
