//===- tests/integration/SessionWorkflowTest.cpp - Whole system ----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the complete user-facing workflow in one test: a
/// multi-profile session over a benchmark run (the Sec 3.2 "profiling
/// multiple events simultaneously"), snapshot + serialization of every
/// profile, offline analysis of the stored profiles, and aggregation
/// of shard profiles from a split stream.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/RapProfiler.h"
#include "core/Serialization.h"
#include "trace/ProgramModel.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rap;

namespace {

RapConfig configFor(unsigned RangeBits, double Epsilon = 0.02) {
  RapConfig Config;
  Config.RangeBits = RangeBits;
  Config.Epsilon = Epsilon;
  return Config;
}

} // namespace

TEST(SessionWorkflow, MultiProfileCollectionAndOfflineAnalysis) {
  // 1. Collect three simultaneous profiles from one pass.
  RapSession Session;
  Session.addProfile("code", configFor(ProgramModel::PcRangeBits));
  Session.addProfile("values", configFor(ProgramModel::ValueRangeBits));
  Session.addProfile("addresses", configFor(ProgramModel::AddressRangeBits));

  ProgramModel Model(getBenchmarkSpec("gzip"), 31);
  const uint64_t NumBlocks = 300000;
  for (uint64_t I = 0; I != NumBlocks; ++I) {
    TraceRecord Record = Model.next();
    Session.getProfile("code").addPoint(Record.BlockPc,
                                        Record.BlockLength);
    if (Record.HasLoad) {
      Session.getProfile("values").addPoint(Record.LoadValue);
      Session.getProfile("addresses").addPoint(Record.LoadAddress);
    }
  }

  // 2. Every profile found hot structure and conserved its stream.
  for (const std::string &Name : Session.profileNames()) {
    const RapTree &Tree = Session.getProfile(Name).tree();
    EXPECT_EQ(Tree.root().subtreeWeight(), Tree.numEvents()) << Name;
    EXPECT_FALSE(Tree.extractHotRanges(0.10).empty()) << Name;
  }

  // 3. Serialize all three; reload; queries must be preserved.
  for (const std::string &Name : Session.profileNames()) {
    const RapTree &Tree = Session.getProfile(Name).tree();
    ProfileSnapshot Snapshot = ProfileSnapshot::capture(Tree);
    std::stringstream Stream;
    ASSERT_TRUE(Snapshot.writeBinary(Stream));
    std::string Error;
    std::unique_ptr<ProfileSnapshot> Loaded =
        ProfileSnapshot::readBinary(Stream, &Error);
    ASSERT_TRUE(Loaded) << Name << ": " << Error;
    EXPECT_EQ(Loaded->numEvents(), Tree.numEvents()) << Name;
    uint64_t Mask = Tree.config().RangeBits == 64
                        ? ~uint64_t(0)
                        : (uint64_t(1) << Tree.config().RangeBits) - 1;
    EXPECT_EQ(Loaded->restore()->estimateRange(0, Mask), Tree.numEvents())
        << Name;
  }

  // 4. Offline coverage analysis on the stored value profile matches
  //    the live tree's.
  const RapTree &Values = Session.getProfile("values").tree();
  ProfileSnapshot ValueSnapshot = ProfileSnapshot::capture(Values);
  std::unique_ptr<RapTree> Restored = ValueSnapshot.restore();
  auto CurveLive = coverageByWidth(Values, 0.1, {0, 16, 32, 64});
  auto CurveStored = coverageByWidth(*Restored, 0.1, {0, 16, 32, 64});
  ASSERT_EQ(CurveLive.size(), CurveStored.size());
  for (size_t I = 0; I != CurveLive.size(); ++I)
    EXPECT_DOUBLE_EQ(CurveLive[I].CoveragePercent,
                     CurveStored[I].CoveragePercent);
}

TEST(SessionWorkflow, ShardedCollectionMatchesMonolithic) {
  // Split one stream across 4 shard trees, absorb them, and compare
  // whole-range behaviour with a single tree fed everything.
  RapConfig Config = configFor(ProgramModel::ValueRangeBits, 0.05);
  RapTree Monolithic(Config);
  std::vector<std::unique_ptr<RapTree>> Shards;
  for (int S = 0; S != 4; ++S)
    Shards.push_back(std::make_unique<RapTree>(Config));

  ProgramModel Model(getBenchmarkSpec("vortex"), 37);
  uint64_t Loads = 0;
  for (uint64_t I = 0; I != 400000; ++I) {
    TraceRecord Record = Model.next();
    if (!Record.HasLoad)
      continue;
    Monolithic.addPoint(Record.LoadValue);
    Shards[Loads % 4]->addPoint(Record.LoadValue);
    ++Loads;
  }

  RapTree Combined(Config);
  for (const auto &Shard : Shards)
    Combined.absorb(*Shard);

  EXPECT_EQ(Combined.numEvents(), Monolithic.numEvents());
  // Hot sets agree: every monolithic hot range is (covered by) a
  // combined estimate within twice the epsilon budget.
  double Slack = 2 * Config.Epsilon * static_cast<double>(Loads) + 1e-9;
  for (const HotRange &H : Monolithic.extractHotRanges(0.10)) {
    uint64_t Mono = Monolithic.estimateRange(H.Lo, H.Hi);
    uint64_t Comb = Combined.estimateRange(H.Lo, H.Hi);
    double Diff = Mono > Comb ? static_cast<double>(Mono - Comb)
                              : static_cast<double>(Comb - Mono);
    EXPECT_LE(Diff, Slack) << "[" << H.Lo << ", " << H.Hi << "]";
  }
}

TEST(SessionWorkflow, PhaseDetectionOverSessionSnapshots) {
  // Snapshot the code profile at intervals; the divergence between the
  // first and last snapshot exceeds the divergence between adjacent
  // ones (phases drift over the run).
  RapProfiler Code(configFor(ProgramModel::PcRangeBits));
  ProgramModel Model(getBenchmarkSpec("parser"), 41);
  std::vector<ProfileSnapshot> Snapshots;
  for (int Chunk = 0; Chunk != 5; ++Chunk) {
    for (int I = 0; I != 200000; ++I)
      Code.addPoint(Model.next().BlockPc);
    Snapshots.push_back(ProfileSnapshot::capture(Code.tree()));
  }
  double Adjacent = profileDivergence(Snapshots[3], Snapshots[4]);
  double FarApart = profileDivergence(Snapshots[0], Snapshots[4]);
  EXPECT_GE(FarApart, Adjacent);
}
