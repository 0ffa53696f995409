//===- tests/core/SerializationTest.cpp - Persistence tests --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Serialization.h"

#include "support/Crc32.h"
#include "support/Rng.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

using namespace rap;

namespace {

RapConfig testConfig() {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.Epsilon = 0.05;
  return Config;
}

std::unique_ptr<RapTree> makePopulatedTree(uint64_t Seed = 1,
                                           int Events = 30000) {
  auto Tree = std::make_unique<RapTree>(testConfig());
  Rng R(Seed);
  for (int I = 0; I != Events; ++I) {
    if (R.nextBernoulli(0.3))
      Tree->addPoint(0x1234);
    else
      Tree->addPoint(R.nextBelow(1 << 16));
  }
  return Tree;
}

} // namespace

TEST(ProfileSnapshot, CaptureMatchesTree) {
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree();
  RapTree &Tree = *TreePtr;
  ProfileSnapshot Snapshot = ProfileSnapshot::capture(Tree);
  EXPECT_EQ(Snapshot.numEvents(), Tree.numEvents());
  EXPECT_EQ(Snapshot.numNodes(), Tree.numNodes());
  EXPECT_EQ(Snapshot.nodes()[0].Lo, 0u);
  EXPECT_EQ(Snapshot.nodes()[0].WidthBits, 16u);
}

TEST(ProfileSnapshot, RestoreReproducesQueries) {
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree();
  RapTree &Tree = *TreePtr;
  ProfileSnapshot Snapshot = ProfileSnapshot::capture(Tree);
  std::unique_ptr<RapTree> Restored = Snapshot.restore();
  ASSERT_TRUE(Restored);
  EXPECT_EQ(Restored->numEvents(), Tree.numEvents());
  EXPECT_EQ(Restored->numNodes(), Tree.numNodes());
  for (auto [Lo, Hi] : {std::pair<uint64_t, uint64_t>{0, 0xffff},
                        {0x1234, 0x1234},
                        {0x1000, 0x1fff},
                        {0x8000, 0xffff}})
    EXPECT_EQ(Restored->estimateRange(Lo, Hi), Tree.estimateRange(Lo, Hi));
  // Hot ranges coincide too.
  auto HotA = Tree.extractHotRanges(0.1);
  auto HotB = Restored->extractHotRanges(0.1);
  ASSERT_EQ(HotA.size(), HotB.size());
  for (size_t I = 0; I != HotA.size(); ++I) {
    EXPECT_EQ(HotA[I].Lo, HotB[I].Lo);
    EXPECT_EQ(HotA[I].ExclusiveWeight, HotB[I].ExclusiveWeight);
  }
}

TEST(ProfileSnapshot, RestoredTreeCanContinueProfiling) {
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree();
  RapTree &Tree = *TreePtr;
  ProfileSnapshot Snapshot = ProfileSnapshot::capture(Tree);
  std::unique_ptr<RapTree> Restored = Snapshot.restore();
  uint64_t EventsBefore = Restored->numEvents();
  for (int I = 0; I != 1000; ++I)
    Restored->addPoint(7);
  EXPECT_EQ(Restored->numEvents(), EventsBefore + 1000);
  EXPECT_EQ(Restored->root().subtreeWeight(), Restored->numEvents());
}

TEST(ProfileSnapshot, BinaryRoundTrip) {
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree();
  RapTree &Tree = *TreePtr;
  ProfileSnapshot Original = ProfileSnapshot::capture(Tree);
  std::stringstream Stream;
  ASSERT_TRUE(Original.writeBinary(Stream));
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Loaded =
      ProfileSnapshot::readBinary(Stream, &Error);
  ASSERT_TRUE(Loaded) << Error;
  EXPECT_TRUE(*Loaded == Original);
}

TEST(ProfileSnapshot, TextRoundTrip) {
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree(42);
  RapTree &Tree = *TreePtr;
  ProfileSnapshot Original = ProfileSnapshot::capture(Tree);
  std::stringstream Stream;
  ASSERT_TRUE(Original.writeText(Stream));
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Loaded =
      ProfileSnapshot::readText(Stream, &Error);
  ASSERT_TRUE(Loaded) << Error;
  EXPECT_TRUE(*Loaded == Original);
}

TEST(ProfileSnapshot, BinaryRejectsBadMagic) {
  std::stringstream Stream;
  Stream << "NOPE garbage";
  std::string Error;
  EXPECT_EQ(ProfileSnapshot::readBinary(Stream, &Error), nullptr);
  EXPECT_FALSE(Error.empty());
}

TEST(ProfileSnapshot, BinaryRejectsTruncation) {
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree();
  RapTree &Tree = *TreePtr;
  ProfileSnapshot Original = ProfileSnapshot::capture(Tree);
  std::stringstream Stream;
  ASSERT_TRUE(Original.writeBinary(Stream));
  std::string Full = Stream.str();
  // Truncate at several points; every prefix must be rejected cleanly.
  for (size_t Cut : {size_t(3), size_t(8), size_t(40), Full.size() - 5}) {
    std::stringstream Truncated(Full.substr(0, Cut));
    std::string Error;
    EXPECT_EQ(ProfileSnapshot::readBinary(Truncated, &Error), nullptr)
        << "cut at " << Cut;
  }
}

TEST(ProfileSnapshot, TextRejectsGarbage) {
  std::string Error;
  std::stringstream NotAProfile("hello world\n1 2 3\n");
  EXPECT_EQ(ProfileSnapshot::readText(NotAProfile, &Error), nullptr);
  std::stringstream Empty;
  EXPECT_EQ(ProfileSnapshot::readText(Empty, &Error), nullptr);
}

TEST(RapTreeFromNodeSet, RejectsMalformedNodeSets) {
  RapConfig Config = testConfig();
  using Triple = std::tuple<uint64_t, uint8_t, uint64_t>;
  std::string Error;

  // Empty set.
  EXPECT_EQ(RapTree::fromNodeSet(Config, {}, 0, &Error), nullptr);

  // Wrong root.
  EXPECT_EQ(RapTree::fromNodeSet(Config, {Triple{0, 8, 5}}, 5, &Error),
            nullptr);

  // Misaligned child.
  EXPECT_EQ(RapTree::fromNodeSet(
                Config, {Triple{0, 16, 0}, Triple{3, 14, 1}}, 1, &Error),
            nullptr);

  // Width inconsistent with b = 4 (child of 16-bit root must be 14).
  EXPECT_EQ(RapTree::fromNodeSet(
                Config, {Triple{0, 16, 0}, Triple{0, 13, 1}}, 1, &Error),
            nullptr);

  // Duplicate range.
  EXPECT_EQ(
      RapTree::fromNodeSet(
          Config, {Triple{0, 16, 0}, Triple{0, 14, 1}, Triple{0, 14, 1}},
          2, &Error),
      nullptr);

  // Count mismatch.
  EXPECT_EQ(RapTree::fromNodeSet(
                Config, {Triple{0, 16, 3}, Triple{0, 14, 1}}, 99, &Error),
            nullptr);

  // A well-formed set loads.
  std::unique_ptr<RapTree> Good = RapTree::fromNodeSet(
      Config, {Triple{0, 16, 3}, Triple{0, 14, 1}, Triple{0x4000, 14, 2}},
      6, &Error);
  ASSERT_TRUE(Good) << Error;
  EXPECT_EQ(Good->numNodes(), 3u);
  EXPECT_EQ(Good->numEvents(), 6u);
  EXPECT_EQ(Good->estimateRange(0, 0x3fff), 1u);
}

namespace {

/// Preorder (lo, width, count) triples of a live tree, for bit-exact
/// structural comparison of two trees.
std::vector<std::tuple<uint64_t, uint8_t, uint64_t>>
treeTriples(const RapTree &Tree) {
  std::vector<ProfileSnapshot::Node> Nodes =
      ProfileSnapshot::capture(Tree).nodes();
  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Triples;
  for (const ProfileSnapshot::Node &N : Nodes)
    Triples.emplace_back(N.Lo, N.WidthBits, N.Count);
  return Triples;
}

} // namespace

TEST(ProfileSnapshot, RoundTripMidMergeEpochPreservesSchedule) {
  // Stop in the middle of a merge epoch: the next merge is scheduled
  // well past the current event count. A restored twin must not only
  // answer the same queries, it must keep behaving identically —
  // which requires restoring the merge schedule position, not
  // re-deriving it from the initial interval.
  RapConfig Config = testConfig();
  Config.InitialMergeInterval = 512;
  RapTree Tree(Config);
  Rng R(77);
  for (int I = 0; I != 20000; ++I)
    Tree.addPoint(R.nextBelow(1 << 16));
  ASSERT_GT(Tree.nextMergeAt(), Tree.numEvents());
  // The follow-on stream below must cross the scheduled merge so the
  // comparison proves merges fire at the same point in both trees.
  ASSERT_LT(Tree.nextMergeAt(), Tree.numEvents() + 15000)
      << "stream too short to stop mid-epoch";

  for (bool Binary : {true, false}) {
    ProfileSnapshot Original = ProfileSnapshot::capture(Tree);
    std::stringstream Stream;
    std::string Error;
    std::unique_ptr<ProfileSnapshot> Loaded;
    if (Binary) {
      ASSERT_TRUE(Original.writeBinary(Stream));
      Loaded = ProfileSnapshot::readBinary(Stream, &Error);
    } else {
      ASSERT_TRUE(Original.writeText(Stream));
      Loaded = ProfileSnapshot::readText(Stream, &Error);
    }
    ASSERT_TRUE(Loaded) << Error;
    EXPECT_EQ(Loaded->nextMergeAt(), Tree.nextMergeAt());

    std::unique_ptr<RapTree> Twin = Loaded->restore();
    ASSERT_TRUE(Twin);
    EXPECT_EQ(Twin->nextMergeAt(), Tree.nextMergeAt());
    std::vector<InvariantViolation> Vs = TreeInvariants::audit(*Twin);
    EXPECT_TRUE(Vs.empty()) << TreeInvariants::render(Vs);

    // Feed both trees the same 15000 further events — enough to cross
    // the scheduled merge: it must fire at the same point in both, so
    // the node sets stay bit-identical.
    std::unique_ptr<RapTree> Reference =
        ProfileSnapshot::capture(Tree).restore();
    Rng Follow(88);
    for (int I = 0; I != 15000; ++I) {
      uint64_t X = Follow.nextBelow(1 << 16);
      Reference->addPoint(X);
      Twin->addPoint(X);
    }
    EXPECT_GE(Reference->numMergePasses(), 1u)
        << "follow-on stream never crossed the scheduled merge";
    EXPECT_EQ(Reference->numMergePasses(), Twin->numMergePasses());
    EXPECT_EQ(Reference->nextMergeAt(), Twin->nextMergeAt());
    EXPECT_EQ(treeTriples(*Reference), treeTriples(*Twin));
    Rng QueryRng(99);
    for (int I = 0; I != 50; ++I) {
      uint64_t A = QueryRng.nextBelow(1 << 16);
      uint64_t B = QueryRng.nextBelow(1 << 16);
      if (A > B)
        std::swap(A, B);
      ASSERT_EQ(Reference->estimateRange(A, B), Twin->estimateRange(A, B));
    }
  }
}

TEST(ProfileSnapshot, BinaryV1StillLoads) {
  // Hand-rolled version-1 header (no nextMergeAt field): old profiles
  // must keep loading, with the schedule re-derived.
  std::string Bytes;
  auto PutU32 = [&Bytes](uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutU64 = [&Bytes](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutF64 = [&PutU64](double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    PutU64(Bits);
  };
  Bytes += "RAPP";
  PutU32(1);         // version 1
  PutU32(16);        // RangeBits
  PutU32(4);         // BranchFactor
  PutF64(0.05);      // Epsilon
  PutF64(2.0);       // MergeRatio
  PutU64(1024);      // InitialMergeInterval
  PutF64(1.0);       // MergeThresholdScale
  Bytes.push_back(1); // EnableMerges
  PutU64(6);         // NumEvents (no nextMergeAt in v1)
  PutU64(3);         // NumNodes
  auto PutNode = [&](uint64_t Lo, uint8_t Width, uint64_t Count) {
    PutU64(Lo);
    Bytes.push_back(static_cast<char>(Width));
    PutU64(Count);
  };
  PutNode(0, 16, 3);
  PutNode(0, 14, 1);
  PutNode(0x4000, 14, 2);

  std::stringstream Stream(Bytes);
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Loaded =
      ProfileSnapshot::readBinary(Stream, &Error);
  ASSERT_TRUE(Loaded) << Error;
  EXPECT_EQ(Loaded->numEvents(), 6u);
  EXPECT_EQ(Loaded->numNodes(), 3u);
  std::unique_ptr<RapTree> Tree = Loaded->restore();
  ASSERT_TRUE(Tree);
  // The schedule was re-derived past the current event count.
  EXPECT_GT(Tree->nextMergeAt(), Tree->numEvents());
  EXPECT_EQ(Tree->estimateRange(0, 0x3fff), 1u);
}

TEST(ProfileSnapshot, SnapshotQueriesMatchTreeQueries) {
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree(7);
  RapTree &Tree = *TreePtr;
  std::unique_ptr<RapTree> Restored = ProfileSnapshot::capture(Tree).restore();
  ASSERT_TRUE(Restored);
  EXPECT_EQ(Restored->estimateRange(0, 0xffff), Tree.estimateRange(0, 0xffff));
  EXPECT_EQ(Restored->extractHotRanges(0.2).size(),
            Tree.extractHotRanges(0.2).size());
}

TEST(ProfileSnapshot, ChecksumCatchesEverySingleByteFlip) {
  // Exhaustive one-byte corruption sweep: flipping any byte of a v3
  // profile (body, CRC footer, or tail magic) must make the reader
  // refuse it — the CRC covers everything up to the footer and the
  // footer validates itself.
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree(11, 2000);
  ProfileSnapshot Original = ProfileSnapshot::capture(*TreePtr);
  std::stringstream Stream;
  ASSERT_TRUE(Original.writeBinary(Stream));
  std::string Full = Stream.str();
  for (size_t I = 0; I != Full.size(); ++I) {
    std::string Corrupt = Full;
    Corrupt[I] = static_cast<char>(Corrupt[I] ^ 0x41);
    std::stringstream In(Corrupt);
    std::string Error;
    ProfileIoError Kind = ProfileIoError::None;
    ASSERT_EQ(ProfileSnapshot::readBinary(In, &Error, &Kind), nullptr)
        << "flip at byte " << I << " was accepted";
    ASSERT_EQ(Kind, ProfileIoError::Corrupt) << "flip at byte " << I;
    ASSERT_FALSE(Error.empty());
  }
}

TEST(ProfileSnapshot, BudgetConfigRoundTrips) {
  RapConfig Config = testConfig();
  Config.MaxNodes = 96;
  Config.MaxMemoryBytes = 1u << 20;
  RapTree Tree(Config);
  Rng R(12);
  for (int I = 0; I != 20000; ++I)
    Tree.addPoint(R.nextBelow(1 << 16));
  ProfileSnapshot Original = ProfileSnapshot::capture(Tree);
  for (bool Binary : {true, false}) {
    std::stringstream Stream;
    std::string Error;
    std::unique_ptr<ProfileSnapshot> Loaded;
    if (Binary) {
      ASSERT_TRUE(Original.writeBinary(Stream));
      Loaded = ProfileSnapshot::readBinary(Stream, &Error);
    } else {
      ASSERT_TRUE(Original.writeText(Stream));
      Loaded = ProfileSnapshot::readText(Stream, &Error);
    }
    ASSERT_TRUE(Loaded) << Error;
    EXPECT_TRUE(*Loaded == Original);
    EXPECT_EQ(Loaded->config().MaxNodes, 96u);
    EXPECT_EQ(Loaded->config().MaxMemoryBytes, 1u << 20);
    std::unique_ptr<RapTree> Restored = Loaded->restore();
    ASSERT_TRUE(Restored);
    EXPECT_LE(Restored->numNodes(), Restored->pressure().NodeBudget);
  }
}

TEST(ProfileSnapshot, BinaryV2StillLoads) {
  // Hand-rolled version-2 image (nextMergeAt, but no budget fields and
  // no CRC footer): pre-v3 profiles must keep loading.
  std::string Bytes;
  auto PutU32 = [&Bytes](uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutU64 = [&Bytes](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutF64 = [&PutU64](double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    PutU64(Bits);
  };
  Bytes += "RAPP";
  PutU32(2);          // version 2
  PutU32(16);         // RangeBits
  PutU32(4);          // BranchFactor
  PutF64(0.05);       // Epsilon
  PutF64(2.0);        // MergeRatio
  PutU64(1024);       // InitialMergeInterval
  PutF64(1.0);        // MergeThresholdScale
  Bytes.push_back(1); // EnableMerges
  PutU64(6);          // NumEvents
  PutU64(4096);       // NextMergeAt (v2 addition)
  PutU64(3);          // NumNodes
  auto PutNode = [&](uint64_t Lo, uint8_t Width, uint64_t Count) {
    PutU64(Lo);
    Bytes.push_back(static_cast<char>(Width));
    PutU64(Count);
  };
  PutNode(0, 16, 3);
  PutNode(0, 14, 1);
  PutNode(0x4000, 14, 2);

  std::stringstream Stream(Bytes);
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Loaded =
      ProfileSnapshot::readBinary(Stream, &Error);
  ASSERT_TRUE(Loaded) << Error;
  EXPECT_EQ(Loaded->numEvents(), 6u);
  EXPECT_EQ(Loaded->nextMergeAt(), 4096u);
  EXPECT_EQ(Loaded->config().MaxNodes, 0u) << "v2 has no budget fields";
}

TEST(ProfileSnapshot, BinaryRejectsImplausibleNodeCount) {
  // A corrupted node-count field must not make the reader pre-reserve
  // gigabytes or spin: the reserve is capped and the per-node reads
  // hit the stream's end almost immediately. Hand-rolled v2 (no CRC)
  // so the count lie is what the reader actually sees.
  std::string Bytes;
  auto PutU32 = [&Bytes](uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutU64 = [&Bytes](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutF64 = [&PutU64](double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    PutU64(Bits);
  };
  Bytes += "RAPP";
  PutU32(2);
  PutU32(16);
  PutU32(4);
  PutF64(0.05);
  PutF64(2.0);
  PutU64(1024);
  PutF64(1.0);
  Bytes.push_back(1);
  PutU64(6);
  PutU64(4096);
  PutU64(uint64_t(1) << 60); // absurd node count, then no node data
  std::stringstream Stream(Bytes);
  std::string Error;
  ProfileIoError Kind = ProfileIoError::None;
  EXPECT_EQ(ProfileSnapshot::readBinary(Stream, &Error, &Kind), nullptr);
  EXPECT_EQ(Kind, ProfileIoError::Corrupt);
  EXPECT_FALSE(Error.empty());
}

TEST(ProfileSnapshot, SaveFileAtomicAndLoadFileRoundTrip) {
  std::string Path = ::testing::TempDir() + "snapshot_atomic.rap";
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree(14);
  ProfileSnapshot Original = ProfileSnapshot::capture(*TreePtr);
  std::string Error;
  ProfileIoError Kind = ProfileIoError::None;
  ASSERT_TRUE(Original.saveFileAtomic(Path, &Error, &Kind)) << Error;
  // No temp file left behind.
  std::ifstream Temp(Path + ".tmp");
  EXPECT_FALSE(Temp.good());
  std::unique_ptr<ProfileSnapshot> Loaded =
      ProfileSnapshot::loadFile(Path, &Error, &Kind);
  ASSERT_TRUE(Loaded) << Error;
  EXPECT_TRUE(*Loaded == Original);
}

TEST(ProfileSnapshot, LoadFileClassifiesErrors) {
  std::string Error;
  ProfileIoError Kind = ProfileIoError::None;
  // Missing file: I/O, not corruption.
  EXPECT_EQ(ProfileSnapshot::loadFile(::testing::TempDir() + "nope.rap",
                                      &Error, &Kind),
            nullptr);
  EXPECT_EQ(Kind, ProfileIoError::Io);

  // Trailing bytes after a valid profile: corruption (strict framing).
  std::string Path = ::testing::TempDir() + "snapshot_trailing.rap";
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree(15, 1000);
  ProfileSnapshot Original = ProfileSnapshot::capture(*TreePtr);
  {
    std::stringstream Stream;
    ASSERT_TRUE(Original.writeBinary(Stream));
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Stream.str() << "extra";
  }
  EXPECT_EQ(ProfileSnapshot::loadFile(Path, &Error, &Kind), nullptr);
  EXPECT_EQ(Kind, ProfileIoError::Corrupt);
  EXPECT_NE(Error.find("trailing"), std::string::npos) << Error;

  // A corrupt binary profile must NOT be reinterpreted as text.
  std::string Flipped = Path + ".flip";
  {
    std::stringstream Stream;
    ASSERT_TRUE(Original.writeBinary(Stream));
    std::string Bytes = Stream.str();
    Bytes[10] = static_cast<char>(Bytes[10] ^ 0x7f);
    std::ofstream Out(Flipped, std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }
  EXPECT_EQ(ProfileSnapshot::loadFile(Flipped, &Error, &Kind), nullptr);
  EXPECT_EQ(Kind, ProfileIoError::Corrupt);
}

namespace {

RapConfig admissionTestConfig() {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.Epsilon = 0.05;
  Config.EnableAdmission = true;
  Config.AdmissionCoarseness = 4.0;
  Config.AdmissionSeed = 0x5eedf00d;
  return Config;
}

std::unique_ptr<RapTree> makeAdmissionTree(int Events) {
  auto Tree = std::make_unique<RapTree>(admissionTestConfig());
  Rng R(17);
  for (int I = 0; I != Events; ++I) {
    if (R.nextBernoulli(0.3))
      Tree->addPoint(0x1234);
    else
      Tree->addPoint(R.nextBelow(1 << 16));
  }
  return Tree;
}

} // namespace

TEST(ProfileSnapshot, AdmissionStateRoundTripsBinaryAndText) {
  std::unique_ptr<RapTree> Tree = makeAdmissionTree(30000);
  ProfileSnapshot Original = ProfileSnapshot::capture(*Tree);
  EXPECT_EQ(Original.admissionRngState(), Tree->admissionRngState());
  EXPECT_EQ(Original.admissionDeferredWeight(),
            Tree->admissionDeferredWeight());
  EXPECT_EQ(Original.admissionDeniedSplits(),
            Tree->numAdmissionDeniedSplits());
  // The RNG must have moved off the seed (splits were due) for this
  // round-trip to prove anything.
  ASSERT_NE(Original.admissionRngState(),
            admissionTestConfig().AdmissionSeed);

  std::ostringstream Binary;
  ASSERT_TRUE(Original.writeBinary(Binary));
  std::istringstream BinaryIn(Binary.str());
  std::string Error;
  std::unique_ptr<ProfileSnapshot> FromBinary =
      ProfileSnapshot::readBinary(BinaryIn, &Error);
  ASSERT_TRUE(FromBinary) << Error;
  EXPECT_TRUE(*FromBinary == Original);

  std::ostringstream Text;
  ASSERT_TRUE(Original.writeText(Text));
  std::istringstream TextIn(Text.str());
  std::unique_ptr<ProfileSnapshot> FromText =
      ProfileSnapshot::readText(TextIn, &Error);
  ASSERT_TRUE(FromText) << Error;
  EXPECT_TRUE(*FromText == Original);
  EXPECT_EQ(FromText->config().EnableAdmission, true);
  EXPECT_EQ(FromText->config().AdmissionCoarseness, 4.0);
}

TEST(ProfileSnapshot, ResumedAdmissionTreeContinuesBitIdentically) {
  // Save at the halfway point, restore, and feed the second half: the
  // resumed tree must make the IDENTICAL admission decisions as the
  // uninterrupted control, which only holds if the RNG position (not
  // just the seed) survives the round-trip.
  const int Events = 30000;
  std::unique_ptr<RapTree> Whole = makeAdmissionTree(Events);

  std::unique_ptr<RapTree> Half = makeAdmissionTree(Events / 2);
  std::ostringstream Binary;
  ASSERT_TRUE(ProfileSnapshot::capture(*Half).writeBinary(Binary));
  std::istringstream In(Binary.str());
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Loaded =
      ProfileSnapshot::readBinary(In, &Error);
  ASSERT_TRUE(Loaded) << Error;
  std::unique_ptr<RapTree> Resumed = Loaded->restore();
  ASSERT_TRUE(Resumed);
  EXPECT_EQ(Resumed->admissionRngState(), Half->admissionRngState());

  // Replay the second half of the identical stream into the restored
  // tree (makeAdmissionTree's generator is deterministic).
  Rng R(17);
  for (int I = 0; I != Events; ++I) {
    uint64_t X = R.nextBernoulli(0.3) ? 0x1234 : R.nextBelow(1 << 16);
    if (I >= Events / 2)
      Resumed->addPoint(X);
  }
  EXPECT_EQ(Resumed->numAdmissionDeniedSplits(),
            Whole->numAdmissionDeniedSplits());
  EXPECT_EQ(Resumed->admissionDeferredWeight(),
            Whole->admissionDeferredWeight());
  EXPECT_EQ(Resumed->admissionRngState(), Whole->admissionRngState());
  std::ostringstream DumpWhole, DumpResumed;
  Whole->dump(DumpWhole);
  Resumed->dump(DumpResumed);
  EXPECT_EQ(DumpWhole.str(), DumpResumed.str());
}

TEST(ProfileSnapshot, BinaryV3StillLoadsWithAdmissionDefaults) {
  // Hand-rolled version-3 stream (budget fields + CRC footer, no
  // admission fields): it must load with admission off and the RNG
  // state initialized from the configured (default) seed.
  std::string Bytes;
  auto PutU32 = [&Bytes](uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutU64 = [&Bytes](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutF64 = [&PutU64](double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    PutU64(Bits);
  };
  Bytes += "RAPP";
  PutU32(3);          // version 3
  PutU32(16);         // RangeBits
  PutU32(4);          // BranchFactor
  PutF64(0.05);       // Epsilon
  PutF64(2.0);        // MergeRatio
  PutU64(1024);       // InitialMergeInterval
  PutF64(1.0);        // MergeThresholdScale
  Bytes.push_back(1); // EnableMerges
  PutU64(0);          // MaxNodes
  PutU64(0);          // MaxMemoryBytes
  PutU64(6);          // NumEvents
  PutU64(2048);       // NextMergeAt
  PutU64(3);          // NumNodes
  auto PutNode = [&](uint64_t Lo, uint8_t Width, uint64_t Count) {
    PutU64(Lo);
    Bytes.push_back(static_cast<char>(Width));
    PutU64(Count);
  };
  PutNode(0, 16, 3);
  PutNode(0, 14, 1);
  PutNode(0x4000, 14, 2);
  uint32_t Sum = crc32(Bytes.data(), Bytes.size());
  PutU32(Sum);
  Bytes += "PRAR";

  std::stringstream Stream(Bytes);
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Loaded =
      ProfileSnapshot::readBinary(Stream, &Error);
  ASSERT_TRUE(Loaded) << Error;
  EXPECT_FALSE(Loaded->config().EnableAdmission);
  EXPECT_EQ(Loaded->admissionRngState(), Loaded->config().AdmissionSeed);
  EXPECT_EQ(Loaded->admissionDeferredWeight(), 0u);
  EXPECT_EQ(Loaded->admissionDeniedSplits(), 0u);
  std::unique_ptr<RapTree> Tree = Loaded->restore();
  ASSERT_TRUE(Tree);
  EXPECT_EQ(Tree->numEvents(), 6u);
  EXPECT_EQ(Tree->nextMergeAt(), 2048u);
}

namespace {

/// FNV-1a over a byte string: pins encoder output without a literal.
uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Bytes) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

TEST(ProfileSnapshot, GoldenBytesOfASmallProfile) {
  // A profile whose every header field differs from its default,
  // written in version 4 exactly as the original one-call-per-field
  // writer produced it.
  std::stringstream Text(
      "rap-profile v4 bits=16 b=4 eps=0.05 q=2 interval=1024 scale=1.5 "
      "merges=1 nextmerge=4096 maxnodes=96 maxbytes=1048576 admit=1 "
      "coarse=0.25 aseed=77 arng=12345 adeferred=3 adenied=2\n"
      "events=6 nodes=3\n"
      "0 16 3\n"
      "0 14 1\n"
      "4000 14 2\n");
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Snapshot =
      ProfileSnapshot::readText(Text, &Error);
  ASSERT_TRUE(Snapshot) << Error;
  std::stringstream Stream;
  ASSERT_TRUE(Snapshot->writeBinary(Stream));
  const std::string Bytes = Stream.str();
  EXPECT_EQ(Bytes.size(), 189u);
  EXPECT_EQ(fnv1a(Bytes), 0xAC7A764361271113ull);
}

namespace {

/// A uniform 16-bit stream at eps 0.001: about 19k nodes, several of
/// readBinary's node chunks.
ProfileSnapshot captureMultiChunkProfile() {
  RapConfig Config = testConfig();
  Config.Epsilon = 0.001;
  RapTree Tree(Config);
  Rng R(5);
  for (int I = 0; I != 200000; ++I)
    Tree.addPoint(R.nextBelow(1 << 16));
  return ProfileSnapshot::capture(Tree);
}

} // namespace

TEST(ProfileSnapshot, SnapshotSpanningSeveralChunksRoundTrips) {
  ProfileSnapshot Original = captureMultiChunkProfile();
  ASSERT_GT(Original.numNodes(), 4 * ProfileSnapshot::ReadChunkNodes);
  std::stringstream Stream;
  ASSERT_TRUE(Original.writeBinary(Stream));
  const std::string Full = Stream.str();
  Stream << "next";
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Loaded =
      ProfileSnapshot::readBinary(Stream, &Error);
  ASSERT_TRUE(Loaded) << Error;
  EXPECT_TRUE(*Loaded == Original);
  // The reader stopped at the footer: what follows is still there.
  std::string Rest;
  Stream >> Rest;
  EXPECT_EQ(Rest, "next");

  // A cut at a chunk edge, and one inside a later chunk, are rejected.
  const size_t NodesStart = 130;
  for (size_t Cut :
       {NodesStart + 2 * ProfileSnapshot::ReadChunkNodes * 17,
        NodesStart + 2 * ProfileSnapshot::ReadChunkNodes * 17 + 100}) {
    std::stringstream Truncated(Full.substr(0, Cut));
    ProfileIoError Kind = ProfileIoError::None;
    EXPECT_EQ(ProfileSnapshot::readBinary(Truncated, &Error, &Kind), nullptr);
    EXPECT_EQ(Error, "truncated node list");
    EXPECT_EQ(Kind, ProfileIoError::Corrupt);
  }
}

TEST(ProfileSnapshot, EveryTruncationOfASmallSnapshotIsRejected) {
  std::unique_ptr<RapTree> TreePtr = makePopulatedTree(2, 3000);
  ProfileSnapshot Original = ProfileSnapshot::capture(*TreePtr);
  std::stringstream Stream;
  ASSERT_TRUE(Original.writeBinary(Stream));
  const std::string Full = Stream.str();
  for (size_t Cut = 0; Cut != Full.size(); ++Cut) {
    std::stringstream Truncated(Full.substr(0, Cut));
    std::string Error;
    ProfileIoError Kind = ProfileIoError::None;
    ASSERT_EQ(ProfileSnapshot::readBinary(Truncated, &Error, &Kind), nullptr)
        << "cut at " << Cut;
    ASSERT_EQ(Kind, ProfileIoError::Corrupt) << "cut at " << Cut;
    ASSERT_FALSE(Error.empty());
  }
}

TEST(ProfileSnapshot, HeaderClaimingTwoToThe32NodesOnAShortStreamIsRejected) {
  // The largest count the plausibility cap lets through, on a stream
  // of 100 bytes: the reader must fail on the first chunk read rather
  // than reserve or read for four billion nodes.
  std::string Bytes;
  auto PutU32 = [&Bytes](uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutU64 = [&Bytes](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<char>(V >> (8 * I)));
  };
  auto PutF64 = [&PutU64](double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    PutU64(Bits);
  };
  Bytes += "RAPP";
  PutU32(2);          // version 2: no footer, so the count is all
  PutU32(16);         // RangeBits
  PutU32(4);          // BranchFactor
  PutF64(0.05);       // Epsilon
  PutF64(2.0);        // MergeRatio
  PutU64(1024);       // InitialMergeInterval
  PutF64(1.0);        // MergeThresholdScale
  Bytes.push_back(1); // EnableMerges
  PutU64(6);          // NumEvents
  PutU64(4096);       // NextMergeAt
  PutU64(uint64_t(1) << 32);
  Bytes.resize(100, '\x01'); // one and a half node records
  std::stringstream Stream(Bytes);
  std::string Error;
  ProfileIoError Kind = ProfileIoError::None;
  EXPECT_EQ(ProfileSnapshot::readBinary(Stream, &Error, &Kind), nullptr);
  EXPECT_EQ(Error, "truncated node list");
  EXPECT_EQ(Kind, ProfileIoError::Corrupt);
}
