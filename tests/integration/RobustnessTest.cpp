//===- tests/integration/RobustnessTest.cpp - Failure injection ----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Failure-injection tests for the untrusted-input surfaces: mutated
/// and random byte streams fed to the profile and trace readers must
/// be either parsed into a *valid* object or rejected with an error —
/// never crash, hang, or produce a structurally broken tree.
///
//===----------------------------------------------------------------------===//

#include "core/Serialization.h"
#include "support/FailPoint.h"
#include "support/Rng.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace rap;

namespace {

/// A profile of one node chunk at the default \p Epsilon; at 0.001 it
/// has about 19k nodes, more than two of readBinary's chunks.
std::string makeValidProfileBytes(double Epsilon = 0.05, int Events = 20000) {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.Epsilon = Epsilon;
  RapTree Tree(Config);
  Rng R(1);
  for (int I = 0; I != Events; ++I)
    Tree.addPoint(R.nextBelow(1 << 16));
  std::ostringstream OS;
  EXPECT_TRUE(ProfileSnapshot::capture(Tree).writeBinary(OS));
  return OS.str();
}

/// A trace of about 10 KB; 20000 records are about 400 KB, more than
/// two of the reader's blocks.
std::string makeValidTraceBytes(int Records = 500) {
  std::ostringstream OS;
  TraceWriter Writer(OS);
  Rng R(2);
  for (int I = 0; I != Records; ++I) {
    TraceRecord Record;
    Record.BlockPc = R.nextBelow(1 << 24);
    Record.BlockLength = 3 + static_cast<uint32_t>(R.nextBelow(10));
    Record.HasLoad = R.nextBernoulli(0.4);
    Record.LoadAddress = R.next();
    Record.LoadValue = R.next();
    Writer.append(Record);
  }
  EXPECT_TRUE(Writer.finish());
  return OS.str();
}

} // namespace

TEST(Robustness, MutatedProfilesNeverBreakInvariants) {
  for (const std::string &Valid :
       {makeValidProfileBytes(), makeValidProfileBytes(0.001, 200000)}) {
    Rng R(0xF0F0);
    for (int Trial = 0; Trial != 300; ++Trial) {
      std::string Mutated = Valid;
      unsigned Flips = 1 + static_cast<unsigned>(R.nextBelow(4));
      for (unsigned F = 0; F != Flips; ++F) {
        size_t Offset = static_cast<size_t>(R.nextBelow(Mutated.size()));
        Mutated[Offset] = static_cast<char>(R.nextBelow(256));
      }
      std::istringstream IS(Mutated);
      std::string Error;
      std::unique_ptr<ProfileSnapshot> Snapshot =
          ProfileSnapshot::readBinary(IS, &Error);
      if (!Snapshot) {
        EXPECT_FALSE(Error.empty());
        continue;
      }
      // Accepted mutants must still be fully valid: restore and check
      // the core invariant (conservation).
      std::unique_ptr<RapTree> Tree = Snapshot->restore();
      ASSERT_TRUE(Tree);
      EXPECT_EQ(Tree->root().subtreeWeight(), Tree->numEvents());
    }
  }
}

TEST(Robustness, RandomGarbageProfilesRejected) {
  Rng R(0xABCD);
  for (int Trial = 0; Trial != 100; ++Trial) {
    std::string Garbage(1 + R.nextBelow(500), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(R.nextBelow(256));
    std::istringstream IS(Garbage);
    std::string Error;
    // Random bytes essentially never start with the magic; regardless,
    // the reader must return cleanly.
    (void)ProfileSnapshot::readBinary(IS, &Error);
  }
  SUCCEED();
}

TEST(Robustness, MutatedTracesNeverCrashTheReader) {
  for (const std::string &Valid :
       {makeValidTraceBytes(), makeValidTraceBytes(20000)}) {
    Rng R(0x1CE);
    for (int Trial = 0; Trial != 300; ++Trial) {
      std::string Mutated = Valid;
      size_t Offset = static_cast<size_t>(R.nextBelow(Mutated.size()));
      Mutated[Offset] = static_cast<char>(R.nextBelow(256));
      // Also randomly truncate half the time.
      if (R.nextBernoulli(0.5))
        Mutated.resize(1 + R.nextBelow(Mutated.size()));
      std::istringstream IS(Mutated);
      TraceReader Reader(IS);
      TraceRecord Record;
      uint64_t Consumed = 0;
      while (Reader.valid() && Reader.next(Record)) {
        // Records that do parse must be self-consistent.
        ++Consumed;
        if (Consumed > 1000000)
          break; // would indicate a hang; the count is bounded anyway
      }
      EXPECT_LE(Consumed, 1000000u);
    }
  }
}

TEST(Robustness, TornWriteNeverClobbersTheLastGoodProfile) {
  // Crash-during-save simulation: the snapshot-write failpoint makes
  // writeBinary emit half the body and fail. saveFileAtomic writes to
  // a temp file and renames only on success, so the previous profile
  // must survive the torn write bit-exactly and keep loading.
  failpoints::ScopedDisarm Guard;
  failpoints::disarmAll();
  std::string Path = ::testing::TempDir() + "torn_write.rap";

  RapConfig Config;
  Config.RangeBits = 16;
  Config.Epsilon = 0.05;
  RapTree Tree(Config);
  Rng R(3);
  for (int I = 0; I != 10000; ++I)
    Tree.addPoint(R.nextBelow(1 << 16));
  ProfileSnapshot First = ProfileSnapshot::capture(Tree);
  std::string Error;
  ASSERT_TRUE(First.saveFileAtomic(Path, &Error)) << Error;

  // Grow the tree, then tear the second save mid-body.
  for (int I = 0; I != 10000; ++I)
    Tree.addPoint(R.nextBelow(1 << 16));
  failpoints::arm(failpoints::Fp::SnapshotWrite);
  ProfileIoError Kind = ProfileIoError::None;
  EXPECT_FALSE(
      ProfileSnapshot::capture(Tree).saveFileAtomic(Path, &Error, &Kind));
  EXPECT_EQ(Kind, ProfileIoError::Io);
  failpoints::disarmAll();

  // The file on disk is still the FIRST profile, bit for bit.
  std::unique_ptr<ProfileSnapshot> Recovered =
      ProfileSnapshot::loadFile(Path, &Error, &Kind);
  ASSERT_TRUE(Recovered) << Error;
  EXPECT_TRUE(*Recovered == First);
  // And no half-written temp file survived the failed attempt.
  std::ifstream Temp(Path + ".tmp");
  EXPECT_FALSE(Temp.good());
}

TEST(Robustness, TornBytesOnDiskAreRejectedOrRecoverBitExactly) {
  // Every corruption of a profile file must either be rejected with a
  // diagnostic or (if the flip landed in dead space) load back the
  // exact original — never a silently different tree.
  failpoints::ScopedDisarm Guard;
  failpoints::disarmAll();
  std::string Valid = makeValidProfileBytes();
  std::string Path = ::testing::TempDir() + "torn_bytes.rap";
  std::string Error;
  ProfileIoError Kind = ProfileIoError::None;
  std::istringstream ValidIn(Valid);
  std::unique_ptr<ProfileSnapshot> Original =
      ProfileSnapshot::readBinary(ValidIn, &Error);
  ASSERT_TRUE(Original) << Error;
  Rng R(0xBEEF);
  for (int Trial = 0; Trial != 64; ++Trial) {
    std::string Mutated = Valid;
    if (R.nextBernoulli(0.5)) {
      size_t Offset = static_cast<size_t>(R.nextBelow(Mutated.size()));
      Mutated[Offset] = static_cast<char>(
          Mutated[Offset] ^ static_cast<char>(1 + R.nextBelow(255)));
    } else {
      Mutated.resize(R.nextBelow(Mutated.size()));
    }
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out << Mutated;
    }
    std::unique_ptr<ProfileSnapshot> Loaded =
        ProfileSnapshot::loadFile(Path, &Error, &Kind);
    if (!Loaded) {
      EXPECT_FALSE(Error.empty());
      EXPECT_NE(Kind, ProfileIoError::None);
      continue;
    }
    EXPECT_TRUE(*Loaded == *Original)
        << "trial " << Trial << " loaded a silently different profile";
  }
}

TEST(Robustness, TextProfileWhitespaceAndJunkLines) {
  RapConfig Config;
  Config.RangeBits = 16;
  RapTree Tree(Config);
  Tree.addPoint(1);
  std::ostringstream OS;
  ASSERT_TRUE(ProfileSnapshot::capture(Tree).writeText(OS));
  std::string Text = OS.str();

  // Appending junk after a complete profile is tolerated (ignored).
  {
    std::istringstream IS(Text + "trailing junk\n");
    EXPECT_NE(ProfileSnapshot::readText(IS), nullptr);
  }
  // Corrupting the node count line is rejected.
  {
    std::string Broken = Text;
    Broken.replace(Broken.find("nodes="), 6, "nodes=x");
    std::istringstream IS(Broken);
    EXPECT_EQ(ProfileSnapshot::readText(IS), nullptr);
  }
}
