//===- tests/trace/TraceIOTest.cpp - Trace file I/O tests ----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/Rng.h"
#include "trace/ProgramModel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

using namespace rap;

namespace {

TraceRecord loadRecord(uint64_t Pc, uint64_t Address, uint64_t Value) {
  TraceRecord Record;
  Record.BlockPc = Pc;
  Record.BlockLength = 5;
  Record.HasLoad = true;
  Record.LoadAddress = Address;
  Record.LoadValue = Value;
  return Record;
}

TraceRecord plainRecord(uint64_t Pc, bool Narrow = false) {
  TraceRecord Record;
  Record.BlockPc = Pc;
  Record.BlockLength = 3;
  Record.NarrowOperand = Narrow;
  return Record;
}

} // namespace

TEST(TraceIO, RoundTripMixedRecords) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(plainRecord(0x400000));
  Writer.append(loadRecord(0x400010, 0x1000, 42));
  Writer.append(plainRecord(0x400020, /*Narrow=*/true));
  Writer.append(loadRecord(0x400030, ~uint64_t(0) >> 20, 0));
  ASSERT_TRUE(Writer.finish());
  EXPECT_EQ(Writer.numRecords(), 4u);

  TraceReader Reader(Stream);
  ASSERT_TRUE(Reader.valid()) << Reader.error();
  EXPECT_EQ(Reader.numRecords(), 4u);

  TraceRecord Record;
  ASSERT_TRUE(Reader.next(Record));
  EXPECT_EQ(Record.BlockPc, 0x400000u);
  EXPECT_FALSE(Record.HasLoad);
  EXPECT_FALSE(Record.NarrowOperand);

  ASSERT_TRUE(Reader.next(Record));
  EXPECT_TRUE(Record.HasLoad);
  EXPECT_EQ(Record.LoadAddress, 0x1000u);
  EXPECT_EQ(Record.LoadValue, 42u);

  ASSERT_TRUE(Reader.next(Record));
  EXPECT_TRUE(Record.NarrowOperand);

  ASSERT_TRUE(Reader.next(Record));
  EXPECT_EQ(Record.LoadValue, 0u);

  EXPECT_FALSE(Reader.next(Record)); // end of trace
  EXPECT_TRUE(Reader.valid());       // clean end, not corruption
}

TEST(TraceIO, EmptyTrace) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  ASSERT_TRUE(Writer.finish());
  TraceReader Reader(Stream);
  ASSERT_TRUE(Reader.valid());
  EXPECT_EQ(Reader.numRecords(), 0u);
  TraceRecord Record;
  EXPECT_FALSE(Reader.next(Record));
}

TEST(TraceIO, FinishReportsStreamFailure) {
  // Regression: finish() used to return void, so a full disk or a
  // failed seek produced a truncated trace while the caller printed
  // "wrote N records" and exited 0. The status must surface.
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(plainRecord(0x1000));
  Stream.setstate(std::ios::badbit); // Simulate a write error.
  EXPECT_FALSE(Writer.finish());
}

TEST(TraceIO, FinishReportsFailureLatchedByAppend) {
  // A failure during append (not just during finish itself) must
  // also be reported: stream state latches.
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(plainRecord(0x1000));
  Stream.setstate(std::ios::failbit);
  Writer.append(plainRecord(0x2000)); // Lost on the failed stream.
  EXPECT_FALSE(Writer.finish());
}

TEST(TraceIO, RejectsBadMagic) {
  std::stringstream Stream("XXXXjunkjunkjunk");
  TraceReader Reader(Stream);
  EXPECT_FALSE(Reader.valid());
  EXPECT_NE(Reader.error().find("magic"), std::string::npos);
}

TEST(TraceIO, DetectsTruncatedRecords) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(loadRecord(1, 2, 3));
  Writer.append(loadRecord(4, 5, 6));
  ASSERT_TRUE(Writer.finish());
  std::string Full = Stream.str();
  std::stringstream Truncated(Full.substr(0, Full.size() - 10));
  TraceReader Reader(Truncated);
  ASSERT_TRUE(Reader.valid());
  TraceRecord Record;
  EXPECT_TRUE(Reader.next(Record)); // first record intact
  EXPECT_FALSE(Reader.next(Record));
  EXPECT_FALSE(Reader.valid()); // corruption, not a clean end
  EXPECT_FALSE(Reader.error().empty());
}

TEST(TraceIO, CapturedModelStreamReplaysIdentically) {
  // The Sec 3.2 post-processing workflow: capture a model's stream to
  // a trace, then verify the trace replays the exact records.
  BenchmarkSpec Spec = getBenchmarkSpec("bzip2");
  ProgramModel Model(Spec, 99);
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  std::vector<TraceRecord> Reference;
  for (int I = 0; I != 20000; ++I) {
    TraceRecord Record = Model.next();
    Writer.append(Record);
    Reference.push_back(Record);
  }
  ASSERT_TRUE(Writer.finish());

  TraceReader Reader(Stream);
  ASSERT_TRUE(Reader.valid());
  ASSERT_EQ(Reader.numRecords(), Reference.size());
  TraceRecord Record;
  for (const TraceRecord &Expected : Reference) {
    ASSERT_TRUE(Reader.next(Record));
    ASSERT_EQ(Record.BlockPc, Expected.BlockPc);
    ASSERT_EQ(Record.BlockLength, Expected.BlockLength);
    ASSERT_EQ(Record.HasLoad, Expected.HasLoad);
    ASSERT_EQ(Record.LoadAddress, Expected.LoadAddress);
    ASSERT_EQ(Record.LoadValue, Expected.LoadValue);
    ASSERT_EQ(Record.NarrowOperand, Expected.NarrowOperand);
  }
  EXPECT_FALSE(Reader.next(Record));
}

TEST(TraceIO, PositionTracksConsumption) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  for (int I = 0; I != 5; ++I)
    Writer.append(plainRecord(I));
  ASSERT_TRUE(Writer.finish());
  TraceReader Reader(Stream);
  TraceRecord Record;
  EXPECT_EQ(Reader.position(), 0u);
  Reader.next(Record);
  Reader.next(Record);
  EXPECT_EQ(Reader.position(), 2u);
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

TEST(TraceIO, GoldenBytesOfTwoRecords) {
  // Version 1 on the wire, byte for byte: header, a 13-byte record,
  // a 29-byte record.
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(plainRecord(0x0102030405060708ull, /*Narrow=*/true));
  Writer.append(loadRecord(0x400010, 0x1122334455667788ull, 0xAB));
  ASSERT_TRUE(Writer.finish());
  const unsigned char Expected[] = {
      'R', 'A', 'P', 'T', 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
      // BlockPc, BlockLength 3, flags NarrowOperand
      8, 7, 6, 5, 4, 3, 2, 1, 3, 0, 0, 0, 2,
      // BlockPc, BlockLength 5, flags HasLoad, address, value
      0x10, 0, 0x40, 0, 0, 0, 0, 0, 5, 0, 0, 0, 1,
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
      0xAB, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(Stream.str(),
            std::string(reinterpret_cast<const char *>(Expected),
                        sizeof(Expected)));
}

TEST(TraceIO, GoldenBytesOfAModelStream) {
  // The encoder's output for a fixed gcc model stream, as the
  // original one-call-per-field writer produced it.
  ProgramModel Model(getBenchmarkSpec("gcc"), 5);
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  for (int I = 0; I != 20000; ++I)
    Writer.append(Model.next());
  ASSERT_TRUE(Writer.finish());
  const std::string Bytes = Stream.str();
  EXPECT_EQ(Bytes.size(), 374864u);
  EXPECT_EQ(fnv1a(Bytes), 0x05B9858DA58C9028ull);
}

namespace {

/// A mixed stream: about half the records carry a load.
std::vector<TraceRecord> mixedRecords(size_t Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<TraceRecord> Records;
  for (size_t I = 0; I != Count; ++I) {
    if (R.nextBernoulli(0.5))
      Records.push_back(loadRecord(R.next(), R.next(), R.next()));
    else
      Records.push_back(plainRecord(R.next(), R.nextBernoulli(0.5)));
    Records.back().BlockLength = static_cast<uint32_t>(R.next());
  }
  return Records;
}

std::string encode(const std::vector<TraceRecord> &Records) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  for (const TraceRecord &Record : Records)
    Writer.append(Record);
  EXPECT_TRUE(Writer.finish());
  return Stream.str();
}

/// Byte offset at which each record ends, after the 16-byte header.
std::vector<size_t> recordEnds(const std::vector<TraceRecord> &Records) {
  std::vector<size_t> Ends;
  size_t Offset = 16;
  for (const TraceRecord &Record : Records)
    Ends.push_back(Offset += Record.HasLoad ? 29 : 13);
  return Ends;
}

void expectSameRecord(const TraceRecord &Got, const TraceRecord &Want) {
  EXPECT_EQ(Got.BlockPc, Want.BlockPc);
  EXPECT_EQ(Got.BlockLength, Want.BlockLength);
  EXPECT_EQ(Got.HasLoad, Want.HasLoad);
  EXPECT_EQ(Got.NarrowOperand, Want.NarrowOperand);
  EXPECT_EQ(Got.LoadAddress, Want.HasLoad ? Want.LoadAddress : 0);
  EXPECT_EQ(Got.LoadValue, Want.HasLoad ? Want.LoadValue : 0);
}

/// Reads \p Bytes (a prefix of the encoding of \p Records) and checks
/// the reader returns exactly the whole records in it, then reports a
/// truncation unless the prefix is the whole trace.
void expectPrefixDecodes(const std::string &Bytes,
                         const std::vector<TraceRecord> &Records) {
  std::vector<size_t> Ends = recordEnds(Records);
  const size_t Whole = static_cast<size_t>(
      std::upper_bound(Ends.begin(), Ends.end(), Bytes.size()) -
      Ends.begin());
  std::stringstream Stream(Bytes);
  TraceReader Reader(Stream);
  ASSERT_TRUE(Reader.valid()) << Reader.error();
  TraceRecord Record;
  for (size_t I = 0; I != Whole; ++I) {
    ASSERT_TRUE(Reader.next(Record)) << "record " << I;
    expectSameRecord(Record, Records[I]);
  }
  EXPECT_FALSE(Reader.next(Record));
  EXPECT_EQ(Reader.position(), Whole);
  if (Whole == Records.size()) {
    EXPECT_TRUE(Reader.valid()) << Reader.error();
  } else {
    EXPECT_FALSE(Reader.valid());
    EXPECT_EQ(Reader.error(), "truncated trace record");
  }
}

} // namespace

TEST(TraceIO, RecordsStraddlingRefillEdgesDecode) {
  // The reader pulls the stream a whole block at a time, so stream
  // reads split at file offsets that are multiples of the block size.
  // Traces of several blocks put 13-byte and 29-byte records across
  // those edges.
  const std::vector<TraceRecord> Plain(16000, plainRecord(0x1234));
  const std::vector<TraceRecord> Loads(7000, loadRecord(1, 2, 3));
  const std::vector<TraceRecord> Mixed = mixedRecords(40000, 3);
  // {plain, load} records that span a block edge.
  auto Straddles = [](const std::vector<TraceRecord> &Records) {
    std::vector<size_t> Ends = recordEnds(Records);
    std::pair<unsigned, unsigned> Counts;
    for (size_t I = 0; I != Records.size(); ++I) {
      size_t Start = Ends[I] - (Records[I].HasLoad ? 29 : 13);
      if (Start / TraceBlockBytes != (Ends[I] - 1) / TraceBlockBytes)
        ++(Records[I].HasLoad ? Counts.second : Counts.first);
    }
    return Counts;
  };
  EXPECT_GE(Straddles(Plain).first, 2u);
  EXPECT_GE(Straddles(Loads).second, 2u);
  EXPECT_GE(Straddles(Mixed).first, 1u);
  EXPECT_GE(Straddles(Mixed).second, 1u);
  for (const std::vector<TraceRecord> *Records : {&Plain, &Loads, &Mixed}) {
    const std::string Bytes = encode(*Records);
    ASSERT_GT(Bytes.size(), 3 * TraceBlockBytes);
    expectPrefixDecodes(Bytes, *Records);
  }
}

TEST(TraceIO, TruncationAtEveryOffsetStopsAtTheLastWholeRecord) {
  const std::vector<TraceRecord> Records = {
      plainRecord(1), loadRecord(2, 3, 4), plainRecord(5, true),
      plainRecord(6), loadRecord(7, 8, 9), loadRecord(10, 11, 12)};
  const std::string Full = encode(Records);
  ASSERT_EQ(Full.size(), 16u + 3 * 13 + 3 * 29);
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    SCOPED_TRACE("cut at " + std::to_string(Cut));
    const std::string Prefix = Full.substr(0, Cut);
    if (Cut < 16) {
      std::stringstream Stream(Prefix);
      TraceReader Reader(Stream);
      EXPECT_FALSE(Reader.valid());
      EXPECT_EQ(Reader.error(), Cut < 4   ? "not a RAP trace (bad magic)"
                                : Cut < 8 ? "unsupported trace format version"
                                          : "truncated trace header");
      continue;
    }
    expectPrefixDecodes(Prefix, Records);
  }
}

TEST(TraceIO, TruncationNearBlockEdgesStopsAtTheLastWholeRecord) {
  const std::vector<TraceRecord> Records = mixedRecords(15000, 4);
  const std::string Full = encode(Records);
  for (size_t Edge = TraceBlockBytes; Edge < Full.size();
       Edge += TraceBlockBytes)
    for (size_t Cut : {Edge - 29, Edge - 13, Edge - 1, Edge, Edge + 1,
                       Edge + 13, Edge + 28}) {
      SCOPED_TRACE("cut at " + std::to_string(Cut));
      expectPrefixDecodes(Full.substr(0, Cut), Records);
    }
}
