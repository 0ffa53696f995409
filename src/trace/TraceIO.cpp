//===- trace/TraceIO.cpp - Trace file reading and writing ----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/BitUtils.h"
#include "support/FailPoint.h"

#include <cassert>
#include <cstring>
#include <istream>
#include <ostream>

using namespace rap;

namespace {

constexpr char Magic[4] = {'R', 'A', 'P', 'T'};
constexpr uint32_t FormatVersion = 1;
constexpr uint8_t FlagHasLoad = 1;
constexpr uint8_t FlagNarrowOperand = 2;

constexpr size_t HeaderBytes = 16;      // magic, version, record count
constexpr size_t CountOffset = 8;       // the record count in the header
constexpr size_t PlainRecordBytes = 13; // pc, length, flags
constexpr size_t LoadRecordBytes = 29;  // ... address, value

} // namespace

TraceWriter::TraceWriter(std::ostream &Out)
    : OS(Out), Block(TraceBlockBytes) {
  std::memcpy(Block.data(), Magic, 4);
  storeLe32(Block.data() + 4, FormatVersion);
  storeLe64(Block.data() + CountOffset, 0); // Patched by finish().
  Used = HeaderBytes;
}

void TraceWriter::writeBlock() {
  OS.write(reinterpret_cast<const char *>(Block.data()),
           static_cast<std::streamsize>(Used));
  Used = 0;
}

void TraceWriter::append(const TraceRecord &Record) {
  assert(!Finished && "append after finish");
  // Injected write failure (rap_fuzz --faults): latches failbit like a
  // full disk would, which finish() then reports.
  if (RAP_FAILPOINT_HIT(failpoints::Fp::TraceWrite))
    OS.setstate(std::ios::failbit);
  if (TraceBlockBytes - Used < LoadRecordBytes)
    writeBlock();
  unsigned char *P = Block.data() + Used;
  storeLe64(P, Record.BlockPc);
  storeLe32(P + 8, Record.BlockLength);
  P[12] = (Record.HasLoad ? FlagHasLoad : 0) |
          (Record.NarrowOperand ? FlagNarrowOperand : 0);
  if (Record.HasLoad) {
    storeLe64(P + 13, Record.LoadAddress);
    storeLe64(P + 21, Record.LoadValue);
    Used += LoadRecordBytes;
  } else {
    Used += PlainRecordBytes;
  }
  ++NumRecords;
}

bool TraceWriter::finish() {
  assert(!Finished && "finish called twice");
  Finished = true;
  writeBlock();
  std::ostream::pos_type End = OS.tellp();
  OS.seekp(CountOffset);
  unsigned char Count[8];
  storeLe64(Count, NumRecords);
  OS.write(reinterpret_cast<const char *>(Count), 8);
  OS.seekp(End);
  OS.flush();
  // good() covers the whole stream history: a failed append (disk
  // full) latches failbit/badbit, so one check here is authoritative.
  return OS.good();
}

TraceReader::TraceReader(std::istream &In)
    : IS(In), Block(TraceBlockBytes + LoadRecordBytes) {
  refill();
  const unsigned char *P = Block.data();
  if (End < 4 || std::memcmp(P, Magic, 4) != 0) {
    Error = "not a RAP trace (bad magic)";
    return;
  }
  if (End < 8 || loadLe32(P + 4) != FormatVersion) {
    Error = "unsupported trace format version";
    return;
  }
  if (End < HeaderBytes) {
    Error = "truncated trace header";
    return;
  }
  NumRecords = loadLe64(P + CountOffset);
  Cur = HeaderBytes;
  Valid = true;
}

void TraceReader::refill() {
  if (StreamDone)
    return;
  // Only called with less than one record left undecoded, so the
  // tail plus one block always fits.
  const size_t Tail = End - Cur;
  assert(Tail < LoadRecordBytes && "refill with a whole record buffered");
  std::memmove(Block.data(), Block.data() + Cur, Tail);
  // A literal, so rap_lint's value-range pass bounds the read.
  constexpr size_t ReadBytes = 64 * 1024;
  static_assert(ReadBytes == TraceBlockBytes);
  IS.read(reinterpret_cast<char *>(Block.data() + Tail),
          static_cast<std::streamsize>(ReadBytes));
  Cur = 0;
  End = Tail + static_cast<size_t>(IS.gcount());
  // A short read means end of stream (or a failed one): stop asking.
  StreamDone = !IS;
}

bool TraceReader::truncated() {
  Valid = false;
  Error = "truncated trace record";
  return false;
}

bool TraceReader::next(TraceRecord &Record) {
  if (!Valid || Position == NumRecords)
    return false;
  if (End - Cur < LoadRecordBytes)
    refill();
  const size_t Available = End - Cur;
  if (Available < PlainRecordBytes)
    return truncated();
  const unsigned char *P = Block.data() + Cur;
  const uint8_t Flags = P[12];
  Record.HasLoad = (Flags & FlagHasLoad) != 0;
  if (Record.HasLoad && Available < LoadRecordBytes)
    return truncated();
  Record.BlockPc = loadLe64(P);
  Record.BlockLength = loadLe32(P + 8);
  Record.NarrowOperand = (Flags & FlagNarrowOperand) != 0;
  if (Record.HasLoad) {
    Record.LoadAddress = loadLe64(P + 13);
    Record.LoadValue = loadLe64(P + 21);
    Cur += LoadRecordBytes;
  } else {
    Record.LoadAddress = 0;
    Record.LoadValue = 0;
    Cur += PlainRecordBytes;
  }
  ++Position;
  return true;
}
