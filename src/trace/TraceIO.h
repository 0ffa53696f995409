//===- trace/TraceIO.h - Trace file reading and writing --------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary trace files of TraceRecords. The paper's software RAP "can
/// either be called from online analysis or to post process trace
/// files" (Sec 3.2); this module provides the trace-file half:
/// capture a synthetic (or externally produced) stream once, then
/// profile it repeatedly with different parameters.
///
/// Format (version 1, little-endian):
///   magic "RAPT", u32 version, u64 record count,
///   records: { u64 blockPc, u32 blockLength, u8 flags,
///              [u64 loadAddress, u64 loadValue] if flags & HasLoad }
///   flags: bit 0 = HasLoad, bit 1 = NarrowOperand.
///
/// Both ends are block codecs: the writer encodes records into a
/// 64 KiB buffer and hands the stream one write per block, and the
/// reader refills its buffer with one read per block and decodes
/// records from memory. The block size is not part of the format: the
/// bytes of a trace do not depend on it.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_TRACE_TRACEIO_H
#define RAP_TRACE_TRACEIO_H

#include "trace/TraceRecord.h"

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rap {

/// Bytes one block of the trace codecs holds: what the writer buffers
/// between stream writes and what the reader asks for per refill.
inline constexpr size_t TraceBlockBytes = 64 * 1024;

/// Streams TraceRecords to a binary file.
class TraceWriter {
public:
  /// Starts a trace on \p OS (must remain valid for the writer's
  /// lifetime). Records are buffered; nothing is guaranteed to reach
  /// the stream before finish(), which writes the rest and finalizes
  /// the header.
  explicit TraceWriter(std::ostream &Out);

  /// Appends one record.
  void append(const TraceRecord &Record);

  /// Records written so far.
  uint64_t numRecords() const { return NumRecords; }

  /// Writes the buffered records, rewrites the header with the final
  /// record count and flushes. Must be called exactly once, after the
  /// last append; requires a seekable stream. Returns false if the
  /// stream failed at any point — the trace on disk is then truncated
  /// or has a wrong record count, and the caller must not report
  /// success.
  bool finish();

private:
  void writeBlock();

  std::ostream &OS;
  std::vector<unsigned char> Block;
  size_t Used = 0;
  uint64_t NumRecords = 0;
  bool Finished = false;
};

/// Streams TraceRecords from a binary file.
///
/// The reader reads ahead: it pulls a whole block from \p In at a
/// time, so the stream's position (and its eof/fail state) runs ahead
/// of the records returned. The reader owns the stream while it
/// lives; a caller that reuses the stream afterwards, for instance to
/// read the trace a second time, must clear() and re-seek it first, as
/// rap_profile's self-test does.
class TraceReader {
public:
  /// Opens a trace on \p IS. Check valid() before reading; on failure
  /// error() describes the problem.
  explicit TraceReader(std::istream &In);

  /// True if the header parsed and reading can proceed.
  bool valid() const { return Valid; }

  /// Diagnostic for an invalid or truncated trace.
  const std::string &error() const { return Error; }

  /// Total records promised by the header.
  uint64_t numRecords() const { return NumRecords; }

  /// Records consumed so far. After a truncation this is the number
  /// of whole records before the cut.
  uint64_t position() const { return Position; }

  /// Reads the next record into \p Record. Returns false at the end of
  /// the trace or on corruption (valid() turns false and error() is
  /// set in the latter case).
  bool next(TraceRecord &Record);

private:
  void refill();
  bool truncated();

  std::istream &IS;
  /// Undecoded bytes are Block[Cur, End). A refill moves the partial
  /// record left at the end of a block (under one record) to the
  /// front and reads one block behind it.
  std::vector<unsigned char> Block;
  size_t Cur = 0;
  size_t End = 0;
  bool StreamDone = false;
  uint64_t NumRecords = 0;
  uint64_t Position = 0;
  bool Valid = false;
  std::string Error;
};

} // namespace rap

#endif // RAP_TRACE_TRACEIO_H
