//===- rapbench/Spans.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. Spans are recorded only in the benchmark's
/// own code, around blocks of calls into one layer's public functions;
/// nothing inside the library is instrumented. Each thread owns one
/// SpanLog (no locking), spans stay in memory, and the logs are written
/// out once the measured phases are over.
///
/// A span's self time is its duration minus the durations of its
/// direct children, which is how per-layer times are attributed: e.g.
/// a delivery batch minus the merge-crossing addPoint calls inside it.
///
//===----------------------------------------------------------------------===//

#ifndef RAPBENCH_SPANS_H
#define RAPBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

namespace rapbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name = nullptr; ///< Static string: the layer operation.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index in the same log, -1 for a root.
};

/// Spans of one thread, in begin order.
class SpanLog {
public:
  explicit SpanLog(unsigned ThreadId = 0) : Thread(ThreadId) {}

  /// Opens a span nested in the innermost open one.
  void begin(const char *Name) {
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    Open.push_back(static_cast<int32_t>(Spans.size()));
    Spans.push_back(S);
    Spans.back().StartNs = nowNs();
  }

  /// Closes the innermost open span.
  void end() {
    Spans[static_cast<size_t>(Open.back())].EndNs = nowNs();
    Open.pop_back();
  }

  /// For every root span named \p Root, the summed self time (seconds)
  /// of its descendants named \p Name (the root itself when \p Name
  /// equals \p Root). One entry per root, in order.
  std::vector<double> selfSecondsPerRoot(const char *Root,
                                         const char *Name) const {
    std::vector<int64_t> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[I] = Spans[I].EndNs - Spans[I].StartNs;
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[static_cast<size_t>(S.Parent)] -= S.EndNs - S.StartNs;
    std::vector<double> Out;
    std::vector<int32_t> RootSlot(Spans.size(), -1);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.Parent < 0) {
        if (std::strcmp(S.Name, Root) != 0)
          continue;
        RootSlot[I] = static_cast<int32_t>(Out.size());
        Out.push_back(0.0);
      } else {
        RootSlot[I] = RootSlot[static_cast<size_t>(S.Parent)];
      }
      if (RootSlot[I] >= 0 && std::strcmp(S.Name, Name) == 0)
        Out[static_cast<size_t>(RootSlot[I])] +=
            static_cast<double>(Self[I]) * 1e-9;
    }
    return Out;
  }

  /// Writes one JSON object per span and line.
  void write(std::ostream &OS) const {
    for (const Span &S : Spans)
      OS << "{\"thread\":" << Thread << ",\"name\":\"" << S.Name
         << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
         << ",\"parent\":" << S.Parent << "}\n";
  }

private:
  unsigned Thread;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

} // namespace rapbench

#endif // RAPBENCH_SPANS_H
