//===- bench/bench_query.cpp - Cold-range fence query baseline -----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The reproducible baseline runner behind BENCH_query.json: times the
// RANGE QUERY path (estimateRange + estimateRangeBounds over a
// pre-generated query set) with the cold-range fence off and on —
//
//   legacy  EnableRangeFence=false: every query walks the tree, even
//           over regions the stream never touched;
//   fenced  EnableRangeFence=true: a query whose span misses every
//           warm bucket is answered from a <=512-byte bitmap without
//           touching a node.
//
// Unlike the update-path rigs, the timed phase here is read-only: each
// variant builds its tree once (untimed — the fence never changes the
// update path's structure), restores it from its snapshot the way a
// report tool loads a saved profile (so range queries read the
// subtree-sum column), and then runs the identical query battery.
// Both variants accumulate a checksum over every estimate and bracket,
// and the run aborts if they differ by even one bit: the throughput
// claim is only meaningful because the answers are provably identical.
//
// Workload shapes concentrate the stream into a few bucket-sized hot
// windows — the profile shape the paper's gzip/gcc studies show
// (Sec 4.2: a handful of hot ranges over a mostly-zero-load universe)
// — so most queries are provably cold while the tree still carries
// real structure for warm queries to walk. Every variant records a
// "cold_rate" metric (fraction of the query set the fence proves
// cold; 0 by construction for legacy) and "warm_buckets". Streams and
// queries are pre-generated from an explicit seed before any clock
// starts; the report is a function of (seed, events, machine) only.
// Schema and gating are described in docs/BENCHMARKS.md; tools/
// bench_diff checks reports.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "core/RapTree.h"
#include "core/Serialization.h"
#include "support/ArgParse.h"
#include "support/BenchReport.h"
#include "support/Distributions.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

using namespace rap;

namespace {

/// SplitMix64 finalizer: scatters window indices across the universe.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

struct QuerySpan {
  uint64_t Lo;
  uint64_t Hi;
};

struct WorkloadSpec {
  std::string Name;
  RapConfig Config;
  std::vector<uint64_t> Events;
  std::vector<QuerySpan> Queries;
};

/// Draws one query of a random width in [MinBits, MaxBits], uniform
/// over the universe.
QuerySpan drawQuery(Rng &R, unsigned MinBits, unsigned MaxBits,
                    uint64_t UniverseHi) {
  unsigned Width = MinBits + unsigned(R.nextBelow(MaxBits - MinBits + 1));
  uint64_t Span = widthForBits(Width);
  uint64_t Lo = R.next() & UniverseHi;
  if (Lo > UniverseHi - Span)
    Lo = UniverseHi - Span;
  return {Lo, Lo + Span};
}

/// The query-path workload family: a 32-bit universe whose stream
/// mass is clustered into \p NumWindows windows of 2^20 values each
/// (one fence bucket at the default 12-bit prefix), so the tree grows
/// real structure while almost every bucket stays cold.
std::vector<WorkloadSpec> makeWorkloads(uint64_t Seed, uint64_t NumEvents,
                                        uint64_t NumQueries) {
  std::vector<WorkloadSpec> Out;
  const uint64_t UniverseHi = widthForBits(32);
  constexpr unsigned WindowBits = 20;

  auto windowBase = [&](uint64_t Salt, unsigned W) {
    return (mix64(Salt ^ W) & UniverseHi) & ~widthForBits(WindowBits);
  };

  // hotspot: every update lands in 16 scattered windows, Zipf-skewed
  // within each; queries are the profiler's bread-and-butter narrow
  // probes ("how hot is this page / line / function range"), widths up
  // to one window. The headline shape: 16 warm windows out of 4096
  // buckets, so ~99% of the probes miss every window and the fence
  // answers them without touching a node.
  {
    WorkloadSpec W;
    W.Name = "hotspot";
    W.Config.RangeBits = 32;
    constexpr unsigned NumWindows = 16;
    Rng R(Seed ^ 0x686f7453ULL);
    ZipfDistribution Zipf(1 << 14, 1.1);
    W.Events.reserve(NumEvents);
    for (uint64_t I = 0; I != NumEvents; ++I) {
      uint64_t Window = R.nextBelow(NumWindows);
      uint64_t Offset = mix64(Zipf.sample(R) ^ (Window << 32)) &
                        widthForBits(WindowBits);
      W.Events.push_back(windowBase(Seed, unsigned(Window)) + Offset);
    }
    Rng Q(Seed ^ 0x71687453ULL);
    W.Queries.reserve(NumQueries);
    for (uint64_t I = 0; I != NumQueries; ++I)
      W.Queries.push_back(drawQuery(Q, 12, WindowBits, UniverseHi));
    Out.push_back(std::move(W));
  }

  // sparse: 4 windows only — the zero-load-ranges regime of fig10.
  // Nearly everything is cold, including most wide queries; this is
  // the upper bound on what the fence can save.
  {
    WorkloadSpec W;
    W.Name = "sparse";
    W.Config.RangeBits = 32;
    constexpr unsigned NumWindows = 4;
    Rng R(Seed ^ 0x73707273ULL);
    W.Events.reserve(NumEvents);
    for (uint64_t I = 0; I != NumEvents; ++I) {
      uint64_t Window = R.nextBelow(NumWindows);
      uint64_t Offset = R.next() & widthForBits(WindowBits);
      W.Events.push_back(windowBase(Seed * 3, unsigned(Window)) + Offset);
    }
    Rng Q(Seed ^ 0x71707273ULL);
    W.Queries.reserve(NumQueries);
    for (uint64_t I = 0; I != NumQueries; ++I)
      W.Queries.push_back(drawQuery(Q, 16, 30, UniverseHi));
    Out.push_back(std::move(W));
  }

  // warm: the adversarial shape — half the queries are drawn INSIDE a
  // hot window, so the fence proves little and its bitmap test is
  // pure overhead on those. Pins that the fenced variant never falls
  // meaningfully behind legacy even when it cannot help.
  {
    WorkloadSpec W;
    W.Name = "warm";
    W.Config.RangeBits = 32;
    constexpr unsigned NumWindows = 16;
    Rng R(Seed ^ 0x7761726dULL);
    W.Events.reserve(NumEvents);
    for (uint64_t I = 0; I != NumEvents; ++I) {
      uint64_t Window = R.nextBelow(NumWindows);
      uint64_t Offset = R.next() & widthForBits(WindowBits);
      W.Events.push_back(windowBase(Seed * 5, unsigned(Window)) + Offset);
    }
    Rng Q(Seed ^ 0x7175726dULL);
    W.Queries.reserve(NumQueries);
    for (uint64_t I = 0; I != NumQueries; ++I) {
      if (Q.nextBernoulli(0.5)) {
        uint64_t Base =
            windowBase(Seed * 5, unsigned(Q.nextBelow(NumWindows)));
        uint64_t A = Base + (Q.next() & widthForBits(WindowBits));
        uint64_t B = Base + (Q.next() & widthForBits(WindowBits));
        if (A > B)
          std::swap(A, B);
        W.Queries.push_back({A, B});
      } else {
        W.Queries.push_back(drawQuery(Q, 12, 30, UniverseHi));
      }
    }
    Out.push_back(std::move(W));
  }

  return Out;
}

struct QueryRun {
  double Seconds = 0.0;
  uint64_t Checksum = 0;
  uint64_t ColdQueries = 0;
};

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// One timed pass of the whole query battery against a built tree.
/// The checksum folds every answer so the work cannot be elided and
/// the two variants can be compared bit for bit afterwards.
QueryRun runQueries(const RapTree &Tree,
                    const std::vector<QuerySpan> &Queries) {
  QueryRun R;
  uint64_t Sum = 0;
  auto Start = std::chrono::steady_clock::now();
  for (const QuerySpan &Q : Queries) {
    Sum = Sum * 31 + Tree.estimateRange(Q.Lo, Q.Hi);
    RapTree::RangeBounds B = Tree.estimateRangeBounds(Q.Lo, Q.Hi);
    Sum = Sum * 31 + B.Lower;
    Sum = Sum * 31 + B.Upper;
  }
  R.Seconds = secondsSince(Start);
  R.Checksum = Sum;
  for (const QuerySpan &Q : Queries)
    R.ColdQueries += Tree.rangeProvablyCold(Q.Lo, Q.Hi) ? 1 : 0;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args("bench_query",
                "Times the range-query path with the cold-range fence "
                "off (\"legacy\") and on (\"fenced\") over identical "
                "pre-built trees and query sets, checks the answers "
                "match bit for bit, and writes a pinned "
                "BENCH_query.json report with per-variant cold_rate "
                "metrics.");
  Args.addString("out", "BENCH_query.json", "output report path");
  Args.addUint("events", 1000000, "stream events per workload tree");
  Args.addUint("queries", 200000, "range queries per timed pass");
  Args.addUint("seed", 42, "master stream/query seed");
  Args.addUint("repeats", 3, "timing passes per variant (best kept)");
  // Tight enough that the hot windows grow thousands of nodes — the
  // regime where a cold query's saved walk is worth measuring.
  Args.addDouble("epsilon", 0.0001, "error constant for every workload");
  Args.addDouble("require-speedup", 0.0,
                 "fail unless the hotspot fenced speedup reaches this "
                 "factor (0 disables the gate)");
  Args.addBool("smoke",
               "fast CI shape: 50k events, 20k queries, one pass, no "
               "gates");
  if (!Args.parse(Argc, Argv))
    return 2;

  uint64_t NumEvents = Args.getUint("events");
  uint64_t NumQueries = Args.getUint("queries");
  uint64_t Repeats = Args.getUint("repeats");
  double RequireSpeedup = Args.getDouble("require-speedup");
  if (Args.getBool("smoke")) {
    NumEvents = 50000;
    NumQueries = 20000;
    Repeats = 1;
    RequireSpeedup = 0.0;
  }

  BenchReport Report;
  Report.Schema = BenchSchemaName;
  Report.Generator = "bench_query";

  bool GatesHold = true;
  for (WorkloadSpec &Spec :
       makeWorkloads(Args.getUint("seed"), NumEvents, NumQueries)) {
    Spec.Config.Epsilon = Args.getDouble("epsilon");
    BenchWorkload W;
    W.Name = Spec.Name;
    W.RangeBits = Spec.Config.RangeBits;
    W.BranchFactor = Spec.Config.BranchFactor;
    W.Epsilon = Spec.Config.Epsilon;
    W.Events = NumQueries;

    uint64_t Checksums[2] = {0, 0};
    for (int Fenced = 0; Fenced != 2; ++Fenced) {
      RapConfig Config = Spec.Config;
      Config.EnableRangeFence = Fenced != 0;
      RapTree Live(Config);
      for (uint64_t X : Spec.Events)
        Live.addPoint(X);
      std::unique_ptr<RapTree> Restored =
          ProfileSnapshot::capture(Live).restore();
      const RapTree &Tree = *Restored;

      BenchVariant V;
      V.Name = Fenced ? "fenced" : "legacy";
      V.Events = NumQueries;
      V.Nodes = Tree.numNodes();
      V.MaxNodes = Tree.maxNumNodes();
      V.BytesPerNode = double(Tree.arenaBytes()) / double(Tree.numNodes());
      // No merge timeline: the report's event axis counts QUERIES (the
      // timed workload), and the tree's merge positions are indexed by
      // ingest events — mixing the two fails schema validation.
      double Best = 0.0;
      QueryRun First;
      for (uint64_t I = 0; I != Repeats; ++I) {
        QueryRun R = runQueries(Tree, Spec.Queries);
        if (I == 0) {
          First = R;
          Best = R.Seconds;
        } else if (R.Seconds < Best) {
          Best = R.Seconds;
        }
      }
      Checksums[Fenced] = First.Checksum;
      V.Metrics.emplace_back("cold_rate",
                             double(First.ColdQueries) / double(NumQueries));
      V.Metrics.emplace_back("warm_buckets",
                             double(Tree.fenceWarmBuckets()));
      if (Best <= 0.0)
        Best = 1e-9; // Sub-tick smoke run; avoid dividing by zero.
      V.EventsPerSec = double(NumQueries) / Best;
      V.NsPerEvent = 1e9 * Best / double(NumQueries);
      W.Variants.push_back(std::move(V));
    }

    // The whole point: identical answers, faster clock. A checksum
    // mismatch is a correctness bug, not a benchmark artifact.
    if (Checksums[0] != Checksums[1]) {
      std::fprintf(stderr,
                   "bench_query: %s: fenced checksum %016llx != legacy "
                   "%016llx — the fence changed an answer\n",
                   W.Name.c_str(),
                   static_cast<unsigned long long>(Checksums[1]),
                   static_cast<unsigned long long>(Checksums[0]));
      return 1;
    }

    W.SpeedupVsLegacy =
        W.Variants[1].EventsPerSec / W.Variants[0].EventsPerSec;
    std::printf("%-8s", W.Name.c_str());
    for (const BenchVariant &V : W.Variants)
      std::printf("  %s %8.2f Mq/s (%6.1f ns/q)", V.Name.c_str(),
                  V.EventsPerSec / 1e6, V.NsPerEvent);
    std::printf("  speedup %.2fx  cold %2.0f%%  warm-buckets %.0f\n",
                W.SpeedupVsLegacy,
                100.0 * W.Variants[1].Metrics[0].second,
                W.Variants[1].Metrics[1].second);

    if (W.Name == "hotspot" && RequireSpeedup > 0.0 &&
        W.SpeedupVsLegacy < RequireSpeedup) {
      std::fprintf(stderr,
                   "bench_query: hotspot speedup %.2fx below the required "
                   "%.2fx\n",
                   W.SpeedupVsLegacy, RequireSpeedup);
      GatesHold = false;
    }

    Report.Workloads.push_back(std::move(W));
  }

  // Self-check before pinning: a report this binary cannot validate
  // must never be committed as a baseline.
  std::vector<std::string> Problems;
  if (!validateBenchReport(Report, Problems)) {
    for (const std::string &P : Problems)
      std::fprintf(stderr, "bench_query: generated report invalid: %s\n",
                   P.c_str());
    return 1;
  }

  const std::string &Out = Args.getString("out");
  std::ofstream OS(Out, std::ios::binary);
  if (!OS) {
    std::fprintf(stderr, "bench_query: cannot write %s\n", Out.c_str());
    return 1;
  }
  OS << serializeBenchReport(Report);
  std::printf("wrote %s\n", Out.c_str());
  return GatesHold ? 0 : 1;
}
