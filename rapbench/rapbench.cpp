//===- rapbench/rapbench.cpp - End-to-end and per-layer RAP benchmark ----===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// One process, one named workload, driven only through the library's
// public API in the order `rap_profile --mode=collect` and then
// `--mode=report` use it:
//
//   trace    TraceWriter (set-up) / TraceReader::next
//   stage0   StageZeroBuffer::push / drain
//   tree     RapTree::addPoint, splits included
//   merge    the addPoint calls that cross nextMergeAt()
//   snapshot ProfileSnapshot::capture / writeBinary / readBinary / restore
//   query    estimateRangeBounds, topK, extractHotRanges, coverageByWidth
//   session  ShardedRapSession (concurrent ingest, reads beside writes)
//
// Every answer is checked against ExactProfiler outside the timed
// regions. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace=0 the
// metrics are the end-to-end ones, with --trace=1 the per-layer ones
// taken from spans recorded around the calls above. README.md in this
// directory explains the workloads and the layer -> metric map.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "baselines/ExactProfiler.h"
#include "core/Analysis.h"
#include "core/RapTree.h"
#include "core/Serialization.h"
#include "core/ShardedRapSession.h"
#include "core/StageZeroBuffer.h"
#include "support/ArgParse.h"
#include "support/MiniJson.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "trace/ProgramModel.h"
#include "trace/TraceIO.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace rap;
using namespace rapbench;

namespace {

constexpr double HotPhi = 0.10;
constexpr size_t ReportTopK = 16;
constexpr uint64_t StageZeroCapacity = 16384;
constexpr size_t DecodeBlock = 4096;
constexpr unsigned SessionShards = 16;
constexpr unsigned SetupRepeats = 3;
/// A traced run keeps one span per query call, up to this many calls.
constexpr size_t MaxTracedQuerySamples = 50000;

/// Input sizes per workload. The self-test runs every workload at the
/// small size.
struct Sizes {
  uint64_t GccRecords = 0;
  uint64_t McfEventsPerProducer = 0;
  size_t Queries = 0;
  size_t SessionReports = 0;
};

Sizes sizesFor(const std::string &Workload, bool Small) {
  if (Small)
    return {40000, 20000, 200, 4};
  if (Workload == "gcc-code")
    return {4000000, 0, 20000, 0};
  if (Workload == "gcc-value-fine")
    return {4000000, 0, 2000, 0};
  return {0, 1000000, 10000, 4};
}

//===-- Checks and statistics --------------------------------------------===//

/// Counts checked operations and failures. Checks run outside the
/// timed regions.
class Checker {
public:
  void expect(bool Ok, const char *What) {
    ++Attempted;
    if (Ok)
      return;
    if (++Failed <= 20)
      std::fprintf(stderr, "check failed: %s\n", What);
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + static_cast<ptrdiff_t>(Mid),
                   V.end());
  double Hi = V[Mid];
  if (V.size() % 2 == 1)
    return Hi;
  return 0.5 * (Hi + *std::max_element(
                         V.begin(), V.begin() + static_cast<ptrdiff_t>(Mid)));
}

/// Nearest-rank percentile \p P in [0, 100] of \p V.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  size_t Idx = Rank == 0 ? 0 : Rank - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<ptrdiff_t>(Idx),
                   V.end());
  return V[Idx];
}

double seconds(int64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

/// The end-to-end time metrics report the fastest of a run's
/// repetitions (the highest rate for throughputs): on a shared host
/// the slower repetitions are the ones other tenants interrupted, so
/// the fastest is the repeatable figure. The per-layer metrics keep
/// medians.
double fastest(const std::vector<double> &Times) {
  return Times.empty() ? 0.0 : *std::min_element(Times.begin(), Times.end());
}
double highest(const std::vector<double> &Rates) {
  return Rates.empty() ? 0.0 : *std::max_element(Rates.begin(), Rates.end());
}

/// A run keeps adding rounds while it is under its minimum round
/// count, or under both its measuring time and its round cap.
class Budget {
public:
  Budget(double Seconds, size_t MinReps, size_t MaxReps)
      : EndNs(nowNs() + static_cast<int64_t>(Seconds * 1e9)),
        MinReps(MinReps), MaxReps(MaxReps) {}
  bool another(size_t Done) const {
    if (Done < MinReps)
      return true;
    return Done < MaxReps && nowNs() < EndNs;
  }

private:
  int64_t EndNs;
  size_t MinReps;
  size_t MaxReps;
};

//===-- Input integrity ---------------------------------------------------===//

constexpr uint64_t HashSeed = 0xcbf29ce484222325ULL;
constexpr uint64_t HashPrime = 0x100000001b3ULL;

/// Word-wise FNV-1a: one multiply per word keeps it cheap enough to
/// run on every decoded record inside the timed ingest loop.
inline void hashWord(uint64_t &H, uint64_t Word) {
  H = (H ^ Word) * HashPrime;
}

inline void hashRecord(uint64_t &H, const TraceRecord &R) {
  hashWord(H, R.BlockPc ^ (uint64_t(R.BlockLength) << 40) ^
                  (uint64_t(R.HasLoad) << 62) ^
                  (uint64_t(R.NarrowOperand) << 63));
  if (R.HasLoad) {
    hashWord(H, R.LoadAddress);
    hashWord(H, R.LoadValue);
  }
}

/// What a workload's set-up generated; recorded per seed in
/// inputs.json so that a change to the generators in src/trace shows
/// as a changed workload rather than as a speed-up.
struct InputId {
  uint64_t Records = 0; ///< TraceRecords generated.
  uint64_t Events = 0;  ///< Events handed to the profile.
  uint64_t Hash = 0;    ///< hashRecord over every generated record.
};

std::string hexHash(uint64_t H) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, H);
  return Buf;
}

/// Compares \p Id with the entry for (workload, seed) in \p Path, when
/// the file has one. The recorded inputs are the full-size ones.
void checkRecordedInput(const std::string &Path, const std::string &Workload,
                        uint64_t Seed, const InputId &Id, Checker &Check) {
  if (Path.empty())
    return;
  std::ifstream In(Path);
  if (!In) {
    std::printf("input: no recorded inputs at %s\n", Path.c_str());
    return;
  }
  std::stringstream Text;
  Text << In.rdbuf();
  std::string Error;
  json::Value Root = json::parse(Text.str(), &Error);
  Check.expect(Error.empty(), "recorded inputs file parses");
  const json::Value *W = Root.get(Workload);
  const json::Value *E = W ? W->get(std::to_string(Seed)) : nullptr;
  if (!E) {
    std::printf("input: seed %" PRIu64 " not recorded for %s\n", Seed,
                Workload.c_str());
    return;
  }
  const json::Value *Records = E->get("records");
  const json::Value *Events = E->get("events");
  const json::Value *Hash = E->get("hash");
  bool Same = Records && Events && Hash && Hash->isString() &&
              Records->asUint() == Id.Records &&
              Events->asUint() == Id.Events &&
              Hash->asString() == hexHash(Id.Hash);
  std::printf("input: %s recorded inputs for seed %" PRIu64 "\n",
              Same ? "matches" : "DIFFERS FROM", Seed);
  Check.expect(Same, "generated input matches the recorded input");
}

//===-- Query sets ---------------------------------------------------------===//

struct Query {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
};

/// The query set. Half the queries are anchored on one of the 64
/// heaviest values, half are uniform over the universe, with widths
/// log-uniform over [1, 2^RangeBits]. Every 16th uniform query spans
/// the whole universe instead: the bracket on the total a report starts
/// from, and the costliest walk. That class (1/32 of the set) puts the
/// 99th percentile inside one class of queries rather than on the edge
/// between two, and keeps the cheap cold uniform queries clearly below
/// half, so the median does not sit on that edge either. Widths are
/// stratified (one draw per equal-probability stratum, then shuffled)
/// so the width mix itself, not only its expectation, is the same for
/// every seed.
std::vector<Query> makeQueries(const ExactProfiler &Exact, unsigned RangeBits,
                               size_t Count, uint64_t Seed) {
  std::vector<std::pair<uint64_t, uint64_t>> Heavy =
      Exact.heavyValues(std::max<uint64_t>(1, Exact.numEvents() / 100000));
  std::sort(Heavy.begin(), Heavy.end(), [](const auto &A, const auto &B) {
    return A.second != B.second ? A.second > B.second : A.first < B.first;
  });
  if (Heavy.size() > 64)
    Heavy.resize(64);
  const uint64_t Max = RangeBits == 64 ? ~uint64_t(0)
                                       : (uint64_t(1) << RangeBits) - 1;
  Rng R(Seed ^ 0x7175657279ULL);
  enum Kind { Anchored, Uniform, Whole };
  auto KindOf = [&](size_t I) {
    if (I % 2 == 1 && !Heavy.empty())
      return Anchored;
    return I % 32 == 30 ? Whole : Uniform;
  };
  std::vector<double> Bits[2];
  for (size_t I = 0; I != Count; ++I)
    if (KindOf(I) != Whole)
      Bits[KindOf(I)].push_back(0.0);
  for (std::vector<double> &B : Bits) {
    for (size_t J = 0; J != B.size(); ++J)
      B[J] = (static_cast<double>(J) + R.nextDouble()) /
             static_cast<double>(B.size()) * RangeBits;
    for (size_t J = B.size(); J > 1; --J)
      std::swap(B[J - 1], B[R.nextBelow(J)]);
  }
  size_t Next[2] = {0, 0};
  std::vector<Query> Out;
  Out.reserve(Count);
  for (size_t I = 0; I != Count; ++I) {
    Query Q;
    Q.Hi = Max;
    Kind K = KindOf(I);
    if (K == Whole) {
      Out.push_back(Q);
      continue;
    }
    double Width = std::exp2(Bits[K][Next[K]++]);
    if (Width >= static_cast<double>(Max)) {
      Out.push_back(Q);
      continue;
    }
    uint64_t W = std::max<uint64_t>(1, static_cast<uint64_t>(Width));
    if (K == Anchored) {
      uint64_t Anchor = Heavy[R.nextBelow(Heavy.size())].first;
      uint64_t Offset = R.nextBelow(W);
      Q.Lo = Anchor >= Offset ? Anchor - Offset : 0;
      Q.Hi = Max - Q.Lo < W - 1 ? Max : Q.Lo + (W - 1);
    } else {
      Q.Lo = R.nextInRange(0, Max - (W - 1));
      Q.Hi = Q.Lo + (W - 1);
    }
    Out.push_back(Q);
  }
  return Out;
}

std::vector<uint64_t> exactCounts(const ExactProfiler &Exact,
                                  const std::vector<Query> &Queries) {
  std::vector<uint64_t> Out;
  Out.reserve(Queries.size());
  for (const Query &Q : Queries)
    Out.push_back(Exact.countInRange(Q.Lo, Q.Hi));
  return Out;
}

/// The paper's Fig 8 measure: largest percent error of a hot-range
/// estimate against the exact count. Also checks that each estimate
/// is the lower bound the tree promises.
double hotErrorMaxPct(const std::vector<HotRange> &Hot,
                      const ExactProfiler &Exact, Checker &Check) {
  double Max = 0.0;
  for (const HotRange &H : Hot) {
    uint64_t Actual = Exact.countInRange(H.Lo, H.Hi);
    Check.expect(H.SubtreeWeight <= Actual,
                 "hot-range estimate is a lower bound");
    if (Actual != 0)
      Max = std::max(Max, percentError(static_cast<double>(H.SubtreeWeight),
                                       static_cast<double>(Actual)));
  }
  return Max;
}

/// The tree's error allowance eps * n.
double epsN(const RapConfig &Config, uint64_t NumEvents) {
  return Config.Epsilon * static_cast<double>(NumEvents);
}

/// How far a bracket's lower end falls below the exact count, in units
/// of the error allowance \p EpsN.
double undercount(const RapTree::RangeBounds &B, uint64_t Exact,
                  double EpsN) {
  return static_cast<double>(Exact - std::min(Exact, B.Lower)) / EpsN;
}

//===-- Metrics output -----------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }

  /// Prints every metric (and anything in \p Extra) as a table, then
  /// the result line.
  void print(const Checker &Check, const std::vector<Metric> &Extra) const {
    for (const std::vector<Metric> *List : {&Metrics, &Extra})
      for (const Metric &M : *List)
        std::printf("  %-36s %18.6g %s\n", M.Name.c_str(), M.Value,
                    M.Unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                Check.failed() == 0 ? "true" : "false", Check.attempted(),
                Check.failed());
    for (size_t I = 0; I != Metrics.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I == 0 ? "" : ", ", Metrics[I].Name.c_str(),
                  std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0,
                  Metrics[I].Unit.c_str());
    std::printf("}}\n");
  }

private:
  std::vector<Metric> Metrics;
};

/// Everything a workload measured, end to end and per layer. A layer
/// the workload bypasses reports zero work.
struct Results {
  // End to end.
  double IngestEventsPerS = 0, SnapshotSaveMs = 0, SnapshotLoadMs = 0;
  double QueryP50Us = 0, QueryP99Us = 0, ReportMs = 0, TreeBytes = 0;
  double RangeUndercount = 0, HotErrorMaxPct = 0, SetupS = 0;
  uint64_t QuerySamples = 0;
  // Per layer.
  double DecodeS = 0, TraceRecords = 0, TraceBytes = 0;
  double PushS = 0, DrainS = 0, Drains = 0, CombineRatio = 0;
  double DeliverS = 0, Deliveries = 0, Splits = 0, NodesFinal = 0;
  double NodesPeak = 0, BytesPerNode = 0;
  double MergeS = 0, MergePasses = 0, NodesFolded = 0;
  double CaptureS = 0, WriteS = 0, ReadS = 0, RestoreS = 0, SnapshotBytes = 0;
  double RangeS = 0, QueryCount = 0, TopKS = 0, HotS = 0, CoverageS = 0;
  double BusyMaxS = 0, BusyMinS = 0, Combines = 0, CombinedNodes = 0;
  double ReaderLateMaxUs = 0, ReadP50Us = 0, ReadP99Us = 0;
  double SingleTreeEventsPerS = 0;
  double TracingOverhead = 0;
};

void emit(const Results &R, bool Traced, const Checker &Check) {
  Report Out;
  double FailedFrac = Check.attempted() == 0
                          ? 1.0
                          : static_cast<double>(Check.failed()) /
                                static_cast<double>(Check.attempted());
  std::vector<Metric> Extra = {
      {"failed_frac", FailedFrac, "ratio"},
      {"query_samples", static_cast<double>(R.QuerySamples), "count"}};
  if (!Traced) {
    Out.add("ingest_events_per_s", R.IngestEventsPerS, "events/s");
    Out.add("snapshot_save_ms", R.SnapshotSaveMs, "ms");
    Out.add("snapshot_load_ms", R.SnapshotLoadMs, "ms");
    Out.add("query_p50_us", R.QueryP50Us, "us");
    Out.add("query_p99_us", R.QueryP99Us, "us");
    Out.add("report_ms", R.ReportMs, "ms");
    Out.add("tree_bytes", R.TreeBytes, "bytes");
    Out.add("range_undercount", R.RangeUndercount, "ratio");
    Out.add("setup_s", R.SetupS, "s");
    Extra.push_back({"hot_error_max_pct", R.HotErrorMaxPct, "%"});
    Extra.push_back({"session.read_p50_us", R.ReadP50Us, "us"});
    Extra.push_back({"session.read_p99_us", R.ReadP99Us, "us"});
  } else {
    Out.add("trace.decode_s", R.DecodeS, "s");
    Out.add("trace.records", R.TraceRecords, "count");
    Out.add("trace.bytes", R.TraceBytes, "bytes");
    Out.add("stage0.push_s", R.PushS, "s");
    Out.add("stage0.drain_s", R.DrainS, "s");
    Out.add("stage0.drains", R.Drains, "count");
    Out.add("stage0.combine_ratio", R.CombineRatio, "ratio");
    Out.add("tree.deliver_s", R.DeliverS, "s");
    Out.add("tree.deliveries", R.Deliveries, "count");
    Out.add("tree.splits", R.Splits, "count");
    Out.add("tree.nodes_final", R.NodesFinal, "count");
    Out.add("tree.nodes_peak", R.NodesPeak, "count");
    Out.add("tree.bytes_per_node", R.BytesPerNode, "bytes");
    Out.add("merge.trigger_s", R.MergeS, "s");
    Out.add("merge.passes", R.MergePasses, "count");
    Out.add("merge.nodes_folded", R.NodesFolded, "count");
    Out.add("snapshot.capture_s", R.CaptureS, "s");
    Out.add("snapshot.write_s", R.WriteS, "s");
    Out.add("snapshot.read_s", R.ReadS, "s");
    Out.add("snapshot.restore_s", R.RestoreS, "s");
    Out.add("snapshot.bytes", R.SnapshotBytes, "bytes");
    Out.add("query.range_s", R.RangeS, "s");
    Out.add("query.count", R.QueryCount, "count");
    Out.add("query.topk_s", R.TopKS, "s");
    Out.add("query.hot_s", R.HotS, "s");
    Out.add("query.coverage_s", R.CoverageS, "s");
    Out.add("query.hot_error_max_pct", R.HotErrorMaxPct, "%");
    Out.add("session.producer_busy_max_s", R.BusyMaxS, "s");
    Out.add("session.producer_busy_min_s", R.BusyMinS, "s");
    Out.add("session.combines", R.Combines, "count");
    Out.add("session.combined_nodes", R.CombinedNodes, "count");
    Out.add("session.reader_late_max_us", R.ReaderLateMaxUs, "us");
    Out.add("session.read_p50_us", R.ReadP50Us, "us");
    Out.add("session.read_p99_us", R.ReadP99Us, "us");
    Out.add("session.single_tree_events_per_s", R.SingleTreeEventsPerS,
            "events/s");
    Out.add("tracing_overhead", R.TracingOverhead, "ratio");
    // The untraced passes of this run, for reading the overhead.
    Extra.push_back(
        {"ingest_events_per_s(untraced)", R.IngestEventsPerS, "events/s"});
  }
  Out.print(Check, Extra);
}

//===-- Tree delivery (shared by stage-0 drains and the single tree) ------===//

inline uint64_t eventOf(const std::pair<uint64_t, uint64_t> &P) {
  return P.first;
}
inline uint64_t weightOf(const std::pair<uint64_t, uint64_t> &P) {
  return P.second;
}
inline uint64_t eventOf(uint64_t X) { return X; }
inline uint64_t weightOf(uint64_t) { return 1; }

/// Feeds [First, Last) into \p Tree. Traced, the batch is one
/// "tree.deliver" span and each addPoint that will cross
/// nextMergeAt() (known before the call) is a "merge.trigger" child.
template <bool Traced, typename It>
void deliver(RapTree &Tree, It First, It Last, SpanLog *Log) {
  if constexpr (Traced) {
    Log->begin("tree.deliver");
    for (; First != Last; ++First) {
      uint64_t W = weightOf(*First);
      if (Tree.config().EnableMerges &&
          saturatingAdd(Tree.numEvents(), W) >= Tree.nextMergeAt()) {
        Log->begin("merge.trigger");
        Tree.addPoint(eventOf(*First), W);
        Log->end();
      } else {
        Tree.addPoint(eventOf(*First), W);
      }
    }
    Log->end();
  } else {
    for (; First != Last; ++First)
      Tree.addPoint(eventOf(*First), weightOf(*First));
  }
}

void recordTree(const RapTree &Tree, Results &R) {
  R.Splits = static_cast<double>(Tree.numSplits());
  R.NodesFinal = static_cast<double>(Tree.numNodes());
  R.NodesPeak = static_cast<double>(Tree.maxNumNodes());
  R.BytesPerNode = static_cast<double>(Tree.arenaBytes()) /
                   static_cast<double>(Tree.numNodes());
  R.MergePasses = static_cast<double>(Tree.numMergePasses());
  R.NodesFolded = static_cast<double>(Tree.numMergedNodes());
  R.TreeBytes = static_cast<double>(Tree.arenaBytes());
}

//===-- Snapshot, query and report rounds ----------------------------------===//

/// What the repeated phases gather over a run. A run is a sequence of
/// rounds, each an ingest pass followed by snapshot, query and report
/// repetitions, so every phase samples the whole run rather than one
/// slice of it: on a shared host the speed of the machine drifts over
/// seconds, and a phase confined to one slice would catch only that
/// slice's speed.
struct RoundSamples {
  std::vector<double> SaveMs, LoadMs, ReportMs;
  std::vector<double> QueryBestUs; ///< Per query, its fastest call.
  uint64_t QueryCalls = 0;
  uint64_t TracedQueryCalls = 0;
  uint64_t QuerySink = 0; ///< Folds every answer, so none is optimized out.
  std::string SnapshotBytes;
};

/// Repeats capture + writeBinary and readBinary + restore for at least
/// \p MinSeconds (once at least). Returns the last restored tree.
std::unique_ptr<RapTree> snapshotRound(const RapTree &Tree, double MinSeconds,
                                       SpanLog *Log, RoundSamples &S,
                                       Checker &Check) {
  std::unique_ptr<RapTree> Restored;
  const int64_t Until = nowNs() + static_cast<int64_t>(MinSeconds * 1e9);
  do {
    std::ostringstream OS;
    if (Log)
      Log->begin("snapshot");
    int64_t T0 = nowNs();
    if (Log)
      Log->begin("snapshot.capture");
    ProfileSnapshot Snap = ProfileSnapshot::capture(Tree);
    if (Log) {
      Log->end();
      Log->begin("snapshot.write");
    }
    bool Written = Snap.writeBinary(OS);
    if (Log)
      Log->end();
    int64_t T1 = nowNs();
    S.SnapshotBytes = OS.str();
    std::istringstream IS(S.SnapshotBytes);
    int64_t T2 = nowNs();
    if (Log)
      Log->begin("snapshot.read");
    std::string Error;
    std::unique_ptr<ProfileSnapshot> Read =
        ProfileSnapshot::readBinary(IS, &Error);
    if (Log) {
      Log->end();
      Log->begin("snapshot.restore");
    }
    Restored = Read ? Read->restore() : nullptr;
    if (Log)
      Log->end();
    int64_t T3 = nowNs();
    if (Log)
      Log->end();
    S.SaveMs.push_back(static_cast<double>(T1 - T0) * 1e-6);
    S.LoadMs.push_back(static_cast<double>(T3 - T2) * 1e-6);
    Check.expect(Written, "snapshot writes");
    Check.expect(Read && *Read == Snap, "snapshot round trip is equal");
    Check.expect(Restored && Restored->numEvents() == Tree.numEvents() &&
                     Restored->numNodes() == Tree.numNodes(),
                 "restored tree matches the live tree");
  } while (Restored && nowNs() < Until);
  return Restored;
}

/// Closed loop, one caller: estimateRangeBounds over the query set on
/// the restored tree, each call timed, set after set for at least
/// \p MinSeconds (one set at least). A query's latency is its fastest
/// call over the run, and p50/p99 are taken over the query set, so
/// they rank the queries' own costs rather than the interruptions of
/// one pass. With \p CheckAll the first set's brackets are checked
/// against the exact counts and against the live tree, and the mean
/// undercount of the set (see undercount()) is returned.
double queryRound(const RapTree &Restored, const RapTree &Live,
                  const std::vector<Query> &Queries,
                  const std::vector<uint64_t> &QueryExact, double MinSeconds,
                  bool CheckAll, SpanLog *Log, RoundSamples &S,
                  Checker &Check) {
  S.QueryBestUs.resize(Queries.size(), HUGE_VAL);
  double Under = 0;
  const double EpsN = epsN(Live.config(), Live.numEvents());
  const int64_t Until = nowNs() + static_cast<int64_t>(MinSeconds * 1e9);
  do {
    // A traced run keeps one span per call, so it stops tracing queries
    // after a while.
    if (Log && S.TracedQueryCalls + Queries.size() > MaxTracedQuerySamples)
      Log = nullptr;
    if (Log) {
      S.TracedQueryCalls += Queries.size();
      Log->begin("query.set");
    }
    for (size_t I = 0; I != Queries.size(); ++I) {
      const Query &Q = Queries[I];
      if (Log)
        Log->begin("query.range");
      int64_t T0 = nowNs();
      RapTree::RangeBounds Got = Restored.estimateRangeBounds(Q.Lo, Q.Hi);
      int64_t T1 = nowNs();
      if (Log)
        Log->end();
      S.QueryBestUs[I] =
          std::min(S.QueryBestUs[I], static_cast<double>(T1 - T0) * 1e-3);
      S.QuerySink += Got.Lower ^ Got.Upper;
      if (CheckAll) {
        RapTree::RangeBounds Want = Live.estimateRangeBounds(Q.Lo, Q.Hi);
        Under += undercount(Got, QueryExact[I], EpsN);
        Check.expect(Got.Lower <= QueryExact[I] &&
                         QueryExact[I] <= Got.Upper,
                     "range bracket holds the exact count");
        Check.expect(Got.Lower == Want.Lower && Got.Upper == Want.Upper,
                     "restored tree answers like the live tree");
      }
    }
    if (Log)
      Log->end();
    S.QueryCalls += Queries.size();
    CheckAll = false;
  } while (nowNs() < Until);
  return Under / static_cast<double>(Queries.size());
}

/// What `rap_profile --mode=report` computes, minus printing, repeated
/// for at least \p MinSeconds (once at least). With \p CheckAll the
/// first pass's answers are checked.
void reportRound(const RapTree &Tree, const ExactProfiler &Exact,
                 double MinSeconds, bool CheckAll, SpanLog *Log,
                 RoundSamples &S, Checker &Check) {
  std::vector<unsigned> Grid;
  for (unsigned W = 0; W <= Tree.config().RangeBits; W += 8)
    Grid.push_back(W);
  const int64_t Until = nowNs() + static_cast<int64_t>(MinSeconds * 1e9);
  do {
    if (Log)
      Log->begin("report");
    int64_t T0 = nowNs();
    if (Log)
      Log->begin("query.hot");
    std::vector<HotRange> Hot = Tree.extractHotRanges(HotPhi);
    if (Log) {
      Log->end();
      Log->begin("query.topk");
    }
    std::vector<TopKRange> Top = Tree.topK(ReportTopK);
    if (Log) {
      Log->end();
      Log->begin("query.coverage");
    }
    std::vector<CoveragePoint> Coverage = coverageByWidth(Tree, HotPhi, Grid);
    if (Log)
      Log->end();
    int64_t T1 = nowNs();
    if (Log)
      Log->end();
    S.ReportMs.push_back(static_cast<double>(T1 - T0) * 1e-6);
    if (CheckAll) {
      CheckAll = false;
      Check.expect(!Hot.empty(), "report finds hot ranges");
      Check.expect(Coverage.size() == Grid.size(), "coverage curve complete");
      Check.expect(Top.size() == std::min<uint64_t>(ReportTopK,
                                                     Tree.numNodes()),
                   "topK returns k ranges");
      for (const TopKRange &T : Top) {
        uint64_t Actual = Exact.countInRange(T.Lo, T.Hi);
        Check.expect(T.LowerWeight <= Actual && Actual <= T.UpperWeight,
                     "topK bracket holds the exact count");
      }
    }
  } while (nowNs() < Until);
}

/// Moves what the rounds gathered into \p R: fastest repetitions for
/// the end-to-end times, medians of the traced spans per layer.
void finishRounds(const RoundSamples &S, bool Traced, bool WithReport,
                  const SpanLog &Log, Results &R) {
  std::printf("query checksum: %" PRIu64 "\n", S.QuerySink);
  R.SnapshotSaveMs = fastest(S.SaveMs);
  R.SnapshotLoadMs = fastest(S.LoadMs);
  R.SnapshotBytes = static_cast<double>(S.SnapshotBytes.size());
  R.QueryP50Us = percentile(S.QueryBestUs, 50);
  R.QueryP99Us = percentile(S.QueryBestUs, 99);
  R.QuerySamples = S.QueryCalls;
  R.QueryCount = static_cast<double>(S.QueryBestUs.size());
  if (WithReport)
    R.ReportMs = fastest(S.ReportMs);
  if (!Traced)
    return;
  R.CaptureS = median(Log.selfSecondsPerRoot("snapshot", "snapshot.capture"));
  R.WriteS = median(Log.selfSecondsPerRoot("snapshot", "snapshot.write"));
  R.ReadS = median(Log.selfSecondsPerRoot("snapshot", "snapshot.read"));
  R.RestoreS = median(Log.selfSecondsPerRoot("snapshot", "snapshot.restore"));
  R.RangeS = median(Log.selfSecondsPerRoot("query.set", "query.range"));
  if (WithReport) {
    R.HotS = median(Log.selfSecondsPerRoot("report", "query.hot"));
    R.TopKS = median(Log.selfSecondsPerRoot("report", "query.topk"));
    R.CoverageS = median(Log.selfSecondsPerRoot("report", "query.coverage"));
  }
}

//===-- gcc-code and gcc-value-fine ----------------------------------------===//

enum class Field { Code, Value };

struct GccInput {
  RapConfig Config;
  Field Feed = Field::Code;
  std::string TraceBytes;
  InputId Id;
  ExactProfiler Exact;
  std::vector<Query> Queries;
  std::vector<uint64_t> QueryExact;
};

/// What one ingest pass needs, built before its clock starts.
struct GccPipeline {
  std::unique_ptr<RapTree> Tree;
  std::unique_ptr<StageZeroBuffer> Buffer;
  std::unique_ptr<std::istringstream> Trace;
};

GccPipeline makePipeline(const GccInput &In) {
  GccPipeline P;
  P.Tree = std::make_unique<RapTree>(In.Config);
  P.Buffer = std::make_unique<StageZeroBuffer>(StageZeroCapacity);
  P.Trace = std::make_unique<std::istringstream>(In.TraceBytes);
  return P;
}

std::unique_ptr<GccInput> setupGcc(Field Feed, uint64_t Seed, const Sizes &S,
                                   bool InjectWrongCount, Checker &Check) {
  auto In = std::make_unique<GccInput>();
  In->Feed = Feed;
  In->Config.RangeBits = Feed == Field::Code ? ProgramModel::PcRangeBits
                                             : ProgramModel::ValueRangeBits;
  In->Config.Epsilon = Feed == Field::Code ? 0.01 : 1e-4;
  ProgramModel Model(getBenchmarkSpec("gcc"), Seed);
  std::stringstream SS;
  TraceWriter Writer(SS);
  uint64_t H = HashSeed;
  for (uint64_t I = 0; I != S.GccRecords; ++I) {
    TraceRecord Rec = Model.next();
    hashRecord(H, Rec);
    Writer.append(Rec);
    if (Feed == Field::Code) {
      In->Exact.addPoint(Rec.BlockPc, Rec.BlockLength);
      ++In->Id.Events;
    } else if (Rec.HasLoad) {
      In->Exact.addPoint(Rec.LoadValue);
      ++In->Id.Events;
    }
  }
  Check.expect(Writer.finish(), "trace encodes");
  In->Id.Records = S.GccRecords;
  In->Id.Hash = H;
  In->TraceBytes = SS.str();
  In->Queries = makeQueries(In->Exact, In->Config.RangeBits, S.Queries, Seed);
  In->QueryExact = exactCounts(In->Exact, In->Queries);
  if (InjectWrongCount)
    In->QueryExact[0] = In->Exact.numEvents() + 1;
  return In;
}

struct IngestPass {
  double Seconds = 0;
  uint64_t Records = 0;
  uint64_t Hash = 0;
  uint64_t Drains = 0;
  uint64_t Deliveries = 0;
  bool DecodeOk = false;
  /// Untraced passes: the time of each segment of the pass, a segment
  /// being one decoded block with its pushes and the drains they set
  /// off (the last one is the final drain).
  std::vector<int64_t> SegmentNs;
};

/// One collect pass: decode blocks of records, push their events into
/// stage 0, and deliver every drain to the tree. The clock stops once
/// the final drain is delivered.
template <bool Traced>
IngestPass ingestGcc(const GccInput &In, GccPipeline &P, SpanLog *Log) {
  IngestPass Out;
  RapTree &Tree = *P.Tree;
  StageZeroBuffer &Buffer = *P.Buffer;
  std::vector<TraceRecord> Block(DecodeBlock);
  uint64_t H = HashSeed;
  auto Drain = [&] {
    if constexpr (Traced)
      Log->begin("stage0.drain");
    const std::vector<std::pair<uint64_t, uint64_t>> &Pairs = Buffer.drain();
    if constexpr (Traced)
      Log->end();
    deliver<Traced>(Tree, Pairs.begin(), Pairs.end(), Log);
    ++Out.Drains;
    Out.Deliveries += Pairs.size();
  };
  if constexpr (Traced)
    Log->begin("ingest");
  else
    Out.SegmentNs.reserve(In.Id.Records / DecodeBlock + 2);
  int64_t Start = nowNs();
  int64_t SegmentStart = Start;
  if constexpr (Traced)
    Log->begin("trace.decode");
  TraceReader Reader(*P.Trace);
  if constexpr (Traced)
    Log->end();
  while (Reader.valid()) {
    if constexpr (Traced)
      Log->begin("trace.decode");
    size_t N = 0;
    while (N != DecodeBlock && Reader.next(Block[N])) {
      hashRecord(H, Block[N]);
      ++N;
    }
    if constexpr (Traced)
      Log->end();
    if (N == 0)
      break;
    Out.Records += N;
    if constexpr (Traced)
      Log->begin("stage0.push");
    for (size_t I = 0; I != N; ++I) {
      const TraceRecord &Rec = Block[I];
      bool Full;
      if (In.Feed == Field::Code)
        Full = Buffer.push(Rec.BlockPc, Rec.BlockLength);
      else if (Rec.HasLoad)
        Full = Buffer.push(Rec.LoadValue);
      else
        continue;
      if (Full) {
        if constexpr (Traced)
          Log->end();
        Drain();
        if constexpr (Traced)
          Log->begin("stage0.push");
      }
    }
    if constexpr (Traced) {
      Log->end();
    } else {
      int64_t Now = nowNs();
      Out.SegmentNs.push_back(Now - SegmentStart);
      SegmentStart = Now;
    }
  }
  Drain();
  int64_t End = nowNs();
  if constexpr (!Traced)
    Out.SegmentNs.push_back(End - SegmentStart);
  if constexpr (Traced)
    Log->end();
  Out.Seconds = seconds(End - Start);
  Out.Hash = H;
  Out.DecodeOk = Reader.valid();
  return Out;
}

void runGcc(Field Feed, uint64_t Seed, double Seconds, bool Traced,
            const Sizes &S, bool InjectWrongCount, const std::string &Inputs,
            const std::string &Workload, SpanLog &Log, Results &R,
            Checker &Check) {
  std::unique_ptr<GccInput> In;
  GccPipeline First;
  std::vector<double> SetupS;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    int64_t T0 = nowNs();
    std::unique_ptr<GccInput> Next =
        setupGcc(Feed, Seed, S, InjectWrongCount, Check);
    First = makePipeline(*Next);
    SetupS.push_back(seconds(nowNs() - T0));
    if (In)
      Check.expect(Next->Id.Hash == In->Id.Hash && Next->TraceBytes ==
                                                       In->TraceBytes,
                   "set-up is deterministic");
    In = std::move(Next);
  }
  R.SetupS = median(SetupS);
  std::printf("input: records=%" PRIu64 " events=%" PRIu64 " hash=%s\n",
              In->Id.Records, In->Id.Events, hexHash(In->Id.Hash).c_str());
  checkRecordedInput(Inputs, Workload, Seed, In->Id, Check);

  // Rounds of ingest, snapshot, query and report. A traced run
  // alternates untraced and traced rounds so the tracing overhead is
  // measured within one process. The snapshot and report repetitions of
  // a round take a fixed share of its ingest time.
  std::vector<double> Plain, WithSpans;
  // Per segment of an ingest pass, its fastest time over the untraced
  // passes. Every pass does the same work segment by segment, so their
  // sum is the pass undisturbed: bursts of other tenants' work last
  // less than a pass, and this keeps them out of the ingest rate the
  // way per-query fastest calls keep them out of the query latencies.
  std::vector<double> BestSegmentNs;
  RoundSamples Samples;
  GccPipeline Kept;
  uint64_t Nodes = 0;
  Budget B(Seconds, Traced ? 6 : 3, 1000);
  for (size_t Round = 0; B.another(Round); ++Round) {
    GccPipeline P = Round == 0 ? std::move(First) : makePipeline(*In);
    SpanLog *L = Traced && Round % 2 == 1 ? &Log : nullptr;
    IngestPass Got = L ? ingestGcc<true>(*In, P, L)
                       : ingestGcc<false>(*In, P, nullptr);
    (L ? WithSpans : Plain)
        .push_back(static_cast<double>(Got.Records) / Got.Seconds);
    if (!L) {
      if (BestSegmentNs.empty())
        BestSegmentNs.assign(Got.SegmentNs.size(), HUGE_VAL);
      Check.expect(Got.SegmentNs.size() == BestSegmentNs.size(),
                   "ingest passes split into the same segments");
      for (size_t I = 0; I < std::min(Got.SegmentNs.size(),
                                      BestSegmentNs.size()); ++I)
        BestSegmentNs[I] = std::min(
            BestSegmentNs[I], static_cast<double>(Got.SegmentNs[I]));
    }
    Check.expect(Got.DecodeOk && Got.Records == In->Id.Records,
                 "trace decodes completely");
    Check.expect(Got.Hash == In->Id.Hash, "decoded records hash as generated");
    Check.expect(P.Tree->numEvents() == In->Exact.numEvents(),
                 "tree conserves every event");
    Check.expect(P.Buffer->rawEvents() == In->Exact.numEvents() &&
                     P.Buffer->size() == 0,
                 "stage 0 passes every event on");
    if (Round == 0)
      Nodes = P.Tree->numNodes();
    Check.expect(P.Tree->numNodes() == Nodes, "ingest is deterministic");
    R.Drains = static_cast<double>(Got.Drains);
    R.Deliveries = static_cast<double>(Got.Deliveries);

    std::unique_ptr<RapTree> Restored =
        snapshotRound(*P.Tree, 0.3 * Got.Seconds, L, Samples, Check);
    if (!Restored)
      return;
    double Under =
        queryRound(*Restored, *P.Tree, In->Queries, In->QueryExact,
                   0.3 * Got.Seconds, Round == 0, L, Samples, Check);
    if (Round == 0)
      R.RangeUndercount = Under;
    reportRound(*Restored, In->Exact, 0.2 * Got.Seconds, Round == 0, L,
                Samples, Check);
    Kept = std::move(P);
  }
  double BestNs = 0;
  for (double Ns : BestSegmentNs)
    BestNs += Ns;
  R.IngestEventsPerS = static_cast<double>(In->Id.Records) / (BestNs * 1e-9);
  const RapTree &Tree = *Kept.Tree;
  recordTree(Tree, R);
  R.TraceRecords = static_cast<double>(In->Id.Records);
  R.TraceBytes = static_cast<double>(In->TraceBytes.size());
  R.CombineRatio = Kept.Buffer->combiningFactor();
  R.HotErrorMaxPct =
      hotErrorMaxPct(Tree.extractHotRanges(HotPhi), In->Exact, Check);
  finishRounds(Samples, Traced, /*WithReport=*/true, Log, R);
  if (Traced) {
    R.TracingOverhead = highest(WithSpans) / highest(Plain);
    R.DecodeS = median(Log.selfSecondsPerRoot("ingest", "trace.decode"));
    R.PushS = median(Log.selfSecondsPerRoot("ingest", "stage0.push"));
    R.DrainS = median(Log.selfSecondsPerRoot("ingest", "stage0.drain"));
    R.DeliverS = median(Log.selfSecondsPerRoot("ingest", "tree.deliver"));
    R.MergeS = median(Log.selfSecondsPerRoot("ingest", "merge.trigger"));
  }
}

//===-- session-mcf ----------------------------------------------------------===//

struct SessionInput {
  RapConfig Config;
  std::vector<std::vector<uint64_t>> Streams;
  uint64_t Total = 0;
  /// hashWord over each producer's addresses, in stream order.
  std::vector<uint64_t> StreamHashes;
  InputId Id;
  ExactProfiler Exact; ///< The union of all producer streams.
  std::vector<Query> Queries;
  std::vector<uint64_t> QueryExact;
};

unsigned sessionProducers() {
  unsigned Threads = std::thread::hardware_concurrency();
  // One reader plus the producers, never more threads than the host
  // has (three producers on a 4-thread host).
  return Threads <= 2 ? 1u : std::min(3u, Threads - 1);
}

std::unique_ptr<SessionInput> setupSession(uint64_t Seed, const Sizes &S,
                                           bool InjectWrongCount) {
  auto In = std::make_unique<SessionInput>();
  In->Config.RangeBits = ProgramModel::AddressRangeBits;
  In->Config.Epsilon = 1e-3;
  uint64_t H = HashSeed;
  for (unsigned P = 0; P != sessionProducers(); ++P) {
    ProgramModel Model(getBenchmarkSpec("mcf"), Seed + P);
    uint64_t StreamHash = HashSeed;
    std::vector<uint64_t> Stream;
    Stream.reserve(S.McfEventsPerProducer);
    while (Stream.size() != S.McfEventsPerProducer) {
      TraceRecord Rec = Model.next();
      hashRecord(H, Rec);
      ++In->Id.Records;
      if (!Rec.HasLoad)
        continue;
      Stream.push_back(Rec.LoadAddress);
      hashWord(StreamHash, Rec.LoadAddress);
      In->Exact.addPoint(Rec.LoadAddress);
    }
    In->Streams.push_back(std::move(Stream));
    In->StreamHashes.push_back(StreamHash);
  }
  In->Total = In->Exact.numEvents();
  In->Id.Events = In->Total;
  In->Id.Hash = H;
  In->Queries = makeQueries(In->Exact, In->Config.RangeBits, S.Queries, Seed);
  In->QueryExact = exactCounts(In->Exact, In->Queries);
  if (InjectWrongCount)
    In->QueryExact[0] = In->Exact.numEvents() + 1;
  return In;
}

/// A report pass on the session is repeated this many times at each
/// report mark.
constexpr unsigned ReportRepeats = 2;

struct SessionPass {
  double Seconds = 0;
  /// The pass split at the report marks: from the start (or the
  /// producers' release from one mark) until the last producer reached
  /// the next mark (or the final combine is done).
  std::vector<int64_t> SegmentNs;
  std::vector<double> QueryUs;  ///< Due-to-answer latency per mark.
  std::vector<double> ReportMs; ///< Per report mark, its fastest pass.
  std::vector<uint64_t> MidLower;
  std::vector<double> BusyS;
  std::vector<uint64_t> StreamHashes;
  double LateMaxUs = 0;
  double TopKS = 0, HotS = 0;
};

/// Three producers ingest their own stream; one reader issues
/// combinedEstimateBounds at fixed ingest-progress marks (one per
/// query), beside the writes. Marks are stamped by the producer whose
/// progress crosses them, so a late reader is charged from when the
/// read was due. The reads are the same on every run, whatever its
/// speed.
///
/// At \p Reports report marks, spaced evenly through every stream, each
/// producer holds still once it has ingested that share of its stream,
/// and the reader times report passes on the session as it stands: the
/// same events ingested, the same profile, on every run. The held time
/// is left out of the ingest clock.
SessionPass runSessionPass(const SessionInput &In, ShardedRapSession &Session,
                           size_t Reports, bool Traced,
                           std::vector<SpanLog> &Logs) {
  constexpr uint64_t Chunk = 256;
  const size_t Marks = In.Queries.size();
  auto MarkAt = [&](size_t K) {
    return (uint64_t(K) + 1) * In.Total / (uint64_t(Marks) + 1);
  };
  std::vector<std::atomic<int64_t>> Due(Marks);
  for (std::atomic<int64_t> &D : Due)
    D.store(0, std::memory_order_relaxed);
  std::atomic<uint64_t> Progress{0};
  const size_t Producers = In.Streams.size();
  const size_t StreamLen = In.Streams.front().size();
  // Stream index at which every producer holds for report J.
  auto HoldAt = [&](size_t J) {
    return (J + 1) * StreamLen / (Reports + 1);
  };
  std::latch Start(static_cast<ptrdiff_t>(Producers + 2));
  std::barrier<> Hold(static_cast<ptrdiff_t>(Producers + 1));
  int64_t HeldNs = 0;
  std::vector<int64_t> ReleasedAt; // Per report mark.
  // Per producer and report mark, when the producer reached the mark.
  std::vector<std::vector<int64_t>> ArrivedAt(
      Producers, std::vector<int64_t>(Reports, 0));

  SessionPass Out;
  Out.QueryUs.resize(Marks);
  Out.MidLower.resize(Marks);
  Out.BusyS.resize(Producers);
  Out.StreamHashes.resize(Producers, HashSeed);

  auto Produce = [&](size_t P) {
    SpanLog &Log = Logs[P + 1];
    const std::vector<uint64_t> &Stream = In.Streams[P];
    uint64_t H = HashSeed;
    size_t NextHold = 0;
    int64_t Held = 0;
    Start.arrive_and_wait();
    if (Traced)
      Log.begin("session.produce");
    int64_t T0 = nowNs();
    for (size_t I = 0; I < Stream.size();) {
      size_t End = std::min<size_t>(Stream.size(), I + Chunk);
      if (NextHold < Reports)
        End = std::min(End, HoldAt(NextHold));
      for (size_t J = I; J != End; ++J) {
        Session.ingest(Stream[J]);
        hashWord(H, Stream[J]);
      }
      uint64_t Old = Progress.fetch_add(End - I, std::memory_order_acq_rel);
      uint64_t New = Old + (End - I);
      size_t K = static_cast<size_t>(Old * (Marks + 1) / In.Total);
      while (K > 0 && MarkAt(K - 1) > Old)
        --K;
      while (K < Marks && MarkAt(K) <= Old)
        ++K;
      if (K < Marks && MarkAt(K) <= New) {
        int64_t Now = nowNs();
        for (; K < Marks && MarkAt(K) <= New; ++K) {
          Due[K].store(Now, std::memory_order_release);
          Due[K].notify_one();
        }
      }
      I = End;
      if (NextHold < Reports && I == HoldAt(NextHold)) {
        int64_t H0 = nowNs();
        ArrivedAt[P][NextHold] = H0;
        Hold.arrive_and_wait(); // Every producer is at the mark.
        Hold.arrive_and_wait(); // The reader's reports are done.
        Held += nowNs() - H0;
        ++NextHold;
      }
    }
    Out.BusyS[P] = seconds(nowNs() - T0 - Held);
    if (Traced)
      Log.end();
    Out.StreamHashes[P] = H;
  };

  auto Read = [&] {
    SpanLog &Log = Logs[Producers + 1];
    int64_t TopKNs = 0, HotNs = 0;
    auto Report = [&] {
      Hold.arrive_and_wait();
      int64_t H0 = nowNs();
      double Best = HUGE_VAL;
      for (unsigned Rep = 0; Rep != ReportRepeats; ++Rep) {
        if (Traced)
          Log.begin("report");
        int64_t R0 = nowNs();
        std::vector<TopKRange> Top = Session.topKRanges(ReportTopK);
        int64_t R1 = nowNs();
        std::vector<HotRange> Hot = Session.combinedHotRanges(HotPhi);
        int64_t R2 = nowNs();
        if (Traced)
          Log.end();
        TopKNs += R1 - R0;
        HotNs += R2 - R1;
        Best = std::min(Best, static_cast<double>(R2 - R0) * 1e-6);
      }
      Out.ReportMs.push_back(Best);
      int64_t H1 = nowNs();
      HeldNs += H1 - H0;
      ReleasedAt.push_back(H1);
      Hold.arrive_and_wait();
    };
    Start.arrive_and_wait();
    size_t J = 0;
    for (size_t K = 0; K != Marks; ++K) {
      // Reports due before this mark; the producers hold at report J
      // only after every mark up to it has been stamped.
      for (; J < Reports && MarkAt(K) > Producers * HoldAt(J); ++J)
        Report();
      // Block rather than spin, so the reader takes no core from the
      // producers while it waits.
      Due[K].wait(0, std::memory_order_acquire);
      int64_t DueNs = Due[K].load(std::memory_order_acquire);
      const Query &Q = In.Queries[K];
      if (Traced)
        Log.begin("query.range");
      int64_t T0 = nowNs();
      RapTree::RangeBounds B = Session.combinedEstimateBounds(Q.Lo, Q.Hi);
      int64_t T1 = nowNs();
      if (Traced)
        Log.end();
      Out.QueryUs[K] = static_cast<double>(T1 - DueNs) * 1e-3;
      Out.LateMaxUs =
          std::max(Out.LateMaxUs, static_cast<double>(T0 - DueNs) * 1e-3);
      Out.MidLower[K] = B.Lower;
    }
    for (; J < Reports; ++J)
      Report();
    Out.TopKS = seconds(TopKNs);
    Out.HotS = seconds(HotNs);
  };

  std::vector<std::thread> Threads;
  for (size_t P = 0; P != Producers; ++P)
    Threads.emplace_back(Produce, P);
  std::thread Reader(Read);
  SpanLog &Main = Logs[0];
  Start.arrive_and_wait();
  if (Traced)
    Main.begin("session.ingest");
  int64_t T0 = nowNs();
  for (std::thread &T : Threads)
    T.join();
  if (Traced)
    Main.begin("session.combine");
  Session.combineNow();
  int64_t T1 = nowNs();
  if (Traced) {
    Main.end();
    Main.end();
  }
  Reader.join();
  Out.Seconds = seconds(T1 - T0 - HeldNs);
  int64_t From = T0;
  for (size_t J = 0; J != ReleasedAt.size(); ++J) {
    int64_t Last = From;
    for (const std::vector<int64_t> &A : ArrivedAt)
      Last = std::max(Last, A[J]);
    Out.SegmentNs.push_back(Last - From);
    From = ReleasedAt[J];
  }
  Out.SegmentNs.push_back(T1 - From);
  return Out;
}

void runSession(uint64_t Seed, double Seconds, bool Traced, const Sizes &S,
                bool InjectWrongCount, const std::string &Inputs,
                const std::string &Workload, std::vector<SpanLog> &Logs,
                Results &R, Checker &Check) {
  std::unique_ptr<SessionInput> In;
  std::unique_ptr<ShardedRapSession> First;
  std::vector<double> SetupS;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    int64_t T0 = nowNs();
    std::unique_ptr<SessionInput> Next =
        setupSession(Seed, S, InjectWrongCount);
    First = std::make_unique<ShardedRapSession>(Next->Config, SessionShards);
    SetupS.push_back(seconds(nowNs() - T0));
    if (In)
      Check.expect(Next->Id.Hash == In->Id.Hash &&
                       Next->StreamHashes == In->StreamHashes,
                   "set-up is deterministic");
    In = std::move(Next);
  }
  R.SetupS = median(SetupS);
  std::printf("input: records=%" PRIu64 " events=%" PRIu64
              " hash=%s producers=%zu\n",
              In->Id.Records, In->Id.Events, hexHash(In->Id.Hash).c_str(),
              In->Streams.size());
  checkRecordedInput(Inputs, Workload, Seed, In->Id, Check);
  Logs.resize(In->Streams.size() + 2);
  for (size_t I = 0; I != Logs.size(); ++I)
    Logs[I] = SpanLog(static_cast<unsigned>(I));

  std::vector<double> Plain, WithSpans, QueryUs, HotErr, Under;
  std::vector<double> BusyMax, BusyMin, Late, Combines, CombinedNodes;
  // Per report mark, its fastest pass: the marks fall at the same ingest
  // progress on every pass, so a mark's report finds the same profile
  // each time.
  std::vector<double> ReportMs;
  std::vector<double> TopKS, HotS, Single;
  // Per segment of a session pass, its fastest time over the untraced
  // passes (see BestSegmentNs in runGcc): the producers meet at every
  // report mark, so each segment is the same share of every stream.
  std::vector<double> BestSegmentNs;
  std::unique_ptr<RapTree> Tree;
  RoundSamples Samples;
  SpanLog &Log = Logs[0];
  // Rounds of a session pass, then the single-threaded baseline: the
  // same streams, one after the other, through one RapTree. Its profile
  // also stands in for the session's on the tree, snapshot and query
  // metrics, which the session API does not expose. A traced run
  // alternates untraced and traced rounds.
  Budget B(Seconds, Traced ? 6 : 3, 1000);
  for (size_t Pass = 0; B.another(Pass); ++Pass) {
    std::unique_ptr<ShardedRapSession> Session =
        Pass == 0 ? std::move(First)
                  : std::make_unique<ShardedRapSession>(In->Config,
                                                        SessionShards);
    bool SpansOn = Traced && Pass % 2 == 1;
    SessionPass Got =
        runSessionPass(*In, *Session, S.SessionReports, SpansOn, Logs);
    (SpansOn ? WithSpans : Plain)
        .push_back(static_cast<double>(In->Total) / Got.Seconds);
    if (!SpansOn) {
      BestSegmentNs.resize(Got.SegmentNs.size(), HUGE_VAL);
      for (size_t K = 0; K != Got.SegmentNs.size(); ++K)
        BestSegmentNs[K] = std::min(BestSegmentNs[K],
                                    static_cast<double>(Got.SegmentNs[K]));
    }
    QueryUs.insert(QueryUs.end(), Got.QueryUs.begin(), Got.QueryUs.end());
    ReportMs.resize(Got.ReportMs.size(), HUGE_VAL);
    for (size_t K = 0; K != Got.ReportMs.size(); ++K)
      ReportMs[K] = std::min(ReportMs[K], Got.ReportMs[K]);
    BusyMax.push_back(*std::max_element(Got.BusyS.begin(), Got.BusyS.end()));
    BusyMin.push_back(*std::min_element(Got.BusyS.begin(), Got.BusyS.end()));
    Late.push_back(Got.LateMaxUs);
    TopKS.push_back(Got.TopKS);
    HotS.push_back(Got.HotS);
    Combines.push_back(static_cast<double>(Session->numCombines()));
    CombinedNodes.push_back(static_cast<double>(Session->combinedNodes()));

    // Checks, after the clock stopped.
    Check.expect(Session->totalEvents() == In->Total,
                 "session conserves every event");
    Check.expect(Got.StreamHashes == In->StreamHashes,
                 "each producer ingested its stream as generated");
    double PassUnder = 0;
    const double EpsN = epsN(In->Config, In->Total);
    for (size_t K = 0; K != In->Queries.size(); ++K) {
      Check.expect(Got.MidLower[K] <= In->QueryExact[K],
                   "mid-ingest lower bound <= final exact count");
      const Query &Q = In->Queries[K];
      RapTree::RangeBounds Final = Session->combinedEstimateBounds(Q.Lo, Q.Hi);
      Check.expect(Final.Lower <= In->QueryExact[K] &&
                       In->QueryExact[K] <= Final.Upper,
                   "final combined bracket holds the exact count");
      PassUnder += undercount(Final, In->QueryExact[K], EpsN);
    }
    Under.push_back(PassUnder / static_cast<double>(In->Queries.size()));
    HotErr.push_back(hotErrorMaxPct(Session->combinedHotRanges(HotPhi),
                                    In->Exact, Check));
    Session.reset();

    SpanLog *L = SpansOn ? &Log : nullptr;
    Tree = std::make_unique<RapTree>(In->Config);
    if (L)
      L->begin("single.ingest");
    int64_t T0 = nowNs();
    for (const std::vector<uint64_t> &Stream : In->Streams) {
      if (L)
        deliver<true>(*Tree, Stream.begin(), Stream.end(), L);
      else
        deliver<false>(*Tree, Stream.begin(), Stream.end(), nullptr);
    }
    int64_t T1 = nowNs();
    if (L)
      L->end();
    else
      Single.push_back(static_cast<double>(In->Total) / seconds(T1 - T0));
    Check.expect(Tree->numEvents() == In->Total,
                 "single tree conserves every event");
    std::unique_ptr<RapTree> Restored =
        snapshotRound(*Tree, 0.1 * Got.Seconds, L, Samples, Check);
    if (!Restored)
      return;
    queryRound(*Restored, *Tree, In->Queries, In->QueryExact,
               0.15 * Got.Seconds, Pass == 0, L, Samples, Check);
  }
  double BestNs = 0;
  for (double Ns : BestSegmentNs)
    BestNs += Ns;
  R.IngestEventsPerS = static_cast<double>(In->Total) / (BestNs * 1e-9);
  R.ReadP50Us = percentile(QueryUs, 50);
  R.ReadP99Us = percentile(QueryUs, 99);
  // The marks' profiles grow with ingest progress; their mean is
  // steadier than any one of them.
  R.ReportMs = 0;
  for (double Ms : ReportMs)
    R.ReportMs += Ms / static_cast<double>(ReportMs.size());
  R.HotErrorMaxPct = median(HotErr);
  R.RangeUndercount = median(Under);
  R.TopKS = median(TopKS);
  R.HotS = median(HotS);
  R.BusyMaxS = median(BusyMax);
  R.BusyMinS = median(BusyMin);
  R.ReaderLateMaxUs = median(Late);
  R.Combines = median(Combines);
  R.CombinedNodes = median(CombinedNodes);
  if (Traced)
    R.TracingOverhead = highest(WithSpans) / highest(Plain);

  R.SingleTreeEventsPerS = highest(Single);
  recordTree(*Tree, R);
  R.Deliveries = static_cast<double>(In->Total);
  finishRounds(Samples, Traced, /*WithReport=*/false, Log, R);
  if (Traced) {
    R.DeliverS = median(Log.selfSecondsPerRoot("single.ingest", "tree.deliver"));
    R.MergeS = median(Log.selfSecondsPerRoot("single.ingest", "merge.trigger"));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args("rapbench",
                "End-to-end and per-layer RAP benchmark (see README.md)");
  Args.addString("workload", "", "gcc-code | gcc-value-fine | session-mcf");
  Args.addUint("seed", 42, "workload seed (inputs are a function of it)");
  Args.addDouble("seconds", 10, "measurement time of one run");
  Args.addUint("trace", 0, "1 = per-layer run with spans");
  Args.addString("spans-out", "", "file for the recorded spans (traced)");
  Args.addString("inputs", "", "recorded inputs (JSON) to check against");
  Args.addBool("small", "self-test size");
  Args.addBool("inject-wrong-count",
               "corrupt one exact count (the bracket check must fail)");
  Args.addBool("setup-only", "print the input identity and exit");
  if (!Args.parse(Argc, Argv))
    return 2;
  const std::string Workload = Args.getString("workload");
  const uint64_t Seed = Args.getUint("seed");
  const double Seconds = Args.getDouble("seconds");
  const bool Traced = Args.getUint("trace") != 0;
  const bool Inject = Args.getBool("inject-wrong-count");
  const Sizes S = sizesFor(Workload, Args.getBool("small"));
  if (Workload != "gcc-code" && Workload != "gcc-value-fine" &&
      Workload != "session-mcf") {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Workload.c_str());
    return 2;
  }
  if (!(Seconds > 0)) {
    std::fprintf(stderr, "error: --seconds must be positive\n");
    return 2;
  }

  if (Args.getBool("setup-only")) {
    InputId Id;
    Checker Unused;
    if (Workload == "session-mcf")
      Id = setupSession(Seed, S, false)->Id;
    else
      Id = setupGcc(Workload == "gcc-code" ? Field::Code : Field::Value, Seed,
                    S, false, Unused)
               ->Id;
    std::printf("{\"records\": %" PRIu64 ", \"events\": %" PRIu64
                ", \"hash\": \"%s\"}\n",
                Id.Records, Id.Events, hexHash(Id.Hash).c_str());
    return 0;
  }

  std::printf("workload %s, seed %" PRIu64 ", %.3g s, %s\n", Workload.c_str(),
              Seed, Seconds, Traced ? "traced" : "untraced");
  Results R;
  Checker Check;
  std::vector<SpanLog> Logs(1);
  if (Workload == "session-mcf")
    runSession(Seed, Seconds, Traced, S, Inject, Args.getString("inputs"),
               Workload, Logs, R, Check);
  else
    runGcc(Workload == "gcc-code" ? Field::Code : Field::Value, Seed, Seconds,
           Traced, S, Inject, Args.getString("inputs"), Workload, Logs[0], R,
           Check);

  if (Traced && !Args.getString("spans-out").empty()) {
    std::ofstream Out(Args.getString("spans-out"));
    for (const SpanLog &Log : Logs)
      Log.write(Out);
    Check.expect(static_cast<bool>(Out), "spans are written");
  }
  emit(R, Traced, Check);
  return 0;
}
