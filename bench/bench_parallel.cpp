//===- bench/bench_parallel.cpp - Concurrent ingest scaling ---------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The 1 -> N-thread scaling benchmark behind BENCH_parallel.json:
// times concurrent ingest through ShardedRapSession against the
// single-threaded arena RapTree on the uniform and zipf workload
// shapes. Variants:
//
//   single       one RapTree, one thread, plain addPoint — the
//                sequential baseline every speedup is measured from;
//   sharded_tN   one ShardedRapSession (one delta tree per producer
//                slot) fed by N threads, each ingesting a contiguous
//                slice of the identical pre-generated event array,
//                draining its delta at the watermark.
//
// Every stream is pre-generated from an explicit seed before any
// clock starts and each timing is the best of --repeats passes. After
// each sharded run the session is cross-checked against the
// sequential tree: total weight must match the event count exactly
// and the whole-universe estimate must equal it — a benchmark that
// drops events does not get to report a throughput.
//
// Numbers are honest for the machine they ran on: with fewer
// hardware threads than producers, sharded_tN measures
// oversubscription, not scaling. The gates therefore arm only where
// the host can run the threads they compare: sharded_t4 >= 1.5x
// single on >= 4 hardware threads, and sharded_t8 >= 3x sharded_t1
// (--require-scaling) on >= 8. ci.sh and the bench_smoke tests run
// with --smoke, which disarms both, and gate on the schema instead. Schema and policy are described in
// docs/BENCHMARKS.md; tools/bench_diff checks reports.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "core/RapTree.h"
#include "core/ShardedRapSession.h"
#include "support/ArgParse.h"
#include "support/BenchReport.h"
#include "support/Distributions.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

using namespace rap;

namespace {

/// Minimum sharded_t4/single events/sec ratio of a full run on a host
/// with >= 4 hardware threads: four producers with a delta each must
/// beat one tree by half again, slot mutex and drains included.
constexpr double RequiredT4Speedup = 1.5;

/// SplitMix64 finalizer: scatters consecutive Zipf ranks across the
/// universe so the head is not packed into one subtree.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

struct WorkloadSpec {
  std::string Name;
  RapConfig Config;
  std::vector<uint64_t> Events;
};

/// The two shapes that bracket per-delta cost: uniform (every
/// producer's delta splits across the whole universe) and zipf (a
/// heavy head that each producer's delta re-splits on its own).
std::vector<WorkloadSpec> makeWorkloads(uint64_t Seed, uint64_t NumEvents) {
  std::vector<WorkloadSpec> Out;
  {
    WorkloadSpec W;
    W.Name = "uniform";
    W.Config.RangeBits = 32;
    Rng R(Seed ^ 0x756e6966ULL);
    W.Events.reserve(NumEvents);
    for (uint64_t I = 0; I != NumEvents; ++I)
      W.Events.push_back(R.next() & widthForBits(32));
    Out.push_back(std::move(W));
  }
  {
    WorkloadSpec W;
    W.Name = "zipf";
    W.Config.RangeBits = 32;
    Rng R(Seed ^ 0x7a697066ULL);
    ZipfDistribution Zipf(1 << 17, 1.2);
    W.Events.reserve(NumEvents);
    for (uint64_t I = 0; I != NumEvents; ++I)
      W.Events.push_back(mix64(Zipf.sample(R)) & widthForBits(32));
    Out.push_back(std::move(W));
  }
  return Out;
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

struct TimedRun {
  double Seconds = 0.0;
  uint64_t Nodes = 0;
  uint64_t MaxNodes = 0;
  double BytesPerNode = 0.0;
};

TimedRun runSingle(const RapConfig &Config,
                   const std::vector<uint64_t> &Events) {
  RapTree Tree(Config);
  auto Start = std::chrono::steady_clock::now();
  for (uint64_t X : Events)
    Tree.addPoint(X);
  TimedRun R;
  R.Seconds = secondsSince(Start);
  R.Nodes = Tree.numNodes();
  R.MaxNodes = Tree.maxNumNodes();
  R.BytesPerNode = double(Tree.arenaBytes()) / double(Tree.numNodes());
  return R;
}

TimedRun runSharded(const RapConfig &Config,
                    const std::vector<uint64_t> &Events, unsigned Threads,
                    unsigned Slots, uint64_t CombineEvery) {
  ShardedRapSession Session(Config, Slots, CombineEvery);
  // Contiguous slices: thread T ingests [T*Per, ...), the last thread
  // takes the remainder. The union over threads is the exact event
  // array single consumed.
  uint64_t Per = Events.size() / Threads;
  auto Start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Workers;
    Workers.reserve(Threads);
    for (unsigned T = 0; T != Threads; ++T) {
      uint64_t Lo = uint64_t(T) * Per;
      uint64_t Hi = T + 1 == Threads ? Events.size() : Lo + Per;
      Workers.emplace_back([&Session, &Events, Lo, Hi] {
        for (uint64_t I = Lo; I != Hi; ++I)
          Session.ingest(Events[I]);
      });
    }
    for (std::thread &W : Workers)
      W.join();
  }
  Session.combineNow();
  TimedRun R;
  R.Seconds = secondsSince(Start);
  R.Nodes = Session.combinedNodes();
  R.MaxNodes = R.Nodes; // Peak not tracked across slot deltas.
  R.BytesPerNode = double(RapTree::BytesPerNode);

  // Correctness before throughput: the concurrent run must conserve
  // every event. (The eps-accuracy model is checked by the sharded
  // fuzz leg and the rap_concurrency_tests suite, not re-derived
  // here.)
  uint64_t Total = Session.totalEvents();
  uint64_t Universe = widthForBits(Config.RangeBits);
  uint64_t WholeUniverse = Session.combinedEstimate(0, Universe);
  if (Total != Events.size() || WholeUniverse != Total) {
    std::fprintf(stderr,
                 "bench_parallel: conservation failure at %u threads: "
                 "total %llu whole-universe %llu expected %zu\n",
                 Threads, (unsigned long long)Total,
                 (unsigned long long)WholeUniverse, Events.size());
    std::exit(1);
  }
  return R;
}

/// Best-of-N timing; tree statistics come from the first pass (node
/// counts can differ slightly across sharded passes with different
/// interleavings, and the report wants one representative value).
template <typename RunFn>
BenchVariant timeVariant(const std::string &Name, uint64_t NumEvents,
                         uint64_t Repeats, RunFn Run) {
  BenchVariant V;
  V.Name = Name;
  V.Events = NumEvents;
  double Best = 0.0;
  for (uint64_t I = 0; I != Repeats; ++I) {
    TimedRun R = Run();
    if (I == 0) {
      Best = R.Seconds;
      V.Nodes = R.Nodes;
      V.MaxNodes = R.MaxNodes;
      V.BytesPerNode = R.BytesPerNode;
    } else if (R.Seconds < Best) {
      Best = R.Seconds;
    }
  }
  if (Best <= 0.0)
    Best = 1e-9; // Sub-tick smoke run; avoid dividing by zero.
  V.EventsPerSec = double(NumEvents) / Best;
  V.NsPerEvent = 1e9 * Best / double(NumEvents);
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args("bench_parallel",
                "Times concurrent ingest (ShardedRapSession, 1..8 "
                "threads) against the single-threaded tree and "
                "writes a pinned BENCH_parallel.json report.");
  Args.addString("out", "BENCH_parallel.json", "output report path");
  Args.addUint("events", 2000000, "raw events per workload");
  Args.addUint("seed", 42, "master stream seed");
  Args.addUint("repeats", 3, "timing passes per variant (best kept)");
  Args.addUint("slots", 16, "producer slots for every sharded variant");
  Args.addUint("combine-every", ShardedRapSession::DefaultCombineEvery,
               "per-slot pending-weight drain watermark");
  Args.addDouble("epsilon", 0.01, "error constant for every workload");
  Args.addDouble("require-scaling", 3.0,
                 "minimum sharded_t8/sharded_t1 events/sec ratio; only "
                 "enforced when the host has >= 8 hardware threads "
                 "(0 disables)");
  Args.addBool("smoke", "fast CI shape: 50k events, one pass, no gates");
  if (!Args.parse(Argc, Argv))
    return 2;

  uint64_t NumEvents = Args.getUint("events");
  uint64_t Repeats = Args.getUint("repeats");
  double RequireScaling = Args.getDouble("require-scaling");
  bool Smoke = Args.getBool("smoke");
  if (Smoke) {
    NumEvents = 50000;
    Repeats = 1;
    RequireScaling = 0.0;
  }
  unsigned Slots = static_cast<unsigned>(Args.getUint("slots"));
  uint64_t CombineEvery = Args.getUint("combine-every");
  unsigned HwThreads = std::thread::hardware_concurrency();

  BenchReport Report;
  Report.Schema = BenchSchemaName;
  Report.Generator = "bench_parallel";

  constexpr unsigned ThreadCounts[] = {1, 2, 4, 8};
  bool GateFailed = false;

  for (WorkloadSpec &Spec : makeWorkloads(Args.getUint("seed"), NumEvents)) {
    Spec.Config.Epsilon = Args.getDouble("epsilon");
    BenchWorkload W;
    W.Name = Spec.Name;
    W.RangeBits = Spec.Config.RangeBits;
    W.BranchFactor = Spec.Config.BranchFactor;
    W.Epsilon = Spec.Config.Epsilon;
    W.Events = NumEvents;

    const RapConfig &Config = Spec.Config;
    const std::vector<uint64_t> &Events = Spec.Events;
    W.Variants.push_back(timeVariant("single", NumEvents, Repeats, [&] {
      return runSingle(Config, Events);
    }));
    for (unsigned Threads : ThreadCounts) {
      char Name[32];
      std::snprintf(Name, sizeof(Name), "sharded_t%u", Threads);
      W.Variants.push_back(timeVariant(Name, NumEvents, Repeats, [&] {
        return runSharded(Config, Events, Threads, Slots, CombineEvery);
      }));
    }

    double Single = W.Variants[0].EventsPerSec;
    double Best = 0.0;
    for (size_t I = 1; I != W.Variants.size(); ++I)
      if (W.Variants[I].EventsPerSec > Best)
        Best = W.Variants[I].EventsPerSec;
    W.SpeedupVsLegacy = Best / Single;

    double T1 = W.Variants[1].EventsPerSec;
    double T4 = W.Variants[3].EventsPerSec;
    double T8 = W.Variants.back().EventsPerSec;
    std::printf("%-9s", W.Name.c_str());
    for (const BenchVariant &V : W.Variants)
      std::printf("  %s %7.2f Mev/s", V.Name.c_str(), V.EventsPerSec / 1e6);
    std::printf("  t1/single %.2fx  t4/single %.2fx  t8/t1 %.2fx\n",
                T1 / Single, T4 / Single, T8 / T1);

    if (!Smoke && HwThreads >= 4 && T4 / Single < RequiredT4Speedup) {
      std::fprintf(stderr,
                   "bench_parallel: %s sharded_t4 %.2fx single, below "
                   "required %.2fx on %u hardware threads\n",
                   W.Name.c_str(), T4 / Single, RequiredT4Speedup,
                   HwThreads);
      GateFailed = true;
    }

    if (RequireScaling > 0.0 && HwThreads >= 8 &&
        T8 / T1 < RequireScaling) {
      std::fprintf(stderr,
                   "bench_parallel: %s scaling %.2fx below required "
                   "%.2fx on %u hardware threads\n",
                   W.Name.c_str(), T8 / T1, RequireScaling, HwThreads);
      GateFailed = true;
    }

    Report.Workloads.push_back(std::move(W));
  }
  if (!Smoke && HwThreads < 4)
    std::printf("t4 speedup gate skipped: %u hardware thread(s) < 4\n",
                HwThreads);
  if (RequireScaling > 0.0 && HwThreads < 8)
    std::printf("t8/t1 scaling gate skipped: %u hardware thread(s) < 8 — "
                "t8 measures oversubscription, not parallel speedup\n",
                HwThreads);

  // Self-check before pinning: a report this binary cannot validate
  // must never be committed as a baseline.
  std::vector<std::string> Problems;
  if (!validateBenchReport(Report, Problems)) {
    for (const std::string &P : Problems)
      std::fprintf(stderr, "bench_parallel: generated report invalid: %s\n",
                   P.c_str());
    return 1;
  }

  const std::string &Out = Args.getString("out");
  std::ofstream OS(Out, std::ios::binary);
  if (!OS) {
    std::fprintf(stderr, "bench_parallel: cannot write %s\n", Out.c_str());
    return 1;
  }
  OS << serializeBenchReport(Report);
  std::printf("wrote %s\n", Out.c_str());
  return GateFailed ? 1 : 0;
}
