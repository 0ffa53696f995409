//===- examples/parallel_profiling.cpp - Sharded collection --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-threaded profile collection with shard trees: each worker
/// thread owns a private RapTree (no locks on the hot path, exactly
/// like per-core hardware profilers), and the shards are aggregated
/// with RapTree::absorb at the end. The absorbed profile's estimates
/// are compared against a single-threaded reference on the same total
/// stream to show the aggregation guarantee in action.
///
/// This is the one-tree-per-thread pattern, right when each thread's
/// stream is its own and queries can wait for the end. When many
/// threads feed ONE logical profile and queries run mid-stream, use
/// core/ShardedRapSession instead: the same one-tree-per-thread shape,
/// but each thread hands its delta to a shared combined tree whenever
/// the delta crosses a watermark, so readers see the profile while it
/// grows; same absorb-based guarantee.
///
/// Usage:
///   ./build/examples/parallel_profiling --threads=4
///
//===----------------------------------------------------------------------===//

#include "core/RapTree.h"
#include "support/ArgParse.h"
#include "support/TableWriter.h"
#include "trace/ProgramModel.h"

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

using namespace rap;

int main(int Argc, char **Argv) {
  ArgParse Args("parallel_profiling",
                "lock-free sharded collection + absorb aggregation");
  Args.addString("benchmark", "parser", "benchmark model");
  Args.addUint("threads", 4, "worker threads (shards)");
  Args.addUint("events", 500000, "basic blocks per shard");
  Args.addDouble("epsilon", 0.02, "RAP error bound");
  Args.addUint("seed", 1, "base run seed");
  if (!Args.parse(Argc, Argv))
    return 1;

  BenchmarkSpec Spec = getBenchmarkSpec(Args.getString("benchmark"));
  const unsigned NumThreads =
      static_cast<unsigned>(Args.getUint("threads"));
  const uint64_t BlocksPerShard = Args.getUint("events");

  RapConfig Config;
  Config.RangeBits = ProgramModel::ValueRangeBits;
  Config.Epsilon = Args.getDouble("epsilon");

  // Each thread profiles its own slice of work (its own model seed,
  // standing in for its own core's event stream) into a private tree.
  std::vector<std::unique_ptr<RapTree>> Shards;
  for (unsigned T = 0; T != NumThreads; ++T)
    Shards.push_back(std::make_unique<RapTree>(Config));
  {
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != NumThreads; ++T)
      Workers.emplace_back([&, T] {
        ProgramModel Model(Spec, Args.getUint("seed") + T);
        for (uint64_t I = 0; I != BlocksPerShard; ++I) {
          TraceRecord Record = Model.next();
          if (Record.HasLoad)
            Shards[T]->addPoint(Record.LoadValue);
        }
      });
    for (std::thread &Worker : Workers)
      Worker.join();
  }

  // Aggregate.
  RapTree Combined(Config);
  for (const auto &Shard : Shards)
    Combined.absorb(*Shard);

  // Single-threaded reference over the identical total stream.
  RapTree Reference(Config);
  for (unsigned T = 0; T != NumThreads; ++T) {
    ProgramModel Model(Spec, Args.getUint("seed") + T);
    for (uint64_t I = 0; I != BlocksPerShard; ++I) {
      TraceRecord Record = Model.next();
      if (Record.HasLoad)
        Reference.addPoint(Record.LoadValue);
    }
  }

  std::printf("%u shards x %" PRIu64 " blocks of %s, aggregated with "
              "absorb()\n\n",
              NumThreads, BlocksPerShard, Spec.Name.c_str());
  std::printf("combined: %" PRIu64 " events in %" PRIu64 " counters; "
              "reference: %" PRIu64 " events in %" PRIu64 " counters\n\n",
              Combined.numEvents(), Combined.numNodes(),
              Reference.numEvents(), Reference.numNodes());

  TableWriter Table;
  Table.setHeader({"hot range (reference)", "reference est.",
                   "combined est.", "delta"});
  for (const HotRange &H : Reference.extractHotRanges(0.10)) {
    uint64_t Ref = Reference.estimateRange(H.Lo, H.Hi);
    uint64_t Comb = Combined.estimateRange(H.Lo, H.Hi);
    double Delta = Ref == 0 ? 0.0
                            : 100.0 *
                                  (static_cast<double>(Comb) -
                                   static_cast<double>(Ref)) /
                                  static_cast<double>(Ref);
    Table.addRow({"[" + TableWriter::hex(H.Lo) + ", " +
                      TableWriter::hex(H.Hi) + "]",
                  TableWriter::fmt(Ref), TableWriter::fmt(Comb),
                  TableWriter::fmt(Delta, 2) + "%"});
  }
  Table.print(std::cout);

  std::printf("\nper-shard eps guarantees add: combined estimates stay "
              "within eps * total events of truth\n");
  return 0;
}
