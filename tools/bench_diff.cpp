//===- tools/bench_diff.cpp - Benchmark report checker and gate -----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Two modes over BENCH_core.json reports (schema "rap-bench-core/v1",
// emitted by bench_run; see docs/BENCHMARKS.md):
//
//   bench_diff --check REPORT
//       Parses and semantically validates one report: required keys,
//       monotone merge timelines, non-negative timings, and a recorded
//       headline speedup that matches the variant data. Exit 0 when
//       clean, 1 with one diagnostic per problem when not.
//
//   bench_diff BASELINE CANDIDATE [--max-regress=0.30]
//              [--metric-tolerance=T]
//       Validates both reports, then gates the candidate against the
//       pinned baseline: every (workload, variant) pair in the
//       baseline must exist in the candidate and its events/sec must
//       not fall below baseline * (1 - max-regress). With
//       --metric-tolerance, the per-variant "metrics" map is gated
//       too: each baseline metric must exist in the candidate within
//       T * max(|baseline|, 1) — useful for pinning machine-independent
//       quality numbers (topk_recall, node_reduction) tighter than
//       wall-clock throughput. Exit 0 when the candidate passes, 1
//       when it regresses.
//
// Exit 2 for usage or I/O errors, so scripts can tell "perf regressed"
// from "could not run the check".
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/BenchReport.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace rap;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return false;
  std::ostringstream SS;
  SS << IS.rdbuf();
  Out = SS.str();
  return true;
}

/// Loads, parses and semantically validates one report. Returns false
/// after printing diagnostics; distinguishes I/O failures via \p Fatal.
bool loadReport(const std::string &Path, BenchReport &Out, bool &Fatal) {
  Fatal = false;
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", Path.c_str());
    Fatal = true;
    return false;
  }
  std::string Error;
  if (!parseBenchReport(Text, Out, &Error)) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", Path.c_str(),
                 Error.c_str());
    return false;
  }
  std::vector<std::string> Problems;
  if (!validateBenchReport(Out, Problems)) {
    for (const std::string &P : Problems)
      std::fprintf(stderr, "bench_diff: %s: %s\n", Path.c_str(), P.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args("bench_diff",
                "Validates BENCH_core.json reports (--check REPORT) or "
                "gates a candidate report against a pinned baseline "
                "(BASELINE CANDIDATE).");
  Args.addString("check", "", "validate this single report and exit");
  Args.addDouble("max-regress", 0.30,
                 "tolerated fractional events/sec drop before a variant "
                 "counts as regressed");
  Args.addDouble("metric-tolerance", -1.0,
                 "also gate per-variant metrics, allowing a drift of "
                 "TOL * max(|baseline|, 1) per metric (negative: "
                 "metrics stay informational)");
  Args.allowPositional("baseline candidate",
                       "pinned baseline report, then candidate report");
  if (!Args.parse(Argc, Argv))
    return 2;

  const std::string &CheckPath = Args.getString("check");
  if (!CheckPath.empty()) {
    if (!Args.positional().empty()) {
      std::fprintf(stderr,
                   "bench_diff: --check takes no positional reports\n");
      return 2;
    }
    BenchReport Report;
    bool Fatal = false;
    if (!loadReport(CheckPath, Report, Fatal))
      return Fatal ? 2 : 1;
    std::printf("%s: valid %s report, %zu workloads\n", CheckPath.c_str(),
                Report.Schema.c_str(), Report.Workloads.size());
    return 0;
  }

  if (Args.positional().size() != 2) {
    std::fprintf(stderr,
                 "bench_diff: expected --check REPORT or BASELINE "
                 "CANDIDATE (see --help)\n");
    return 2;
  }

  BenchReport Baseline, Candidate;
  bool Fatal = false;
  if (!loadReport(Args.positional()[0], Baseline, Fatal))
    return Fatal ? 2 : 1;
  if (!loadReport(Args.positional()[1], Candidate, Fatal))
    return Fatal ? 2 : 1;

  BenchDiffOptions Options;
  Options.MaxRegress = Args.getDouble("max-regress");
  Options.MetricTolerance = Args.getDouble("metric-tolerance");
  std::vector<std::string> Problems;
  if (!diffBenchReports(Baseline, Candidate, Options, Problems)) {
    for (const std::string &P : Problems)
      std::fprintf(stderr, "bench_diff: %s\n", P.c_str());
    return 1;
  }
  std::printf("candidate holds the baseline (%zu workloads, %.0f%% "
              "tolerance)\n",
              Baseline.Workloads.size(), 100.0 * Options.MaxRegress);
  return 0;
}
