//===- support/BenchReport.h - Pinned benchmark report model ---*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data model behind BENCH_core.json (schema "rap-bench-core/v1"):
/// per workload shape (uniform, zipf, phased, narrow-operand), one
/// timed variant per update-path implementation — "legacy" (the
/// pointer-chasing ReferenceRapTree), "arena" (the slab/SoA RapTree)
/// and "arena_stage0" (arena plus the stage-0 combining buffer) — with
/// events/sec, ns/event, node counts, bytes/node and the merge
/// timeline. parse/validate/serialize round-trip the JSON; diff
/// compares a candidate report against a pinned baseline and reports
/// throughput regressions, which is how bench_diff gates perf changes
/// (docs/BENCHMARKS.md).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_BENCHREPORT_H
#define RAP_SUPPORT_BENCHREPORT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rap {

/// Current report schema identifier.
inline constexpr const char *BenchSchemaName = "rap-bench-core/v1";

/// One timed implementation variant of one workload.
struct BenchVariant {
  std::string Name;       ///< "legacy", "arena", "arena_stage0", ...
  uint64_t Events = 0;    ///< Raw events fed (equals the workload's).
  double EventsPerSec = 0.0;
  double NsPerEvent = 0.0;
  uint64_t Nodes = 0;     ///< Final tree node count.
  uint64_t MaxNodes = 0;  ///< Peak tree node count.
  double BytesPerNode = 0.0; ///< Actual storage bytes per final node.
  /// Event counts at which batched merges ran, strictly increasing.
  /// Identical streams must produce identical timelines on "legacy"
  /// and "arena" — an equivalence witness the schema check enforces
  /// structurally (monotonicity) and bench_run guarantees by
  /// construction.
  std::vector<uint64_t> MergeEvents;
  /// Optional named scalar metrics, e.g. {"topk_recall", 0.97}. An
  /// additive extension of rap-bench-core/v1: reports without a
  /// "metrics" field parse to an empty vector, an empty vector
  /// serializes to no "metrics" field, and serialization orders keys
  /// lexicographically so committed reports stay diffable. Metrics are
  /// informational by default; diffBenchReports gates on them only
  /// when BenchDiffOptions::MetricTolerance is set.
  std::vector<std::pair<std::string, double>> Metrics;
};

/// One workload shape timed across all variants.
struct BenchWorkload {
  std::string Name; ///< "uniform", "zipf", "phased", "narrow-operand".
  unsigned RangeBits = 0;
  unsigned BranchFactor = 0;
  double Epsilon = 0.0;
  uint64_t Events = 0; ///< Raw events fed to every variant.
  std::vector<BenchVariant> Variants;
  /// Best non-baseline events/sec divided by the baseline's, where the
  /// baseline is the "legacy" variant ("single" in bench_parallel's
  /// reports); the headline "after vs before" number. Recomputed (and
  /// cross-checked against the recorded value) by validateBenchReport.
  double SpeedupVsLegacy = 0.0;
};

/// A whole pinned report (one BENCH_core.json).
struct BenchReport {
  std::string Schema;    ///< Must equal BenchSchemaName.
  std::string Generator; ///< Producing tool, e.g. "bench_run".
  std::vector<BenchWorkload> Workloads;
};

/// Parses a report from JSON text. Returns false (with a diagnostic in
/// \p Error) on malformed JSON or missing/mis-typed required fields;
/// semantic checks beyond field presence live in validateBenchReport.
bool parseBenchReport(const std::string &Text, BenchReport &Out,
                      std::string *Error = nullptr);

/// Semantic schema validation: unique non-empty names, positive event
/// counts equal across variants, non-negative timings, power-of-two
/// branch factors, strictly increasing merge timelines bounded by the
/// event count, and recorded speedups matching the variant data.
/// Appends one message per problem; returns true when none were found.
bool validateBenchReport(const BenchReport &Report,
                         std::vector<std::string> &Problems);

/// Serializes deterministically (field order fixed, suitable for
/// committing and diffing).
std::string serializeBenchReport(const BenchReport &Report);

/// Gate policy for diffBenchReports.
struct BenchDiffOptions {
  /// A candidate variant regresses when its events/sec falls below
  /// baseline * (1 - MaxRegress). The default tolerates the noise of
  /// unpinned CI machines while still catching real slowdowns.
  double MaxRegress = 0.30;

  /// Opt-in gate on the per-variant "metrics" map: when non-negative,
  /// every metric present in a baseline variant must exist in the
  /// matching candidate variant with |candidate - baseline| <=
  /// MetricTolerance * max(|baseline|, 1). The relative form (with an
  /// absolute floor of 1) makes one knob usable across rates in
  /// [0, 1] and counts in the thousands alike. Negative (the default)
  /// keeps metrics informational, the pre-existing behavior.
  double MetricTolerance = -1.0;
};

/// Compares \p Candidate against \p Baseline: every (workload,
/// variant) pair present in the baseline must exist in the candidate
/// and not regress beyond the tolerance. Appends one message per
/// regression or missing entry; returns true when the candidate
/// passes the gate.
bool diffBenchReports(const BenchReport &Baseline,
                      const BenchReport &Candidate,
                      const BenchDiffOptions &Options,
                      std::vector<std::string> &Problems);

} // namespace rap

#endif // RAP_SUPPORT_BENCHREPORT_H
