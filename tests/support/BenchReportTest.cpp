//===- tests/support/BenchReportTest.cpp - Report schema and diff ---------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The BENCH_core.json model: parse/validate/serialize round-trips and
/// the bench_diff gate, driven by golden "before" (pinned baseline)
/// and "after" (candidate) fixtures — one healthy pair, one with a
/// regression — so the gate's verdicts are pinned by test, not only by
/// CI observation.
///
//===----------------------------------------------------------------------===//

#include "support/BenchReport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace rap;

namespace {

/// Golden "before" fixture: the shape bench_run emits, two workloads,
/// three variants each.
const char *BaselineFixture = R"json({
  "schema": "rap-bench-core/v1",
  "generator": "bench_run",
  "workloads": [
    {
      "name": "uniform",
      "range_bits": 32,
      "branch_factor": 4,
      "epsilon": 0.01,
      "events": 1000000,
      "speedup_vs_legacy": 1.5,
      "variants": [
        {
          "name": "legacy",
          "events": 1000000,
          "events_per_sec": 20000000,
          "ns_per_event": 50,
          "nodes": 4000,
          "max_nodes": 4100,
          "bytes_per_node": 16,
          "merge_events": [1024, 3072, 7168]
        },
        {
          "name": "arena",
          "events": 1000000,
          "events_per_sec": 30000000,
          "ns_per_event": 33.3,
          "nodes": 4000,
          "max_nodes": 4100,
          "bytes_per_node": 64,
          "merge_events": [1024, 3072, 7168]
        },
        {
          "name": "arena_stage0",
          "events": 1000000,
          "events_per_sec": 25000000,
          "ns_per_event": 40,
          "nodes": 4010,
          "max_nodes": 4110,
          "bytes_per_node": 64,
          "merge_events": [1030, 3080, 7170]
        }
      ]
    },
    {
      "name": "zipf",
      "range_bits": 32,
      "branch_factor": 4,
      "epsilon": 0.01,
      "events": 1000000,
      "speedup_vs_legacy": 5.0,
      "variants": [
        {
          "name": "legacy",
          "events": 1000000,
          "events_per_sec": 15000000,
          "ns_per_event": 66.7,
          "nodes": 2000,
          "max_nodes": 2000,
          "bytes_per_node": 16,
          "merge_events": [1024, 3072]
        },
        {
          "name": "arena_stage0",
          "events": 1000000,
          "events_per_sec": 75000000,
          "ns_per_event": 13.3,
          "nodes": 2000,
          "max_nodes": 2000,
          "bytes_per_node": 64,
          "merge_events": [1024, 3072]
        }
      ]
    }
  ]
}
)json";

BenchReport parseOrDie(const std::string &Text) {
  BenchReport Report;
  std::string Error;
  EXPECT_TRUE(parseBenchReport(Text, Report, &Error)) << Error;
  return Report;
}

/// The golden "after" fixture is the baseline with adjusted numbers:
/// \p UniformArenaEps replaces the uniform/arena throughput.
BenchReport candidateWith(double UniformArenaEps) {
  BenchReport R = parseOrDie(BaselineFixture);
  for (BenchWorkload &W : R.Workloads)
    if (W.Name == "uniform")
      for (BenchVariant &V : W.Variants)
        if (V.Name == "arena") {
          V.EventsPerSec = UniformArenaEps;
          V.NsPerEvent = 1e9 / UniformArenaEps;
        }
  // Keep the recorded headline consistent with the edited data.
  for (BenchWorkload &W : R.Workloads) {
    double Legacy = 0.0, Best = 0.0;
    for (const BenchVariant &V : W.Variants)
      if (V.Name == "legacy")
        Legacy = V.EventsPerSec;
      else
        Best = std::max(Best, V.EventsPerSec);
    W.SpeedupVsLegacy = Best / Legacy;
  }
  return R;
}

} // namespace

TEST(BenchReport, GoldenBaselineParsesAndValidates) {
  BenchReport Report = parseOrDie(BaselineFixture);
  EXPECT_EQ(Report.Schema, BenchSchemaName);
  EXPECT_EQ(Report.Generator, "bench_run");
  ASSERT_EQ(Report.Workloads.size(), 2u);
  EXPECT_EQ(Report.Workloads[0].Variants.size(), 3u);
  EXPECT_EQ(Report.Workloads[0].Variants[0].MergeEvents,
            (std::vector<uint64_t>{1024, 3072, 7168}));
  std::vector<std::string> Problems;
  EXPECT_TRUE(validateBenchReport(Report, Problems))
      << (Problems.empty() ? "" : Problems.front());
}

TEST(BenchReport, SerializeParseRoundTrip) {
  BenchReport Report = parseOrDie(BaselineFixture);
  std::string Text = serializeBenchReport(Report);
  BenchReport Back = parseOrDie(Text);
  EXPECT_EQ(serializeBenchReport(Back), Text)
      << "serialization must be a fixed point";
  ASSERT_EQ(Back.Workloads.size(), Report.Workloads.size());
  EXPECT_EQ(Back.Workloads[1].Variants[1].EventsPerSec,
            Report.Workloads[1].Variants[1].EventsPerSec);
}

TEST(BenchReport, ParseRejectsMissingFields) {
  BenchReport Report;
  std::string Error;
  EXPECT_FALSE(parseBenchReport("{}", Report, &Error));
  EXPECT_NE(Error.find("schema"), std::string::npos);

  EXPECT_FALSE(parseBenchReport(
      R"({"schema": "rap-bench-core/v0", "generator": "x", "workloads": []})",
      Report = {}, &Error));
  EXPECT_NE(Error.find("unsupported schema"), std::string::npos);

  EXPECT_FALSE(parseBenchReport("not json at all", Report = {}, &Error));
}

TEST(BenchReport, ValidateCatchesSchemaViolations) {
  struct Case {
    const char *Name;
    void (*Mutate)(BenchReport &);
    const char *ExpectIn;
  };
  const Case Cases[] = {
      {"no legacy variant",
       [](BenchReport &R) { R.Workloads[0].Variants.erase(
                                R.Workloads[0].Variants.begin()); },
       "no \"legacy\" variant"},
      {"non-monotone merges",
       [](BenchReport &R) {
         R.Workloads[0].Variants[0].MergeEvents = {3072, 1024};
       },
       "not strictly increasing"},
      {"merge beyond stream",
       [](BenchReport &R) {
         R.Workloads[0].Variants[0].MergeEvents = {2000000};
       },
       "beyond the event count"},
      {"event count mismatch",
       [](BenchReport &R) { R.Workloads[0].Variants[1].Events = 5; },
       "workload says"},
      {"zero throughput",
       [](BenchReport &R) { R.Workloads[0].Variants[1].EventsPerSec = 0; },
       "not positive"},
      {"negative ns",
       [](BenchReport &R) { R.Workloads[0].Variants[1].NsPerEvent = -1; },
       "negative"},
      {"max below final",
       [](BenchReport &R) { R.Workloads[0].Variants[1].MaxNodes = 1; },
       "max_nodes"},
      {"bad branch factor",
       [](BenchReport &R) { R.Workloads[0].BranchFactor = 3; },
       "power of"},
      {"bad epsilon",
       [](BenchReport &R) { R.Workloads[0].Epsilon = 1.5; },
       "epsilon"},
      {"duplicate workload",
       [](BenchReport &R) { R.Workloads[1].Name = "uniform"; },
       "duplicate workload"},
      {"stale speedup",
       [](BenchReport &R) { R.Workloads[0].SpeedupVsLegacy = 9.0; },
       "does not match"},
  };
  for (const Case &C : Cases) {
    BenchReport Report = parseOrDie(BaselineFixture);
    C.Mutate(Report);
    std::vector<std::string> Problems;
    EXPECT_FALSE(validateBenchReport(Report, Problems)) << C.Name;
    ASSERT_FALSE(Problems.empty()) << C.Name;
    bool Found = false;
    for (const std::string &P : Problems)
      Found = Found || P.find(C.ExpectIn) != std::string::npos;
    EXPECT_TRUE(Found) << C.Name << ": wanted \"" << C.ExpectIn
                       << "\" in: " << Problems.front();
  }
}

TEST(BenchReport, SingleVariantIsTheBaselineWithoutLegacy) {
  // bench_parallel's baseline is "single" (one arena tree, one
  // thread); the headline speedup is checked against it the same way.
  BenchReport Report = parseOrDie(BaselineFixture);
  for (BenchWorkload &W : Report.Workloads)
    for (BenchVariant &V : W.Variants)
      if (V.Name == "legacy")
        V.Name = "single";
  std::vector<std::string> Problems;
  EXPECT_TRUE(validateBenchReport(Report, Problems))
      << (Problems.empty() ? "" : Problems.front());
  Report.Workloads[0].SpeedupVsLegacy = 9.0;
  Problems.clear();
  EXPECT_FALSE(validateBenchReport(Report, Problems));
}

TEST(BenchReport, DiffAcceptsHealthyCandidate) {
  // Golden "after": uniform/arena got faster, everything else equal.
  BenchReport Baseline = parseOrDie(BaselineFixture);
  BenchReport Candidate = candidateWith(36000000.0);
  std::vector<std::string> Problems;
  EXPECT_TRUE(diffBenchReports(Baseline, Candidate, BenchDiffOptions(),
                               Problems))
      << Problems.front();
  EXPECT_TRUE(Problems.empty());
}

TEST(BenchReport, DiffToleratesNoiseWithinBudget) {
  // 20% down on a 30% budget: noisy but not a regression.
  BenchReport Baseline = parseOrDie(BaselineFixture);
  BenchReport Candidate = candidateWith(24000000.0);
  std::vector<std::string> Problems;
  EXPECT_TRUE(diffBenchReports(Baseline, Candidate, BenchDiffOptions(),
                               Problems))
      << Problems.front();
}

TEST(BenchReport, DiffFlagsRegression) {
  // Golden regressed "after": uniform/arena lost half its throughput.
  BenchReport Baseline = parseOrDie(BaselineFixture);
  BenchReport Candidate = candidateWith(15000000.0);
  std::vector<std::string> Problems;
  EXPECT_FALSE(diffBenchReports(Baseline, Candidate, BenchDiffOptions(),
                                Problems));
  ASSERT_EQ(Problems.size(), 1u);
  EXPECT_NE(Problems[0].find("uniform"), std::string::npos);
  EXPECT_NE(Problems[0].find("arena"), std::string::npos);
  EXPECT_NE(Problems[0].find("regressed"), std::string::npos);
}

TEST(BenchReport, DiffFlagsMissingEntries) {
  BenchReport Baseline = parseOrDie(BaselineFixture);
  BenchReport Candidate = parseOrDie(BaselineFixture);
  Candidate.Workloads[0].Variants.pop_back(); // drop arena_stage0
  Candidate.Workloads.pop_back();             // drop zipf entirely
  std::vector<std::string> Problems;
  EXPECT_FALSE(diffBenchReports(Baseline, Candidate, BenchDiffOptions(),
                                Problems));
  ASSERT_EQ(Problems.size(), 2u);
  EXPECT_NE(Problems[0].find("arena_stage0"), std::string::npos);
  EXPECT_NE(Problems[1].find("zipf"), std::string::npos);
}

TEST(BenchReport, MetricsParseValidateAndRoundTrip) {
  // A variant may carry an optional flat map of named scalar metrics;
  // reports without one (the whole golden fixture) parse to empty maps.
  BenchReport Plain = parseOrDie(BaselineFixture);
  EXPECT_TRUE(Plain.Workloads[0].Variants[0].Metrics.empty());

  BenchReport Report = parseOrDie(BaselineFixture);
  Report.Workloads[0].Variants[1].Metrics = {{"topk_recall", 0.97},
                                             {"node_reduction", 0.41}};
  std::vector<std::string> Problems;
  EXPECT_TRUE(validateBenchReport(Report, Problems))
      << (Problems.empty() ? "" : Problems.front());

  std::string Text = serializeBenchReport(Report);
  // Keys are emitted in sorted order regardless of insertion order.
  size_t NodeRed = Text.find("node_reduction");
  size_t Recall = Text.find("topk_recall");
  ASSERT_NE(NodeRed, std::string::npos);
  ASSERT_NE(Recall, std::string::npos);
  EXPECT_LT(NodeRed, Recall);

  BenchReport Back = parseOrDie(Text);
  ASSERT_EQ(Back.Workloads[0].Variants[1].Metrics.size(), 2u);
  EXPECT_EQ(serializeBenchReport(Back), Text)
      << "serialization must be a fixed point with metrics present";
  // Variants without metrics serialize with no "metrics" field at all,
  // so pre-metrics consumers see byte-identical JSON.
  BenchReport NoMetrics = parseOrDie(BaselineFixture);
  EXPECT_EQ(serializeBenchReport(NoMetrics).find("metrics"),
            std::string::npos);
}

TEST(BenchReport, MetricsRejectMalformedInput) {
  BenchReport Report;
  std::string Error;
  std::string Text(BaselineFixture);
  // Splice a non-object "metrics" into the first variant.
  size_t At = Text.find("\"merge_events\": [1024, 3072, 7168]");
  ASSERT_NE(At, std::string::npos);
  std::string Bad = Text;
  Bad.insert(At, "\"metrics\": [1, 2],\n          ");
  EXPECT_FALSE(parseBenchReport(Bad, Report, &Error));
  EXPECT_NE(Error.find("metrics"), std::string::npos);

  Bad = Text;
  Bad.insert(At, "\"metrics\": {\"topk_recall\": \"high\"},\n          ");
  EXPECT_FALSE(parseBenchReport(Bad, Report = {}, &Error));
  EXPECT_NE(Error.find("non-numeric metric"), std::string::npos);

  // Duplicate and empty metric names are semantic (validate) errors.
  BenchReport Dup = parseOrDie(BaselineFixture);
  Dup.Workloads[0].Variants[0].Metrics = {{"x", 1.0}, {"x", 2.0}, {"", 3.0}};
  std::vector<std::string> Problems;
  EXPECT_FALSE(validateBenchReport(Dup, Problems));
  bool FoundDup = false, FoundEmpty = false;
  for (const std::string &P : Problems) {
    FoundDup = FoundDup || P.find("duplicate metric") != std::string::npos;
    FoundEmpty =
        FoundEmpty || P.find("metric with an empty name") != std::string::npos;
  }
  EXPECT_TRUE(FoundDup);
  EXPECT_TRUE(FoundEmpty);
}

TEST(BenchReport, DiffIgnoresMetricsByDefault) {
  // Metrics are informational by default: a candidate whose metrics
  // moved (or vanished) passes the gate as long as throughput holds.
  BenchReport Baseline = parseOrDie(BaselineFixture);
  Baseline.Workloads[0].Variants[0].Metrics = {{"topk_recall", 1.0}};
  BenchReport Candidate = parseOrDie(BaselineFixture);
  Candidate.Workloads[0].Variants[0].Metrics = {{"topk_recall", 0.2}};
  Candidate.Workloads[1].Variants[0].Metrics.clear();
  std::vector<std::string> Problems;
  EXPECT_TRUE(diffBenchReports(Baseline, Candidate, BenchDiffOptions(),
                               Problems))
      << Problems.front();
}

TEST(BenchReport, DiffGatesMetricsWhenAsked) {
  BenchReport Baseline = parseOrDie(BaselineFixture);
  Baseline.Workloads[0].Variants[0].Metrics = {{"cold_rate", 0.90},
                                               {"warm_buckets", 1000.0}};
  BenchDiffOptions Gate;
  Gate.MetricTolerance = 0.05;

  // Small drifts inside the budget pass: rates use the absolute floor
  // of 1 (0.90 -> 0.87 is a 0.03 move on a 0.05 budget), counts scale
  // relatively (1000 -> 1040 is inside 5%).
  BenchReport Candidate = parseOrDie(BaselineFixture);
  Candidate.Workloads[0].Variants[0].Metrics = {{"cold_rate", 0.87},
                                                {"warm_buckets", 1040.0}};
  std::vector<std::string> Problems;
  EXPECT_TRUE(diffBenchReports(Baseline, Candidate, Gate, Problems))
      << Problems.front();

  // A rate that collapses past the budget is flagged by name.
  Candidate.Workloads[0].Variants[0].Metrics = {{"cold_rate", 0.70},
                                                {"warm_buckets", 1000.0}};
  Problems.clear();
  EXPECT_FALSE(diffBenchReports(Baseline, Candidate, Gate, Problems));
  ASSERT_EQ(Problems.size(), 1u);
  EXPECT_NE(Problems[0].find("cold_rate"), std::string::npos);
  EXPECT_NE(Problems[0].find("drifted"), std::string::npos);

  // A metric the candidate dropped is a failure too; extra candidate
  // metrics are fine (additive, like new variants).
  Candidate.Workloads[0].Variants[0].Metrics = {{"cold_rate", 0.90},
                                                {"extra_metric", 7.0}};
  Problems.clear();
  EXPECT_FALSE(diffBenchReports(Baseline, Candidate, Gate, Problems));
  ASSERT_EQ(Problems.size(), 1u);
  EXPECT_NE(Problems[0].find("warm_buckets"), std::string::npos);
  EXPECT_NE(Problems[0].find("missing"), std::string::npos);
}

TEST(BenchReport, DiffHonorsCustomTolerance) {
  BenchReport Baseline = parseOrDie(BaselineFixture);
  BenchReport Candidate = candidateWith(24000000.0); // -20%
  BenchDiffOptions Strict;
  Strict.MaxRegress = 0.10;
  std::vector<std::string> Problems;
  EXPECT_FALSE(diffBenchReports(Baseline, Candidate, Strict, Problems));
}
