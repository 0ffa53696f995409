//===- support/BenchReport.cpp - Pinned benchmark report model ------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BenchReport.h"

#include "support/BitUtils.h"
#include "support/MiniJson.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <set>

using namespace rap;

namespace {

/// snprintf into a std::string (all diagnostics are short).
[[gnu::format(printf, 1, 2)]] std::string format(const char *Fmt, ...) {
  char Buffer[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buffer, sizeof(Buffer), Fmt, Args);
  va_end(Args);
  return Buffer;
}

bool getString(const json::Value &Obj, const char *Name, std::string &Out,
               std::string *Error, const char *Context) {
  const json::Value *F = Obj.get(Name);
  if (!F || !F->isString()) {
    if (Error)
      *Error = format("%s: missing or non-string \"%s\"", Context, Name);
    return false;
  }
  Out = F->asString();
  return true;
}

bool getNumber(const json::Value &Obj, const char *Name, double &Out,
               std::string *Error, const char *Context) {
  const json::Value *F = Obj.get(Name);
  if (!F || !F->isNumber()) {
    if (Error)
      *Error = format("%s: missing or non-numeric \"%s\"", Context, Name);
    return false;
  }
  Out = F->asNumber();
  return true;
}

bool getUint(const json::Value &Obj, const char *Name, uint64_t &Out,
             std::string *Error, const char *Context) {
  const json::Value *F = Obj.get(Name);
  if (!F || !F->isNumber() || F->asUint(~uint64_t(0)) == ~uint64_t(0)) {
    if (Error)
      *Error = format("%s: missing or non-integer \"%s\"", Context, Name);
    return false;
  }
  Out = F->asUint();
  return true;
}

bool parseVariant(const json::Value &V, BenchVariant &Out,
                  std::string *Error, const std::string &Workload) {
  std::string Context = "workload \"" + Workload + "\" variant";
  if (!V.isObject()) {
    if (Error)
      *Error = Context + " is not an object";
    return false;
  }
  if (!getString(V, "name", Out.Name, Error, Context.c_str()) ||
      !getUint(V, "events", Out.Events, Error, Context.c_str()) ||
      !getNumber(V, "events_per_sec", Out.EventsPerSec, Error,
                 Context.c_str()) ||
      !getNumber(V, "ns_per_event", Out.NsPerEvent, Error,
                 Context.c_str()) ||
      !getUint(V, "nodes", Out.Nodes, Error, Context.c_str()) ||
      !getUint(V, "max_nodes", Out.MaxNodes, Error, Context.c_str()) ||
      !getNumber(V, "bytes_per_node", Out.BytesPerNode, Error,
                 Context.c_str()))
    return false;
  const json::Value *Merges = V.get("merge_events");
  if (!Merges || !Merges->isArray()) {
    if (Error)
      *Error = Context + ": missing or non-array \"merge_events\"";
    return false;
  }
  for (const json::Value &E : Merges->elements()) {
    if (!E.isNumber() || E.asUint(~uint64_t(0)) == ~uint64_t(0)) {
      if (Error)
        *Error = Context + ": non-integer entry in \"merge_events\"";
      return false;
    }
    Out.MergeEvents.push_back(E.asUint());
  }
  // "metrics" is an optional additive field: absent maps parse to an
  // empty vector, present ones must be flat name -> number objects.
  if (const json::Value *Metrics = V.get("metrics")) {
    if (!Metrics->isObject()) {
      if (Error)
        *Error = Context + ": \"metrics\" is not an object";
      return false;
    }
    for (const std::pair<std::string, json::Value> &F : Metrics->fields()) {
      if (!F.second.isNumber()) {
        if (Error)
          *Error = Context + ": non-numeric metric \"" + F.first + "\"";
        return false;
      }
      Out.Metrics.emplace_back(F.first, F.second.asNumber());
    }
  }
  return true;
}

bool parseWorkload(const json::Value &V, BenchWorkload &Out,
                   std::string *Error) {
  if (!V.isObject()) {
    if (Error)
      *Error = "workload entry is not an object";
    return false;
  }
  if (!getString(V, "name", Out.Name, Error, "workload"))
    return false;
  std::string Context = "workload \"" + Out.Name + "\"";
  uint64_t RangeBits = 0, BranchFactor = 0;
  if (!getUint(V, "range_bits", RangeBits, Error, Context.c_str()) ||
      !getUint(V, "branch_factor", BranchFactor, Error, Context.c_str()) ||
      !getNumber(V, "epsilon", Out.Epsilon, Error, Context.c_str()) ||
      !getUint(V, "events", Out.Events, Error, Context.c_str()) ||
      !getNumber(V, "speedup_vs_legacy", Out.SpeedupVsLegacy, Error,
                 Context.c_str()))
    return false;
  Out.RangeBits = static_cast<unsigned>(RangeBits);
  Out.BranchFactor = static_cast<unsigned>(BranchFactor);
  const json::Value *Variants = V.get("variants");
  if (!Variants || !Variants->isArray()) {
    if (Error)
      *Error = Context + ": missing or non-array \"variants\"";
    return false;
  }
  for (const json::Value &Entry : Variants->elements()) {
    BenchVariant Variant;
    if (!parseVariant(Entry, Variant, Error, Out.Name))
      return false;
    Out.Variants.push_back(std::move(Variant));
  }
  return true;
}

const BenchVariant *findVariant(const BenchWorkload &W,
                                const std::string &Name) {
  for (const BenchVariant &V : W.Variants)
    if (V.Name == Name)
      return &V;
  return nullptr;
}

} // namespace

bool rap::parseBenchReport(const std::string &Text, BenchReport &Out,
                           std::string *Error) {
  json::Value Root = json::parse(Text, Error);
  if (Root.isNull()) {
    if (Error && Error->empty())
      *Error = "report is JSON null";
    return false;
  }
  if (!Root.isObject()) {
    if (Error)
      *Error = "report is not a JSON object";
    return false;
  }
  if (!getString(Root, "schema", Out.Schema, Error, "report") ||
      !getString(Root, "generator", Out.Generator, Error, "report"))
    return false;
  if (Out.Schema != BenchSchemaName) {
    if (Error)
      *Error = format("unsupported schema \"%s\" (expected \"%s\")",
                      Out.Schema.c_str(), BenchSchemaName);
    return false;
  }
  const json::Value *Workloads = Root.get("workloads");
  if (!Workloads || !Workloads->isArray()) {
    if (Error)
      *Error = "report: missing or non-array \"workloads\"";
    return false;
  }
  for (const json::Value &Entry : Workloads->elements()) {
    BenchWorkload W;
    if (!parseWorkload(Entry, W, Error))
      return false;
    Out.Workloads.push_back(std::move(W));
  }
  return true;
}

bool rap::validateBenchReport(const BenchReport &Report,
                              std::vector<std::string> &Problems) {
  size_t Before = Problems.size();
  if (Report.Schema != BenchSchemaName)
    Problems.push_back(format("schema is \"%s\", expected \"%s\"",
                              Report.Schema.c_str(), BenchSchemaName));
  if (Report.Generator.empty())
    Problems.push_back("generator is empty");
  if (Report.Workloads.empty())
    Problems.push_back("report has no workloads");

  std::set<std::string> WorkloadNames;
  for (const BenchWorkload &W : Report.Workloads) {
    const std::string &N = W.Name;
    if (N.empty())
      Problems.push_back("workload with an empty name");
    if (!WorkloadNames.insert(N).second)
      Problems.push_back(format("duplicate workload \"%s\"", N.c_str()));
    if (W.RangeBits > 64)
      Problems.push_back(format("workload \"%s\": range_bits %u > 64",
                                N.c_str(), W.RangeBits));
    if (!isPowerOfTwo(W.BranchFactor) || W.BranchFactor < 2)
      Problems.push_back(
          format("workload \"%s\": branch_factor %u is not a power of "
                 "two >= 2",
                 N.c_str(), W.BranchFactor));
    if (!(W.Epsilon > 0.0) || !(W.Epsilon < 1.0))
      Problems.push_back(format("workload \"%s\": epsilon %g outside (0, 1)",
                                N.c_str(), W.Epsilon));
    if (W.Events == 0)
      Problems.push_back(format("workload \"%s\": zero events", N.c_str()));
    if (W.Variants.empty())
      Problems.push_back(format("workload \"%s\": no variants", N.c_str()));

    std::set<std::string> VariantNames;
    for (const BenchVariant &V : W.Variants) {
      std::string Tag = format("workload \"%s\" variant \"%s\"", N.c_str(),
                               V.Name.c_str());
      if (V.Name.empty())
        Problems.push_back(format("workload \"%s\": variant with an empty "
                                  "name",
                                  N.c_str()));
      if (!VariantNames.insert(V.Name).second)
        Problems.push_back(Tag + ": duplicate variant name");
      if (V.Events != W.Events)
        Problems.push_back(
            format("%s: fed %llu events, workload says %llu", Tag.c_str(),
                   static_cast<unsigned long long>(V.Events),
                   static_cast<unsigned long long>(W.Events)));
      if (!(V.EventsPerSec > 0.0))
        Problems.push_back(Tag + ": events_per_sec is not positive");
      if (!(V.NsPerEvent >= 0.0))
        Problems.push_back(Tag + ": ns_per_event is negative");
      if (V.Nodes == 0)
        Problems.push_back(Tag + ": zero nodes (the root always exists)");
      if (V.MaxNodes < V.Nodes)
        Problems.push_back(Tag + ": max_nodes below the final node count");
      if (!(V.BytesPerNode > 0.0))
        Problems.push_back(Tag + ": bytes_per_node is not positive");
      std::set<std::string> MetricNames;
      for (const std::pair<std::string, double> &M : V.Metrics) {
        if (M.first.empty())
          Problems.push_back(Tag + ": metric with an empty name");
        if (!MetricNames.insert(M.first).second)
          Problems.push_back(Tag + ": duplicate metric \"" + M.first + "\"");
        if (!std::isfinite(M.second))
          Problems.push_back(format("%s: metric \"%s\" is not finite",
                                    Tag.c_str(), M.first.c_str()));
      }
      for (size_t I = 0; I != V.MergeEvents.size(); ++I) {
        if (I != 0 && V.MergeEvents[I] <= V.MergeEvents[I - 1]) {
          Problems.push_back(Tag +
                             ": merge_events is not strictly increasing");
          break;
        }
        if (V.MergeEvents[I] > V.Events) {
          Problems.push_back(Tag +
                             ": merge_events entry beyond the event count");
          break;
        }
      }
    }

    // The recorded headline speedup must match the variant data: best
    // throughput of the other variants over the baseline's. The
    // baseline is "legacy", or "single" (one arena tree on one
    // thread) in bench_parallel's reports.
    const BenchVariant *Baseline = findVariant(W, "legacy");
    if (!Baseline)
      Baseline = findVariant(W, "single");
    if (!Baseline) {
      Problems.push_back(format("workload \"%s\": no \"legacy\" variant (or "
                                "\"single\") to compare against",
                                N.c_str()));
    } else if (Baseline->EventsPerSec > 0.0) {
      double Best = 0.0;
      for (const BenchVariant &V : W.Variants)
        if (&V != Baseline && V.EventsPerSec > Best)
          Best = V.EventsPerSec;
      if (Best > 0.0) {
        double Expected = Best / Baseline->EventsPerSec;
        double Tolerance = 1e-6 * std::max(1.0, Expected);
        if (std::fabs(Expected - W.SpeedupVsLegacy) > Tolerance)
          Problems.push_back(
              format("workload \"%s\": speedup_vs_legacy %.6f does not "
                     "match variant data (%.6f)",
                     N.c_str(), W.SpeedupVsLegacy, Expected));
      }
    }
  }
  return Problems.size() == Before;
}

std::string rap::serializeBenchReport(const BenchReport &Report) {
  json::Value Root = json::Value::object();
  Root.set("schema", json::Value::string(Report.Schema));
  Root.set("generator", json::Value::string(Report.Generator));
  json::Value &Workloads = Root.set("workloads", json::Value::array());
  for (const BenchWorkload &W : Report.Workloads) {
    json::Value Entry = json::Value::object();
    Entry.set("name", json::Value::string(W.Name));
    Entry.set("range_bits", json::Value::number(uint64_t(W.RangeBits)));
    Entry.set("branch_factor",
              json::Value::number(uint64_t(W.BranchFactor)));
    Entry.set("epsilon", json::Value::number(W.Epsilon));
    Entry.set("events", json::Value::number(W.Events));
    Entry.set("speedup_vs_legacy", json::Value::number(W.SpeedupVsLegacy));
    json::Value &Variants = Entry.set("variants", json::Value::array());
    for (const BenchVariant &V : W.Variants) {
      json::Value VE = json::Value::object();
      VE.set("name", json::Value::string(V.Name));
      VE.set("events", json::Value::number(V.Events));
      VE.set("events_per_sec", json::Value::number(V.EventsPerSec));
      VE.set("ns_per_event", json::Value::number(V.NsPerEvent));
      VE.set("nodes", json::Value::number(V.Nodes));
      VE.set("max_nodes", json::Value::number(V.MaxNodes));
      VE.set("bytes_per_node", json::Value::number(V.BytesPerNode));
      json::Value &Merges = VE.set("merge_events", json::Value::array());
      for (uint64_t M : V.MergeEvents)
        Merges.push(json::Value::number(M));
      if (!V.Metrics.empty()) {
        // Sorted key order keeps the committed JSON independent of the
        // order the producing tool recorded the metrics in.
        std::vector<std::pair<std::string, double>> Sorted = V.Metrics;
        std::sort(Sorted.begin(), Sorted.end());
        json::Value &Metrics = VE.set("metrics", json::Value::object());
        for (const std::pair<std::string, double> &M : Sorted)
          Metrics.set(M.first, json::Value::number(M.second));
      }
      Variants.push(std::move(VE));
    }
    Workloads.push(std::move(Entry));
  }
  return json::serialize(Root);
}

bool rap::diffBenchReports(const BenchReport &Baseline,
                           const BenchReport &Candidate,
                           const BenchDiffOptions &Options,
                           std::vector<std::string> &Problems) {
  size_t Before = Problems.size();
  for (const BenchWorkload &BW : Baseline.Workloads) {
    const BenchWorkload *CW = nullptr;
    for (const BenchWorkload &W : Candidate.Workloads)
      if (W.Name == BW.Name)
        CW = &W;
    if (!CW) {
      Problems.push_back(format("workload \"%s\" missing from the candidate",
                                BW.Name.c_str()));
      continue;
    }
    for (const BenchVariant &BV : BW.Variants) {
      const BenchVariant *CV = findVariant(*CW, BV.Name);
      if (!CV) {
        Problems.push_back(
            format("workload \"%s\" variant \"%s\" missing from the "
                   "candidate",
                   BW.Name.c_str(), BV.Name.c_str()));
        continue;
      }
      double Floor = BV.EventsPerSec * (1.0 - Options.MaxRegress);
      if (CV->EventsPerSec < Floor)
        Problems.push_back(format(
            "workload \"%s\" variant \"%s\" regressed: %.3g events/sec vs "
            "baseline %.3g (floor %.3g at %.0f%% tolerance)",
            BW.Name.c_str(), BV.Name.c_str(), CV->EventsPerSec,
            BV.EventsPerSec, Floor, 100.0 * Options.MaxRegress));
      if (Options.MetricTolerance < 0.0)
        continue;
      for (const std::pair<std::string, double> &BM : BV.Metrics) {
        const double *CM = nullptr;
        for (const std::pair<std::string, double> &M : CV->Metrics)
          if (M.first == BM.first)
            CM = &M.second;
        if (!CM) {
          Problems.push_back(format(
              "workload \"%s\" variant \"%s\" metric \"%s\" missing from "
              "the candidate",
              BW.Name.c_str(), BV.Name.c_str(), BM.first.c_str()));
          continue;
        }
        // Relative with an absolute floor of 1, so one tolerance knob
        // covers [0, 1] rates and large counts alike.
        double Allowed = Options.MetricTolerance *
                         std::max(std::fabs(BM.second), 1.0);
        if (std::fabs(*CM - BM.second) > Allowed)
          Problems.push_back(format(
              "workload \"%s\" variant \"%s\" metric \"%s\" drifted: "
              "%.6g vs baseline %.6g (allowed +/-%.6g)",
              BW.Name.c_str(), BV.Name.c_str(), BM.first.c_str(), *CM,
              BM.second, Allowed));
      }
    }
  }
  return Problems.size() == Before;
}
