//===- tests/test_obs.cpp - Telemetry subsystem unit tests -----------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the observability substrate: the JSON writer/reader, the
/// counter/gauge/histogram registry, phase timer nesting, trace-JSON
/// well-formedness (validated by parsing it back), the disabled path,
/// and the pipeline / interpreter instrumentation built on top.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/EventLog.h"
#include "obs/Parallel.h"
#include "obs/Telemetry.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace sest;
using namespace sest::test;

namespace {

//===----------------------------------------------------------------------===//
// JSON writer / reader
//===----------------------------------------------------------------------===//

TEST(Json, WriterProducesParseableDocument) {
  JsonWriter W;
  W.beginObject();
  W.member("name", "sest");
  W.member("count", 3);
  W.member("ratio", 0.25);
  W.member("big", uint64_t(1) << 53);
  W.member("flag", true);
  W.key("nested");
  W.beginObject();
  W.key("null");
  W.nullValue();
  W.endObject();
  W.key("items");
  W.beginArray();
  W.value(1).value("two").value(3.5);
  W.endArray();
  W.endObject();
  ASSERT_TRUE(W.complete());

  auto V = parseJson(W.str());
  ASSERT_TRUE(V.has_value());
  ASSERT_TRUE(V->isObject());
  EXPECT_EQ(V->find("name")->StringVal, "sest");
  EXPECT_EQ(V->numberOr("count", -1), 3);
  EXPECT_EQ(V->numberOr("ratio", -1), 0.25);
  EXPECT_TRUE(V->find("flag")->BoolVal);
  EXPECT_TRUE(V->find("nested")->find("null")->isNull());
  ASSERT_EQ(V->find("items")->Items.size(), 3u);
  EXPECT_EQ(V->find("items")->Items[1].StringVal, "two");
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  JsonWriter W;
  W.beginObject();
  W.member("s", "a\"b\\c\n\t\x01");
  W.endObject();
  auto V = parseJson(W.str());
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->find("s")->StringVal, "a\"b\\c\n\t\x01");
}

TEST(Json, NumbersRoundTrip) {
  EXPECT_EQ(jsonNumber(3.0), "3");
  EXPECT_EQ(jsonNumber(-17.0), "-17");
  EXPECT_EQ(jsonNumber(0.5), "0.5");
  // JSON has no NaN/Infinity; they degrade to null.
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parseJson("{").has_value());
  EXPECT_FALSE(parseJson("[1,]").has_value());
  EXPECT_FALSE(parseJson("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(parseJson("'single'").has_value());
  EXPECT_TRUE(parseJson(" { \"a\" : [ 1 , 2 ] } ").has_value());
}

//===----------------------------------------------------------------------===//
// Counter / gauge / histogram registry
//===----------------------------------------------------------------------===//

TEST(Telemetry, CountersAccumulate) {
  obs::Telemetry T;
  T.install();
  obs::counterAdd("a.b.c");
  obs::counterAdd("a.b.c", 4.0);
  obs::counterAdd("x.y.z", 2.5);
  T.uninstall();
  EXPECT_EQ(T.counters().at("a.b.c"), 5.0);
  EXPECT_EQ(T.counters().at("x.y.z"), 2.5);
}

TEST(Telemetry, GaugesKeepHighWater) {
  obs::Telemetry T;
  T.install();
  obs::gaugeMax("g", 3.0);
  obs::gaugeMax("g", 7.0);
  obs::gaugeMax("g", 5.0);
  T.uninstall();
  EXPECT_EQ(T.gauges().at("g"), 7.0);
}

TEST(Telemetry, HistogramsTrackCountSumMinMaxMean) {
  obs::Telemetry T;
  T.install();
  obs::histRecord("h", 1.0);
  obs::histRecord("h", 4.0);
  obs::histRecord("h", 10.0);
  T.uninstall();
  const obs::HistogramStats &H = T.histograms().at("h");
  EXPECT_EQ(H.Count, 3u);
  EXPECT_EQ(H.Sum, 15.0);
  EXPECT_EQ(H.Min, 1.0);
  EXPECT_EQ(H.Max, 10.0);
  EXPECT_EQ(H.mean(), 5.0);
}

TEST(Telemetry, NothingRecordedWithoutInstall) {
  // The disabled path: with no context installed these are no-ops, and
  // a context that is never installed collects nothing.
  obs::Telemetry T;
  EXPECT_FALSE(obs::telemetryActive());
  obs::counterAdd("dropped");
  obs::gaugeMax("dropped", 1.0);
  obs::histRecord("dropped", 1.0);
  { obs::ScopedPhase P("dropped.phase"); }
  EXPECT_TRUE(T.counters().empty());
  EXPECT_TRUE(T.gauges().empty());
  EXPECT_TRUE(T.histograms().empty());
  EXPECT_TRUE(T.events().empty());
  EXPECT_EQ(T.traceJson().find("dropped"), std::string::npos);
}

TEST(Telemetry, InstallsStack) {
  obs::Telemetry Outer, Inner;
  Outer.install();
  obs::counterAdd("n");
  Inner.install();
  obs::counterAdd("n");
  Inner.uninstall();
  obs::counterAdd("n");
  Outer.uninstall();
  EXPECT_EQ(Outer.counters().at("n"), 2.0);
  EXPECT_EQ(Inner.counters().at("n"), 1.0);
  EXPECT_FALSE(obs::telemetryActive());
}

//===----------------------------------------------------------------------===//
// Phase timers
//===----------------------------------------------------------------------===//

TEST(Telemetry, PhasesNestAndAggregate) {
  obs::Telemetry T;
  T.install();
  for (int I = 0; I < 2; ++I) {
    obs::ScopedPhase Outer("outer");
    obs::ScopedPhase InnerA("inner.a");
    { obs::ScopedPhase InnerB("inner.b"); }
  }
  T.uninstall();
  EXPECT_EQ(T.openPhaseDepth(), 0u);

  const obs::PhaseNode &Root = T.phaseTree();
  ASSERT_EQ(Root.Children.size(), 1u);
  const obs::PhaseNode &Outer = *Root.Children[0];
  EXPECT_EQ(Outer.Name, "outer");
  EXPECT_EQ(Outer.Count, 2u);
  ASSERT_EQ(Outer.Children.size(), 1u);
  const obs::PhaseNode &InnerA = *Outer.Children[0];
  EXPECT_EQ(InnerA.Name, "inner.a");
  EXPECT_EQ(InnerA.Count, 2u);
  ASSERT_EQ(InnerA.Children.size(), 1u);
  EXPECT_EQ(InnerA.Children[0]->Name, "inner.b");
  // Every span covers its children.
  EXPECT_GE(Outer.TotalUs, Outer.ChildUs);
  EXPECT_GE(InnerA.TotalUs, InnerA.ChildUs);

  // Events carry nesting depth (completion order: innermost first).
  ASSERT_EQ(T.events().size(), 6u);
  EXPECT_EQ(T.events()[0].Name, "inner.b");
  EXPECT_EQ(T.events()[0].Depth, 2u);
  EXPECT_EQ(T.events()[2].Name, "outer");
  EXPECT_EQ(T.events()[2].Depth, 0u);

  // And the human-readable renderings mention every phase.
  std::string Summary = T.phaseSummary();
  EXPECT_NE(Summary.find("outer"), std::string::npos);
  EXPECT_NE(Summary.find("inner.b"), std::string::npos);
}

TEST(Telemetry, TraceJsonIsWellFormed) {
  obs::Telemetry T;
  T.install();
  {
    obs::ScopedPhase Outer("estimate");
    obs::ScopedPhase Inner("estimate.intra", "main");
  }
  obs::counterAdd("cfg.blocks.built", 7);
  obs::gaugeMax("interp.heap_cells.high_water", 42);
  T.uninstall();

  auto V = parseJson(T.traceJson());
  ASSERT_TRUE(V.has_value()) << T.traceJson();
  const JsonValue *Events = V->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  unsigned NumSpans = 0, NumCounters = 0;
  bool SawInner = false;
  for (const JsonValue &E : Events->Items) {
    const JsonValue *Ph = E.find("ph");
    ASSERT_NE(Ph, nullptr);
    if (Ph->StringVal == "X") {
      ++NumSpans;
      EXPECT_TRUE(E.find("name")->isString());
      EXPECT_TRUE(E.find("ts")->isNumber());
      EXPECT_TRUE(E.find("dur")->isNumber());
      if (E.find("name")->StringVal == "estimate.intra") {
        SawInner = true;
        EXPECT_EQ(E.find("args")->find("detail")->StringVal, "main");
      }
    } else if (Ph->StringVal == "C") {
      ++NumCounters;
    }
  }
  EXPECT_EQ(NumSpans, 2u);
  EXPECT_TRUE(SawInner);
  EXPECT_EQ(NumCounters, 2u);
}

TEST(Telemetry, ReportRoundTripsThroughReader) {
  obs::Telemetry T;
  T.install();
  { obs::ScopedPhase P("phase.one"); }
  obs::counterAdd("c", 3);
  obs::histRecord("h", 2.0);
  T.uninstall();

  JsonWriter W;
  T.writeReport(W);
  auto V = parseJson(W.str());
  ASSERT_TRUE(V.has_value()) << W.str();
  EXPECT_EQ(V->find("counters")->numberOr("c", -1), 3.0);
  EXPECT_EQ(V->find("histograms")->find("h")->numberOr("count", -1), 1.0);
  ASSERT_EQ(V->find("phases")->Items.size(), 1u);
  EXPECT_EQ(V->find("phases")->Items[0].find("name")->StringVal,
            "phase.one");
}

//===----------------------------------------------------------------------===//
// Pipeline instrumentation
//===----------------------------------------------------------------------===//

TEST(Telemetry, PipelineEmitsFrontendAndInterpCounters) {
  obs::Telemetry T;
  T.install();
  auto C = compile("int add(int a, int b) { return a + b; }\n"
                   "int main() { int s = 0; int i;\n"
                   "  for (i = 0; i < 10; i++) s = add(s, i);\n"
                   "  return s; }");
  ASSERT_NE(C, nullptr);
  RunResult R = run(*C);
  T.uninstall();

  EXPECT_EQ(R.ExitCode, 45);
  EXPECT_GT(T.counters().at("frontend.tokens.lexed"), 0.0);
  EXPECT_GT(T.counters().at("frontend.ast.nodes"), 0.0);
  EXPECT_EQ(T.counters().at("cfg.functions.built"), 2.0);
  EXPECT_EQ(T.counters().at("interp.steps.executed"),
            static_cast<double>(R.StepsExecuted));
  EXPECT_EQ(T.gauges().at("interp.call_depth.high_water"),
            static_cast<double>(R.CallDepthHighWater));
  // Both functions accrued self time.
  EXPECT_GT(T.counters().at("interp.fn_self_steps.main"), 0.0);
  EXPECT_GT(T.counters().at("interp.fn_self_steps.add"), 0.0);

  // The frontend phase nests lex/parse/sema under it.
  const obs::PhaseNode &Root = T.phaseTree();
  const obs::PhaseNode *Frontend = nullptr;
  for (const auto &Child : Root.Children)
    if (Child->Name == "frontend")
      Frontend = Child.get();
  ASSERT_NE(Frontend, nullptr);
  EXPECT_EQ(Frontend->Children.size(), 3u);
}

//===----------------------------------------------------------------------===//
// Interpreter resource-limit reporting
//===----------------------------------------------------------------------===//

TEST(Telemetry, StepLimitReportsLimitAndHighWater) {
  auto C = compile("int main() { while (1) {} return 0; }");
  ASSERT_NE(C, nullptr);
  InterpOptions Opts;
  Opts.MaxSteps = 1000;
  RunResult R = runProgram(C->unit(), *C->Cfgs, ProgramInput{}, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.LimitHit, RunLimit::Steps);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
  EXPECT_NE(R.Error.find("MaxSteps=1000"), std::string::npos);
  EXPECT_NE(R.Error.find("high-water"), std::string::npos);
  EXPECT_GT(R.StepsExecuted, 1000u);
}

TEST(Telemetry, HeapLimitReportsLimitAndHighWater) {
  auto C = compile("int main() { while (1) { malloc(64); } return 0; }");
  ASSERT_NE(C, nullptr);
  InterpOptions Opts;
  Opts.MaxHeapCells = 256;
  RunResult R = runProgram(C->unit(), *C->Cfgs, ProgramInput{}, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.LimitHit, RunLimit::HeapCells);
  EXPECT_NE(R.Error.find("heap limit exceeded"), std::string::npos);
  EXPECT_NE(R.Error.find("MaxHeapCells=256"), std::string::npos);
  EXPECT_EQ(R.HeapCellsHighWater, 256);
}

TEST(Telemetry, CallDepthLimitReportsLimitAndHighWater) {
  auto C = compile("int f(int n) { return f(n + 1); }\n"
                   "int main() { return f(0); }");
  ASSERT_NE(C, nullptr);
  InterpOptions Opts;
  Opts.MaxCallDepth = 50;
  RunResult R = runProgram(C->unit(), *C->Cfgs, ProgramInput{}, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.LimitHit, RunLimit::CallDepth);
  EXPECT_NE(R.Error.find("call depth limit exceeded"), std::string::npos);
  EXPECT_NE(R.Error.find("MaxCallDepth=50"), std::string::npos);
  EXPECT_EQ(R.CallDepthHighWater, 50u);
  EXPECT_STREQ(runLimitName(R.LimitHit), "call-depth");
}

TEST(Telemetry, SuccessfulRunReportsUsageWithoutLimit) {
  auto C = compile("int main() { int *p = (int *)malloc(8);\n"
                   "  if (p == 0) return 1; return 0; }");
  ASSERT_NE(C, nullptr);
  RunResult R = runProgram(C->unit(), *C->Cfgs, ProgramInput{});
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.LimitHit, RunLimit::None);
  EXPECT_GT(R.StepsExecuted, 0u);
  EXPECT_EQ(R.HeapCellsHighWater, 8);
  EXPECT_EQ(R.CallDepthHighWater, 1u);
}

//===----------------------------------------------------------------------===//
// Journal replay edge cases
//===----------------------------------------------------------------------===//

/// A context in journal mode, as obs::parallelFor keeps one per worker.
struct Journal : obs::Telemetry {
  explicit Journal(uint32_t Track = 0) {
    setTrack(Track);
    setJournaling(true);
  }
  /// Replays every op into \p Dst.
  void replayInto(obs::Telemetry &Dst) const {
    Dst.replay(*this, 0, journalSize());
  }
};

TEST(Telemetry, MergeFromDisjointHistogramKeys) {
  obs::Telemetry A;
  Journal B;
  A.install();
  obs::histRecord("only.a", 2.0);
  obs::histRecord("shared", 1.0);
  A.uninstall();
  B.install();
  obs::histRecord("only.b", 8.0);
  obs::histRecord("shared", 5.0);
  obs::histRecord("shared", 3.0);
  B.uninstall();

  B.replayInto(A);

  // A key only the journal had is created from its samples...
  const obs::HistogramStats &OnlyB = A.histograms().at("only.b");
  EXPECT_EQ(OnlyB.Count, 1u);
  EXPECT_EQ(OnlyB.Sum, 8.0);
  EXPECT_EQ(OnlyB.Min, 8.0);
  EXPECT_EQ(OnlyB.Max, 8.0);
  // ...a key only the destination had is untouched...
  const obs::HistogramStats &OnlyA = A.histograms().at("only.a");
  EXPECT_EQ(OnlyA.Count, 1u);
  EXPECT_EQ(OnlyA.Sum, 2.0);
  // ...and a shared key pools count/sum/min/max.
  const obs::HistogramStats &Shared = A.histograms().at("shared");
  EXPECT_EQ(Shared.Count, 3u);
  EXPECT_EQ(Shared.Sum, 9.0);
  EXPECT_EQ(Shared.Min, 1.0);
  EXPECT_EQ(Shared.Max, 5.0);
  // The journal recorded ops, not histograms, and the replay does not
  // consume them.
  EXPECT_TRUE(B.histograms().empty());
  EXPECT_EQ(B.journalSize(), 3u);
}

TEST(Telemetry, MergeFromGraftsUnderActivePhaseStack) {
  // Replaying a journal while phases are open must nest its phases
  // under the innermost open phase (the suite runner replays its tasks
  // from inside "suite.run"), and replayed events must be re-based to
  // the open depth.
  Journal Src;
  Src.install();
  { obs::ScopedPhase P("worker.run"); }
  Src.uninstall();
  EXPECT_TRUE(Src.events().empty());
  EXPECT_EQ(Src.journalSize(), 2u); // begin and end

  obs::Telemetry Dst;
  Dst.install();
  {
    obs::ScopedPhase Outer("suite");
    {
      obs::ScopedPhase Inner("suite.run");
      EXPECT_EQ(Dst.openPhaseDepth(), 2u);
      Src.replayInto(Dst);
    }
  }
  Dst.uninstall();

  // Tree: suite > suite.run > worker.run.
  const obs::PhaseNode &Root = Dst.phaseTree();
  ASSERT_EQ(Root.Children.size(), 1u);
  const obs::PhaseNode &Outer = *Root.Children[0];
  EXPECT_EQ(Outer.Name, "suite");
  ASSERT_EQ(Outer.Children.size(), 1u);
  const obs::PhaseNode &Inner = *Outer.Children[0];
  EXPECT_EQ(Inner.Name, "suite.run");
  ASSERT_EQ(Inner.Children.size(), 1u);
  EXPECT_EQ(Inner.Children[0]->Name, "worker.run");
  EXPECT_EQ(Inner.Children[0]->Count, 1u);

  // The replayed event sits two levels below the top.
  bool FoundWorker = false;
  for (const obs::TraceEvent &E : Dst.events())
    if (E.Name == "worker.run") {
      FoundWorker = true;
      EXPECT_EQ(E.Depth, 2u);
    }
  EXPECT_TRUE(FoundWorker);
  EXPECT_EQ(Dst.openPhaseDepth(), 0u);
}

TEST(Telemetry, TripleNestedInstallOrdering) {
  // install() stacks: recording always goes to the innermost context,
  // and uninstall() restores the next-outer one — across three levels.
  obs::Telemetry A, B, C;
  A.install();
  obs::counterAdd("depth", 1.0);
  B.install();
  obs::counterAdd("depth", 10.0);
  C.install();
  obs::counterAdd("depth", 100.0);
  EXPECT_EQ(obs::Telemetry::active(), &C);
  C.uninstall();
  EXPECT_EQ(obs::Telemetry::active(), &B);
  obs::counterAdd("depth", 10.0);
  B.uninstall();
  EXPECT_EQ(obs::Telemetry::active(), &A);
  obs::counterAdd("depth", 1.0);
  A.uninstall();
  EXPECT_FALSE(obs::telemetryActive());

  EXPECT_EQ(A.counters().at("depth"), 2.0);
  EXPECT_EQ(B.counters().at("depth"), 20.0);
  EXPECT_EQ(C.counters().at("depth"), 100.0);

  // A journal installed innermost (the parallel-runner pattern) takes
  // the recording calls, and replaying it pools them outward.
  Journal J;
  B.install();
  J.install();
  obs::counterAdd("depth", 100.0);
  EXPECT_EQ(obs::Telemetry::active(), &J);
  J.uninstall();
  EXPECT_EQ(obs::Telemetry::active(), &B);
  B.uninstall();
  J.replayInto(B);
  EXPECT_EQ(B.counters().at("depth"), 120.0);
  EXPECT_TRUE(J.counters().empty());
}

//===----------------------------------------------------------------------===//
// Histogram percentiles
//===----------------------------------------------------------------------===//

TEST(Telemetry, HistogramPercentilesFromBuckets) {
  obs::Telemetry T;
  T.install();
  for (int I = 1; I <= 100; ++I)
    obs::histRecord("h", static_cast<double>(I));
  T.uninstall();

  const obs::HistogramStats &H = T.histograms().at("h");
  // Bucket boundaries are powers of two split 8 ways, so the expected
  // midpoints are exact: rank 50 lands in [48,52) -> 50, rank 90 in
  // [88,96) -> 92, rank 99 in [96,104) -> 100 after the Max clamp.
  EXPECT_EQ(H.p50(), 50.0);
  EXPECT_EQ(H.p90(), 92.0);
  EXPECT_EQ(H.p99(), 100.0);
  // Percentiles never escape the observed range.
  EXPECT_EQ(H.percentile(0.0), H.percentile(0.01));
  EXPECT_LE(H.percentile(1.0), H.Max);
  EXPECT_GE(H.percentile(0.01), H.Min);
}

TEST(Telemetry, HistogramPercentileDegenerateCases) {
  obs::HistogramStats Empty;
  EXPECT_EQ(Empty.percentile(0.5), 0.0);

  // All-identical samples: every percentile is that value (the bucket
  // midpoint clamps to [Min, Max]).
  obs::Telemetry T;
  T.install();
  for (int I = 0; I < 5; ++I)
    obs::histRecord("same", 7.0);
  // Non-positive samples share the underflow bucket and report Min.
  obs::histRecord("neg", -5.0);
  obs::histRecord("neg", -1.0);
  obs::histRecord("neg", 3.0);
  T.uninstall();
  const obs::HistogramStats &Same = T.histograms().at("same");
  EXPECT_EQ(Same.p50(), 7.0);
  EXPECT_EQ(Same.p99(), 7.0);
  const obs::HistogramStats &Neg = T.histograms().at("neg");
  EXPECT_EQ(Neg.percentile(0.5), -5.0);

  // The bucket index itself: monotone in the sample, underflow for
  // non-positive/non-finite input.
  EXPECT_EQ(obs::HistogramStats::bucketIndex(0.0), INT32_MIN);
  EXPECT_EQ(obs::HistogramStats::bucketIndex(-1.0), INT32_MIN);
  EXPECT_LT(obs::HistogramStats::bucketIndex(1.0),
            obs::HistogramStats::bucketIndex(2.0));
  EXPECT_LT(obs::HistogramStats::bucketIndex(0.001),
            obs::HistogramStats::bucketIndex(0.002));
}

TEST(Telemetry, HistogramPercentilesMergeAdditively) {
  // Percentiles after replaying half the samples from a journal must
  // match the combined distribution, so partitioning the samples across
  // workers (the parallel suite) cannot move the percentile estimates.
  obs::Telemetry Combined, A;
  Journal B;
  Combined.install();
  for (int I = 1; I <= 100; ++I)
    obs::histRecord("h", static_cast<double>(I));
  Combined.uninstall();
  A.install();
  for (int I = 1; I <= 50; ++I)
    obs::histRecord("h", static_cast<double>(I));
  A.uninstall();
  B.install();
  for (int I = 51; I <= 100; ++I)
    obs::histRecord("h", static_cast<double>(I));
  B.uninstall();

  B.replayInto(A);
  const obs::HistogramStats &Whole = Combined.histograms().at("h");
  const obs::HistogramStats &Merged = A.histograms().at("h");
  EXPECT_EQ(Merged.Count, Whole.Count);
  EXPECT_EQ(Merged.Sum, Whole.Sum);
  EXPECT_EQ(Merged.p50(), Whole.p50());
  EXPECT_EQ(Merged.p90(), Whole.p90());
  EXPECT_EQ(Merged.p99(), Whole.p99());
}

TEST(Telemetry, StatsTableAndReportCarryPercentiles) {
  obs::Telemetry T;
  T.install();
  for (int I = 1; I <= 10; ++I)
    obs::histRecord("h", static_cast<double>(I));
  T.uninstall();

  std::string Table = T.statsTable();
  EXPECT_NE(Table.find("P50"), std::string::npos);
  EXPECT_NE(Table.find("P90"), std::string::npos);
  EXPECT_NE(Table.find("P99"), std::string::npos);

  JsonWriter W;
  T.writeReport(W);
  auto V = parseJson(W.str());
  ASSERT_TRUE(V.has_value()) << W.str();
  const JsonValue *H = V->find("histograms")->find("h");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->numberOr("p50", -1), T.histograms().at("h").p50());
  EXPECT_EQ(H->numberOr("p90", -1), T.histograms().at("h").p90());
  EXPECT_EQ(H->numberOr("p99", -1), T.histograms().at("h").p99());
}

//===----------------------------------------------------------------------===//
// Trace tracks (per-worker timelines)
//===----------------------------------------------------------------------===//

TEST(Telemetry, TraceJsonEmitsPerTrackThreads) {
  // A worker journal tagged with a track replays its spans onto a
  // distinct tid (track + 1) with a thread_name metadata record, so the
  // trace viewer shows real per-worker timelines.
  obs::Telemetry Main;
  Journal Worker(2);
  Worker.install();
  { obs::ScopedPhase P("task.on.worker"); }
  Worker.uninstall();
  Main.install();
  { obs::ScopedPhase P("task.on.main"); }
  Main.uninstall();
  Worker.replayInto(Main);

  auto V = parseJson(Main.traceJson());
  ASSERT_TRUE(V.has_value()) << Main.traceJson();
  const JsonValue *Events = V->find("traceEvents");
  ASSERT_NE(Events, nullptr);

  std::map<double, std::string> ThreadNames; // tid -> name
  std::map<std::string, double> SpanTids;    // span name -> tid
  for (const JsonValue &E : Events->Items) {
    const std::string &Ph = E.find("ph")->StringVal;
    if (Ph == "M" && E.find("name")->StringVal == "thread_name")
      ThreadNames[E.numberOr("tid", -1)] =
          E.find("args")->find("name")->StringVal;
    else if (Ph == "X")
      SpanTids[E.find("name")->StringVal] = E.numberOr("tid", -1);
  }
  // Main's span sits on tid 1 ("main"), the worker's on tid 3.
  EXPECT_EQ(SpanTids.at("task.on.main"), 1.0);
  EXPECT_EQ(SpanTids.at("task.on.worker"), 3.0);
  EXPECT_EQ(ThreadNames.at(1.0), "main");
  EXPECT_EQ(ThreadNames.at(3.0), "worker-2");
}

TEST(Telemetry, MergePreservesEventTracksAndNames) {
  obs::Telemetry Dst;
  Journal Src(5);
  Src.install();
  { obs::ScopedPhase P("remote", "detail"); }
  Src.uninstall();

  Dst.install();
  Src.replayInto(Dst);
  Dst.uninstall();

  bool Found = false;
  for (const obs::TraceEvent &E : Dst.events())
    if (E.Name == "remote") {
      Found = true;
      EXPECT_EQ(E.Track, 5u);
      EXPECT_EQ(E.Detail, "detail");
    }
  EXPECT_TRUE(Found);
  // A track's label follows from its number, so it survives the replay.
  EXPECT_NE(Dst.traceJson().find("\"worker-5\""), std::string::npos);
  // The destination itself still records on the main track.
  EXPECT_EQ(Dst.track(), 0u);
}

TEST(Telemetry, SerialEventsStayOnSingleTrack) {
  obs::Telemetry T;
  T.install();
  { obs::ScopedPhase A("one"); }
  { obs::ScopedPhase B("two"); }
  T.uninstall();
  for (const obs::TraceEvent &E : T.events())
    EXPECT_EQ(E.Track, 0u);
}

TEST(Telemetry, SpansOffKeepsPhasesAndCountersButNoEvents) {
  obs::Telemetry Tele;
  Tele.setKeepSpans(false);
  Tele.install();
  {
    obs::ScopedPhase Outer("outer", "a detail longer than fifteen bytes");
    obs::ScopedPhase Inner("inner");
    obs::counterAdd("c");
    obs::histRecord("h", 3.0);
  }
  // A journal that kept its spans replays its phases and registry, but
  // not its spans.
  Journal Task;
  Task.install();
  { obs::ScopedPhase P("task", "a detail"); }
  obs::counterAdd("c");
  Task.uninstall();
  Task.replayInto(Tele);
  Tele.uninstall();

  EXPECT_FALSE(Tele.keepsSpans());
  EXPECT_TRUE(Tele.events().empty());
  EXPECT_EQ(Task.journalSize(), 3u);
  EXPECT_EQ(Tele.counters().at("c"), 2.0);
  EXPECT_EQ(Tele.histograms().at("h").Count, 1u);
  const obs::PhaseNode &Root = Tele.phaseTree();
  ASSERT_EQ(Root.Children.size(), 2u);
  EXPECT_EQ(Root.Children[0]->Name, "outer");
  EXPECT_EQ(Root.Children[0]->Count, 1u);
  ASSERT_EQ(Root.Children[0]->Children.size(), 1u);
  EXPECT_EQ(Root.Children[0]->Children[0]->Name, "inner");
  EXPECT_EQ(Root.Children[1]->Name, "task");
  EXPECT_EQ(Root.Children[1]->Count, 1u);
}

//===----------------------------------------------------------------------===//
// EventLog (decision-provenance flight recorder)
//===----------------------------------------------------------------------===//

TEST(EventLog, ProvenanceIdFormats) {
  EXPECT_EQ(obs::provFunction("main"), "fn:main");
  EXPECT_EQ(obs::provBlock("main", 3), "blk:main#3");
  EXPECT_EQ(obs::provCallSite(17), "cs:17");
  EXPECT_EQ(obs::provProgram("wc"), "prog:wc");
}

TEST(EventLog, NothingRecordedWithoutInstall) {
  obs::EventLog L;
  EXPECT_FALSE(obs::eventLogActive());
  obs::logEvent("dropped", obs::provFunction("f"));
  EXPECT_TRUE(L.events().empty());
}

TEST(EventLog, InstallsStackAndCollect) {
  obs::EventLog Outer, Inner;
  Outer.install();
  obs::logEvent("k.outer", obs::provFunction("a"));
  Inner.install();
  EXPECT_EQ(obs::EventLog::active(), &Inner);
  obs::logEvent("k.inner", obs::provFunction("b"));
  Inner.uninstall();
  obs::logEvent("k.outer2", obs::provFunction("c"));
  Outer.uninstall();
  EXPECT_FALSE(obs::eventLogActive());

  ASSERT_EQ(Outer.events().size(), 2u);
  EXPECT_EQ(Outer.events()[0].Kind, "k.outer");
  EXPECT_EQ(Outer.events()[1].Kind, "k.outer2");
  ASSERT_EQ(Inner.events().size(), 1u);
  EXPECT_EQ(Inner.events()[0].Prov, "fn:b");
}

TEST(EventLog, MergeAppendsInCallOrder) {
  obs::EventLog Dst, T1, T2;
  T1.install();
  obs::logEvent("first", obs::provFunction("x"));
  T1.uninstall();
  T2.install();
  obs::logEvent("second", obs::provFunction("y"));
  T2.uninstall();
  Dst.install();
  obs::logEvent("zeroth", obs::provFunction("z"));
  Dst.uninstall();

  // Task-order appends define the deterministic stream order.
  Dst.takeFrom(T1, 0, 1);
  Dst.takeFrom(T2, 0, 1);
  ASSERT_EQ(Dst.events().size(), 3u);
  EXPECT_EQ(Dst.events()[0].Kind, "zeroth");
  EXPECT_EQ(Dst.events()[1].Kind, "first");
  EXPECT_EQ(Dst.events()[2].Kind, "second");
  // A source keeps its length, so the ranges of its other tasks stay
  // where they were.
  EXPECT_EQ(T1.events().size(), 1u);

  // Ranges of one worker's log can be taken in any order.
  obs::EventLog Worker, Caller;
  Worker.install();
  obs::logEvent("task.1", obs::provFunction("b"));
  obs::logEvent("task.0", obs::provFunction("a"));
  Worker.uninstall();
  Caller.takeFrom(Worker, 1, 2);
  Caller.takeFrom(Worker, 0, 1);
  ASSERT_EQ(Caller.events().size(), 2u);
  EXPECT_EQ(Caller.events()[0].Kind, "task.0");
  EXPECT_EQ(Caller.events()[1].Kind, "task.1");
}

TEST(EventLog, JsonlHeaderAndRecordsParse) {
  obs::EventLog L;
  L.install();
  obs::logEvent("inline.site.selected", obs::provCallSite(4),
                {obs::attr("caller", "main"), obs::attr("weight", 12.5)});
  obs::logEvent("layout.cold.boundary", obs::provBlock("f", 7));
  L.uninstall();

  std::string Doc = L.jsonl();
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Doc.size()) {
    size_t Nl = Doc.find('\n', Pos);
    ASSERT_NE(Nl, std::string::npos) << "unterminated line";
    Lines.push_back(Doc.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  ASSERT_EQ(Lines.size(), 3u);

  // Header line: schema + event count.
  auto Header = parseJson(Lines[0]);
  ASSERT_TRUE(Header.has_value()) << Lines[0];
  EXPECT_EQ(Header->find("schema")->StringVal, "sest-events/1");
  EXPECT_EQ(Header->numberOr("events", -1), 2.0);

  auto E0 = parseJson(Lines[1]);
  ASSERT_TRUE(E0.has_value()) << Lines[1];
  EXPECT_EQ(E0->find("kind")->StringVal, "inline.site.selected");
  EXPECT_EQ(E0->find("prov")->StringVal, "cs:4");
  EXPECT_EQ(E0->find("attrs")->find("caller")->StringVal, "main");
  EXPECT_EQ(E0->find("attrs")->numberOr("weight", -1), 12.5);

  // No wall-clock fields anywhere — that is the determinism contract.
  EXPECT_EQ(Doc.find("\"ts\":"), std::string::npos);
  EXPECT_EQ(Doc.find("\"dur\":"), std::string::npos);
  EXPECT_EQ(Doc.find("_us\":"), std::string::npos);
  EXPECT_EQ(Doc.find("_ms\":"), std::string::npos);

  // Events without attributes omit the attrs object entirely.
  auto E1 = parseJson(Lines[2]);
  ASSERT_TRUE(E1.has_value()) << Lines[2];
  EXPECT_EQ(E1->find("attrs"), nullptr);
  EXPECT_EQ(E1->find("prov")->StringVal, "blk:f#7");
}

TEST(EventLog, TaskCaptureRunsAndMergesPrivateContexts) {
  // Each parallel task records into its worker's journal and log, on
  // the worker's track; nothing reaches the ambient contexts until the
  // caller replays the tasks, in task order.
  obs::Telemetry Tele;
  obs::EventLog Log;
  Tele.install();
  Log.install();
  std::latch BothStarted(2); // so each of the two workers runs one task
  obs::parallelFor(2, 2, [&](size_t I) {
    BothStarted.arrive_and_wait();
    EXPECT_NE(obs::Telemetry::active(), &Tele);
    EXPECT_NE(obs::EventLog::active(), &Log);
    obs::ScopedPhase P(I == 0 ? "task.a" : "task.b");
    obs::counterAdd("task.count");
    obs::logEvent(I == 0 ? "decision.a" : "decision.b",
                  obs::provFunction(I == 0 ? "fa" : "fb"));
    EXPECT_TRUE(Log.events().empty());
    EXPECT_EQ(Tele.counters().count("task.count"), 0u);
  });
  Log.uninstall();
  Tele.uninstall();

  EXPECT_EQ(Tele.counters().at("task.count"), 2.0);
  ASSERT_EQ(Log.events().size(), 2u);
  EXPECT_EQ(Log.events()[0].Kind, "decision.a");
  EXPECT_EQ(Log.events()[1].Kind, "decision.b");
  // Task spans landed on their workers' tracks, which the trace names.
  std::map<std::string, uint32_t> Tracks;
  for (const obs::TraceEvent &E : Tele.events())
    Tracks[E.Name] = E.Track;
  ASSERT_EQ(Tracks.size(), 2u);
  EXPECT_EQ((std::set<uint32_t>{Tracks.at("task.a"), Tracks.at("task.b")}),
            (std::set<uint32_t>{1, 2}));
  const std::string Trace = Tele.traceJson();
  EXPECT_NE(Trace.find("\"worker-1\""), std::string::npos);
  EXPECT_NE(Trace.find("\"worker-2\""), std::string::npos);
}

TEST(EventLog, TaskCaptureKeepsNothingForTasksThatRecordNothing) {
  // Quiet tasks append nothing to their worker's journal and log, so
  // nothing of theirs is replayed; busy tasks follow the ambient span
  // setting.
  obs::Telemetry Tele;
  obs::EventLog Log;
  Tele.setKeepSpans(false);
  Tele.install();
  Log.install();
  obs::parallelFor(2, 4, [](size_t I) {
    if (I % 2 == 0)
      return;
    obs::ScopedPhase P("task", "a detail the spans-off journal drops");
    obs::logEvent("decision", obs::provFunction("f"));
  });
  Log.uninstall();
  Tele.uninstall();
  EXPECT_TRUE(Tele.events().empty());
  EXPECT_TRUE(Tele.counters().empty());
  ASSERT_EQ(Tele.phaseTree().Children.size(), 1u);
  EXPECT_EQ(Tele.phaseTree().Children[0]->Count, 2u);
  EXPECT_EQ(Log.events().size(), 2u);

  // A journal that keeps no spans keeps no phase details either.
  Journal J;
  J.setKeepSpans(false);
  J.install();
  { obs::ScopedPhase P("task", "dropped"); }
  J.uninstall();
  obs::Telemetry Spans;
  J.replayInto(Spans);
  ASSERT_EQ(Spans.events().size(), 1u);
  EXPECT_EQ(Spans.events()[0].Detail, "");
}

TEST(EventLog, TaskCaptureSkipsContextsWhenNothingAmbient) {
  // With no ambient telemetry or log, tasks run bare: no journal or
  // worker log is installed, so parallelism stays observation-free.
  std::vector<int> Bare(6, 0);
  obs::parallelFor(3, Bare.size(), [&](size_t I) {
    Bare[I] = !obs::telemetryActive() && !obs::eventLogActive();
  });
  EXPECT_EQ(Bare, std::vector<int>(6, 1));
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(Parallel, WorkerCountFollowsJobsAndTaskCount) {
  EXPECT_EQ(obs::parallelWorkers(1, 100), 1u);
  EXPECT_EQ(obs::parallelWorkers(3, 100), 3u);
  EXPECT_EQ(obs::parallelWorkers(8, 3), 3u);
  EXPECT_EQ(obs::parallelWorkers(8, 1), 1u);
  EXPECT_EQ(obs::parallelWorkers(8, 0), 1u);
  EXPECT_GE(obs::parallelWorkers(0, 100), 1u);
}

TEST(Parallel, ResultsAndObservationsMergeInIndexOrder) {
  constexpr size_t N = 8;
  // Task 0 records 1.0 and every other task two samples of 2^-53. Added
  // one at a time, as a serial run adds them, each 2^-53 rounds away;
  // a task's two samples added up first would not.
  const double Tiny = std::ldexp(1.0, -53);
  std::vector<double> TinyHistSums, TinyCounters;
  for (unsigned Jobs : {1u, 3u, 0u}) {
    obs::Telemetry Tele;
    obs::EventLog Log;
    Tele.install();
    Log.install();
    std::vector<size_t> Squares(N, 0);
    obs::parallelFor(Jobs, N, [&](size_t I) {
      obs::ScopedPhase P("task." + std::to_string(I));
      obs::counterAdd("task.count");
      obs::counterAdd("task.index_sum", static_cast<double>(I));
      obs::logEvent("task.done", "task:" + std::to_string(I));
      for (int K = 0; K < (I == 0 ? 1 : 2); ++K) {
        obs::histRecord("task.tiny", I == 0 ? 1.0 : Tiny);
        obs::counterAdd("task.tiny_sum", I == 0 ? 1.0 : Tiny);
      }
      Squares[I] = I * I;
    });
    Log.uninstall();
    Tele.uninstall();
    TinyHistSums.push_back(Tele.histograms().at("task.tiny").Sum);
    TinyCounters.push_back(Tele.counters().at("task.tiny_sum"));

    EXPECT_EQ(Tele.counters().at("task.count"), 8.0) << "jobs " << Jobs;
    EXPECT_EQ(Tele.counters().at("task.index_sum"), 28.0) << "jobs " << Jobs;
    const auto &Phases = Tele.phaseTree().Children;
    ASSERT_EQ(Phases.size(), N) << "jobs " << Jobs;
    ASSERT_EQ(Log.events().size(), N) << "jobs " << Jobs;
    for (size_t I = 0; I < N; ++I) {
      const std::string Id = std::to_string(I);
      EXPECT_EQ(Squares[I], I * I) << "jobs " << Jobs;
      EXPECT_EQ(Phases[I]->Name, "task." + Id) << "jobs " << Jobs;
      EXPECT_EQ(Log.events()[I].Prov, "task:" + Id) << "jobs " << Jobs;
    }
  }
  // Bit for bit what the serial run (Jobs 1) added up.
  EXPECT_EQ(TinyHistSums[0], 1.0);
  EXPECT_EQ(TinyCounters[0], 1.0);
  for (size_t J = 1; J < TinyHistSums.size(); ++J) {
    EXPECT_EQ(TinyHistSums[J], TinyHistSums[0]) << "run " << J;
    EXPECT_EQ(TinyCounters[J], TinyCounters[0]) << "run " << J;
  }
}

TEST(Parallel, FoldRunsOnCallerInIndexOrderAndCanDropTasks) {
  // The suite runner's failure rule in miniature: once the fold of task
  // 2 stops the run, later tasks count for nothing at every job count.
  // Folds run after every task on the parallel path, so the tasks read
  // Stopped without a race.
  for (unsigned Jobs : {1u, 3u}) {
    obs::EventLog Log;
    Log.install();
    bool Stopped = false;
    std::vector<size_t> Folded;
    const std::thread::id Caller = std::this_thread::get_id();
    obs::parallelFor(
        Jobs, 6,
        [&](size_t I) {
          if (!Stopped)
            obs::logEvent("task.done", "task:" + std::to_string(I));
        },
        [&](size_t I) {
          EXPECT_EQ(std::this_thread::get_id(), Caller);
          Folded.push_back(I);
          const bool Keep = !Stopped;
          Stopped = Stopped || I == 2;
          return Keep;
        });
    Log.uninstall();

    EXPECT_EQ(Folded, (std::vector<size_t>{0, 1, 2, 3, 4, 5}))
        << "jobs " << Jobs;
    ASSERT_EQ(Log.events().size(), 3u) << "jobs " << Jobs;
    for (size_t I = 0; I < 3; ++I)
      EXPECT_EQ(Log.events()[I].Prov, "task:" + std::to_string(I));
  }
}

TEST(Parallel, NestedCallRunsInlineOnItsWorkersTrack) {
  obs::Telemetry Tele;
  Tele.install();
  std::thread::id Outer[2], Inner[2][4];
  unsigned InnerWorkers[2] = {0, 0};
  obs::parallelFor(2, 2, [&](size_t I) {
    obs::ScopedPhase P("outer");
    Outer[I] = std::this_thread::get_id();
    InnerWorkers[I] = obs::parallelWorkers(0, 4);
    obs::parallelFor(0, 4, [&](size_t J) {
      obs::ScopedPhase Q("inner");
      Inner[I][J] = std::this_thread::get_id();
    });
  });
  Tele.uninstall();

  for (size_t I = 0; I < 2; ++I) {
    EXPECT_NE(Outer[I], std::this_thread::get_id());
    EXPECT_EQ(InnerWorkers[I], 1u);
    for (size_t J = 0; J < 4; ++J)
      EXPECT_EQ(Inner[I][J], Outer[I]);
  }
  // Each task's context merges whole, in task order: its four inner
  // spans, then its outer span, all on the one worker track.
  const std::vector<obs::TraceEvent> &Events = Tele.events();
  ASSERT_EQ(Events.size(), 10u);
  for (size_t Task = 0; Task < 2; ++Task) {
    const obs::TraceEvent &OuterSpan = Events[Task * 5 + 4];
    EXPECT_EQ(OuterSpan.Name, "outer");
    EXPECT_NE(OuterSpan.Track, 0u);
    for (size_t J = 0; J < 4; ++J) {
      EXPECT_EQ(Events[Task * 5 + J].Name, "inner");
      EXPECT_EQ(Events[Task * 5 + J].Track, OuterSpan.Track);
    }
  }
}

TEST(Parallel, EachWorkerRecordsIntoOneJournalAcrossCalls) {
  // Every task a worker runs records into that worker's one journal and
  // one log, in every call; the caller's contexts only see replays.
  obs::Telemetry Tele;
  obs::EventLog Log;
  Tele.install();
  Log.install();
  std::mutex M;
  std::map<std::thread::id, std::set<const void *>> Recorders;
  for (int Call = 0; Call < 3; ++Call)
    obs::parallelFor(2, 16, [&](size_t) {
      obs::counterAdd("task.count");
      std::lock_guard<std::mutex> L(M);
      auto &Mine = Recorders[std::this_thread::get_id()];
      Mine.insert(obs::Telemetry::active());
      Mine.insert(obs::EventLog::active());
    });
  Log.uninstall();
  Tele.uninstall();
  EXPECT_EQ(Tele.counters().at("task.count"), 48.0);
  std::set<const void *> All;
  for (const auto &[Thread, Mine] : Recorders) {
    EXPECT_NE(Thread, std::this_thread::get_id());
    EXPECT_EQ(Mine.size(), 2u);
    All.insert(Mine.begin(), Mine.end());
  }
  EXPECT_EQ(All.size(), 2 * Recorders.size());
  EXPECT_EQ(All.count(&Tele), 0u);
  EXPECT_EQ(All.count(&Log), 0u);
}

TEST(Parallel, TaskExceptionReachesCaller) {
  for (unsigned Jobs : {1u, 3u})
    EXPECT_THROW(obs::parallelFor(Jobs, 6,
                                  [](size_t I) {
                                    if (I == 4)
                                      throw std::runtime_error("task 4");
                                  }),
                 std::runtime_error)
        << "jobs " << Jobs;
}

/// Runs one parallelFor at Jobs 2 over two tasks that wait for each
/// other, so each of the two workers runs one; returns their threads.
std::set<std::thread::id> twoWorkerThreads() {
  std::latch BothStarted(2);
  std::thread::id Ids[2];
  obs::parallelFor(2, 2, [&](size_t I) {
    Ids[I] = std::this_thread::get_id();
    BothStarted.arrive_and_wait();
  });
  return {Ids[0], Ids[1]};
}

TEST(Parallel, ConsecutiveCallsRunOnTheSameWorkers) {
  const std::set<std::thread::id> First = twoWorkerThreads();
  const size_t Started = obs::parallelPoolSize();
  const std::set<std::thread::id> Second = twoWorkerThreads();
  EXPECT_EQ(First.size(), 2u);
  EXPECT_EQ(First.count(std::this_thread::get_id()), 0u);
  EXPECT_EQ(Second, First);
  // Each worker thread is started once per process: repeating a call
  // starts none, and a larger call adds only the missing ones.
  EXPECT_GE(Started, 2u);
  EXPECT_EQ(obs::parallelPoolSize(), Started);
  const unsigned More = static_cast<unsigned>(Started) + 1;
  obs::parallelFor(More, More, [](size_t) {});
  EXPECT_EQ(obs::parallelPoolSize(), Started + 1);
  obs::parallelFor(More, More, [](size_t) {});
  EXPECT_EQ(obs::parallelPoolSize(), Started + 1);
}

TEST(Parallel, PoolServesTheNextCallAfterATaskThrows) {
  EXPECT_THROW(obs::parallelFor(3, 6,
                                [](size_t I) {
                                  if (I == 1)
                                    throw std::runtime_error("task 1");
                                }),
               std::runtime_error);
  obs::Telemetry Tele;
  Tele.install();
  std::vector<int> Ran(32, 0);
  obs::parallelFor(3, Ran.size(), [&](size_t I) {
    obs::counterAdd("task.count");
    ++Ran[I];
  });
  Tele.uninstall();
  EXPECT_EQ(Ran, std::vector<int>(32, 1));
  EXPECT_EQ(Tele.counters().at("task.count"), 32.0);
}

TEST(Parallel, ConcurrentCallersGetIndexOrderedResults) {
  // Two threads that are not workers call at once: whichever finds the
  // workers held runs serially, and both see a serial run's results.
  constexpr size_t N = 64;
  std::atomic<bool> Go{false};
  auto Caller = [&](std::vector<std::string> &Events,
                    std::vector<size_t> &Squares) {
    obs::EventLog Log;
    Log.install();
    while (!Go.load())
      std::this_thread::yield();
    for (int Round = 0; Round < 20; ++Round)
      obs::parallelFor(2, N, [&](size_t I) {
        obs::logEvent("task.done", "task:" + std::to_string(I));
        Squares[I] = I * I;
      });
    Log.uninstall();
    for (const obs::Event &E : Log.events())
      Events.push_back(E.Prov);
  };
  std::vector<std::string> EventsA, EventsB;
  std::vector<size_t> SquaresA(N), SquaresB(N);
  std::thread A(Caller, std::ref(EventsA), std::ref(SquaresA));
  std::thread B(Caller, std::ref(EventsB), std::ref(SquaresB));
  Go.store(true);
  A.join();
  B.join();

  std::vector<std::string> Expected;
  for (int Round = 0; Round < 20; ++Round)
    for (size_t I = 0; I < N; ++I)
      Expected.push_back("task:" + std::to_string(I));
  EXPECT_EQ(EventsA, Expected);
  EXPECT_EQ(EventsB, Expected);
  for (size_t I = 0; I < N; ++I) {
    EXPECT_EQ(SquaresA[I], I * I);
    EXPECT_EQ(SquaresB[I], I * I);
  }
}

} // namespace
