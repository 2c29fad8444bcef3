//===- obs/Telemetry.cpp - Phase tracing and counter registry --------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

using namespace sest;
using namespace sest::obs;

thread_local constinit Telemetry *sest::obs::detail::Active = nullptr;

//===----------------------------------------------------------------------===//
// HistogramStats percentile buckets
//===----------------------------------------------------------------------===//

// 8 sub-buckets per power-of-two octave: relative bucket width ~9%, so
// percentile estimates sit within ~4.5% of the true sample value while
// the map stays tiny (a few dozen entries for microsecond latencies).
static constexpr int SubBucketsPerOctave = 8;

int32_t HistogramStats::bucketIndex(double Sample) {
  if (!(Sample > 0.0) || !std::isfinite(Sample))
    return INT32_MIN;
  int Exp = 0;
  double M = std::frexp(Sample, &Exp); // Sample = M * 2^Exp, M in [0.5, 1)
  // (M - 0.5) * 16 maps [0.5, 1) exactly onto [0, 8) — the subtraction is
  // exact (Sterbenz) and the scale is a power of two, so bucketing is
  // bit-deterministic across platforms.
  int Sub = static_cast<int>((M - 0.5) * (2 * SubBucketsPerOctave));
  return static_cast<int32_t>(Exp) * SubBucketsPerOctave + Sub;
}

double HistogramStats::percentile(double Q) const {
  if (Count == 0)
    return 0.0;
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Count)));
  Rank = std::max<uint64_t>(1, std::min(Rank, Count));
  uint64_t Seen = 0;
  for (const auto &[Index, N] : Buckets) {
    Seen += N;
    if (Seen < Rank)
      continue;
    if (Index == INT32_MIN)
      return Min;
    // Reconstruct the bucket bounds and answer with the midpoint.
    int32_t Exp = Index >= 0 ? Index / SubBucketsPerOctave
                             : -((-Index + SubBucketsPerOctave - 1) /
                                 SubBucketsPerOctave);
    int32_t Sub = Index - Exp * SubBucketsPerOctave;
    double Lo = std::ldexp(0.5 + static_cast<double>(Sub) /
                                     (2 * SubBucketsPerOctave),
                           Exp);
    double Hi = std::ldexp(0.5 + static_cast<double>(Sub + 1) /
                                     (2 * SubBucketsPerOctave),
                           Exp);
    return std::min(std::max((Lo + Hi) / 2.0, Min), Max);
  }
  // Bucket totals always cover Count; reachable only on a foreign
  // (hand-built) stats object with no buckets.
  return Max;
}

Telemetry::Telemetry() : Epoch(std::chrono::steady_clock::now()) {
  Root.Name = "<root>";
}

Telemetry::~Telemetry() {
  if (Installed)
    uninstall();
}

void Telemetry::install() {
  assert(!Installed && "telemetry context installed twice");
  Previous = detail::Active;
  detail::Active = this;
  Installed = true;
}

void Telemetry::uninstall() {
  assert(Installed && "uninstall() without install()");
  // Only pop ourselves if we are still the top of the ambient stack.
  if (detail::Active == this)
    detail::Active = Previous;
  Installed = false;
}

uint64_t Telemetry::usSince(Clock::time_point T) const {
  int64_t Us =
      std::chrono::duration_cast<std::chrono::microseconds>(T - Epoch)
          .count();
  return Us > 0 ? static_cast<uint64_t>(Us) : 0;
}

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

void Telemetry::add(std::string_view Name, double Delta) {
  if (Journaling)
    return journal(JournalOp::Add, Name, Delta);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    Counters.emplace(std::string(Name), Delta);
  else
    It->second += Delta;
}

void Telemetry::raiseMax(std::string_view Name, double Value) {
  if (Journaling)
    return journal(JournalOp::Max, Name, Value);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    Gauges.emplace(std::string(Name), Value);
  else if (Value > It->second)
    It->second = Value;
}

void Telemetry::record(std::string_view Name, double Sample) {
  if (Journaling)
    return journal(JournalOp::Record, Name, Sample);
  auto It = Histograms.find(Name);
  if (It == Histograms.end()) {
    HistogramStats H;
    H.Count = 1;
    H.Sum = H.Min = H.Max = Sample;
    H.Buckets[HistogramStats::bucketIndex(Sample)] = 1;
    Histograms.emplace(std::string(Name), std::move(H));
    return;
  }
  HistogramStats &H = It->second;
  ++H.Count;
  H.Sum += Sample;
  H.Min = std::min(H.Min, Sample);
  H.Max = std::max(H.Max, Sample);
  ++H.Buckets[HistogramStats::bucketIndex(Sample)];
}

void Telemetry::beginPhase(std::string_view Name, std::string_view Detail) {
  const Clock::time_point Now = Clock::now();
  if (Journaling)
    return journal(JournalOp::Begin, Name, 0.0, Now,
                   KeepSpans ? Detail : std::string_view());
  openPhase(Name, Detail, usSince(Now));
}

void Telemetry::endPhase() {
  const Clock::time_point Now = Clock::now();
  if (Journaling)
    return journal(JournalOp::End, {}, 0.0, Now);
  closePhase(usSince(Now), Track);
}

void Telemetry::openPhase(std::string_view Name, std::string_view Detail,
                          uint64_t StartUs) {
  PhaseNode *Parent = Open.empty() ? &Root : Open.back().Node;
  PhaseNode *Node = nullptr;
  for (const auto &C : Parent->Children)
    if (C->Name == Name) {
      Node = C.get();
      break;
    }
  if (!Node) {
    Parent->Children.push_back(std::make_unique<PhaseNode>());
    Node = Parent->Children.back().get();
    Node->Name = std::string(Name);
  }
  // The detail only labels the span.
  Open.push_back(
      {Node, KeepSpans ? std::string(Detail) : std::string(), StartUs});
}

void Telemetry::closePhase(uint64_t EndUs, uint32_t SpanTrack) {
  assert(!Open.empty() && "endPhase() without beginPhase()");
  if (Open.empty())
    return;
  OpenPhase P = std::move(Open.back());
  Open.pop_back();
  uint64_t Dur = EndUs - P.StartUs;
  P.Node->Count += 1;
  P.Node->TotalUs += Dur;
  if (!Open.empty())
    Open.back().Node->ChildUs += Dur;
  else
    Root.ChildUs += Dur;
  if (!KeepSpans)
    return;

  TraceEvent E;
  E.Name = P.Node->Name;
  E.Detail = std::move(P.Detail);
  E.StartUs = P.StartUs;
  E.DurUs = Dur;
  E.Depth = static_cast<unsigned>(Open.size());
  E.Track = SpanTrack;
  Events.push_back(std::move(E));
}

void Telemetry::journal(JournalOp::KindT Kind, std::string_view Name,
                        double Value, Clock::time_point At,
                        std::string_view Detail) {
  Ops.push_back({Kind, Name.size(), Detail.size(), OpText.size(), Value, At});
  OpText.append(Name).append(Detail);
}

void Telemetry::clearJournal() {
  Ops.clear();
  OpText.clear();
}

void Telemetry::replay(const Telemetry &J, size_t Begin, size_t End) {
  assert(!Journaling && "replaying into a journal");
  for (size_t I = Begin; I < End; ++I) {
    const JournalOp &Op = J.Ops[I];
    std::string_view Name(J.OpText.data() + Op.TextOff, Op.NameLen);
    switch (Op.Kind) {
    case JournalOp::Add:
      add(Name, Op.Value);
      break;
    case JournalOp::Max:
      raiseMax(Name, Op.Value);
      break;
    case JournalOp::Record:
      record(Name, Op.Value);
      break;
    case JournalOp::Begin:
      openPhase(Name,
                std::string_view(Name.data() + Op.NameLen, Op.DetailLen),
                usSince(Op.At));
      break;
    case JournalOp::End:
      closePhase(usSince(Op.At), J.Track);
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string Telemetry::traceJson() const {
  JsonWriter W;
  W.beginObject();
  W.member("displayTimeUnit", "ms");
  W.key("traceEvents").beginArray();

  // Process metadata so trace viewers show a meaningful track name.
  W.beginObject()
      .member("name", "process_name")
      .member("ph", "M")
      .member("pid", int64_t{1})
      .key("args")
      .beginObject()
      .member("name", "sest")
      .endObject()
      .endObject();

  // One thread-name metadata event per track in use (tid = track + 1,
  // so the main track renders as tid 1). Serial runs only ever touch
  // track 0 and keep a single stable timeline.
  std::set<uint32_t> Tracks{Track};
  for (const TraceEvent &E : Events)
    Tracks.insert(E.Track);
  for (uint32_t Id : Tracks) {
    std::string Name = Id == 0 ? "main" : "worker-" + std::to_string(Id);
    W.beginObject()
        .member("name", "thread_name")
        .member("ph", "M")
        .member("pid", int64_t{1})
        .member("tid", static_cast<int64_t>(Id) + 1)
        .key("args")
        .beginObject()
        .member("name", Name)
        .endObject()
        .endObject();
  }

  for (const TraceEvent &E : Events) {
    W.beginObject()
        .member("name", E.Name)
        .member("cat", "phase")
        .member("ph", "X")
        .member("ts", static_cast<uint64_t>(E.StartUs))
        .member("dur", static_cast<uint64_t>(E.DurUs))
        .member("pid", int64_t{1})
        .member("tid", static_cast<int64_t>(E.Track) + 1);
    if (!E.Detail.empty())
      W.key("args").beginObject().member("detail", E.Detail).endObject();
    W.endObject();
  }

  // Final counter samples, so the numeric registry rides along in the
  // same file ("C" = counter event).
  uint64_t End = Events.empty() ? 0 : usSince(Clock::now());
  auto emitCounter = [&](const std::string &Name, double Value) {
    W.beginObject()
        .member("name", Name)
        .member("ph", "C")
        .member("ts", End)
        .member("pid", int64_t{1})
        .key("args")
        .beginObject()
        .member("value", Value)
        .endObject()
        .endObject();
  };
  for (const auto &[Name, Value] : Counters)
    emitCounter(Name, Value);
  for (const auto &[Name, Value] : Gauges)
    emitCounter(Name, Value);

  W.endArray();
  W.endObject();
  return W.take();
}

std::string Telemetry::statsTable() const {
  TextTable T;
  T.setHeader(
      {"Name", "Kind", "Value", "N", "Min", "Mean", "P50", "P90", "P99",
       "Max"});
  for (const auto &[Name, Value] : Counters)
    T.addRow({Name, "counter", formatDouble(Value, 0), "", "", "", "", "",
              "", ""});
  for (const auto &[Name, Value] : Gauges)
    T.addRow({Name, "gauge", formatDouble(Value, 0), "", "", "", "", "",
              "", ""});
  for (const auto &[Name, H] : Histograms)
    T.addRow({Name, "hist", formatDouble(H.Sum, 2),
              std::to_string(H.Count), formatDouble(H.Min, 3),
              formatDouble(H.mean(), 3), formatDouble(H.p50(), 3),
              formatDouble(H.p90(), 3), formatDouble(H.p99(), 3),
              formatDouble(H.Max, 3)});
  return T.str();
}

namespace {

void summarizeNode(const PhaseNode &N, unsigned Depth, uint64_t RootUs,
                   TextTable &T) {
  std::string Indent(2 * Depth, ' ');
  double TotalMs = static_cast<double>(N.TotalUs) / 1000.0;
  double SelfMs = static_cast<double>(N.selfUs()) / 1000.0;
  double Share = RootUs ? 100.0 * static_cast<double>(N.TotalUs) /
                              static_cast<double>(RootUs)
                        : 0.0;
  T.addRow({Indent + N.Name, std::to_string(N.Count),
            formatDouble(TotalMs, 3), formatDouble(SelfMs, 3),
            formatDouble(Share, 1) + "%"});
  for (const auto &C : N.Children)
    summarizeNode(*C, Depth + 1, RootUs, T);
}

void reportNode(const PhaseNode &N, JsonWriter &W) {
  W.beginObject()
      .member("name", N.Name)
      .member("count", static_cast<uint64_t>(N.Count))
      .member("total_us", static_cast<uint64_t>(N.TotalUs))
      .member("self_us", static_cast<uint64_t>(N.selfUs()));
  W.key("children").beginArray();
  for (const auto &C : N.Children)
    reportNode(*C, W);
  W.endArray();
  W.endObject();
}

} // namespace

std::string Telemetry::phaseSummary() const {
  TextTable T;
  T.setHeader({"Phase", "Count", "Total ms", "Self ms", "% root"});
  uint64_t RootUs = Root.ChildUs;
  for (const auto &C : Root.Children)
    summarizeNode(*C, 0, RootUs, T);
  return T.str();
}

void Telemetry::writeReport(JsonWriter &W) const {
  W.beginObject();

  W.key("phases").beginArray();
  for (const auto &C : Root.Children)
    reportNode(*C, W);
  W.endArray();

  W.key("counters").beginObject();
  for (const auto &[Name, Value] : Counters)
    W.member(Name, Value);
  W.endObject();

  W.key("gauges").beginObject();
  for (const auto &[Name, Value] : Gauges)
    W.member(Name, Value);
  W.endObject();

  W.key("histograms").beginObject();
  for (const auto &[Name, H] : Histograms) {
    W.key(Name).beginObject();
    W.member("count", static_cast<uint64_t>(H.Count))
        .member("sum", H.Sum)
        .member("min", H.Min)
        .member("mean", H.mean())
        .member("p50", H.p50())
        .member("p90", H.p90())
        .member("p99", H.p99())
        .member("max", H.Max);
    W.endObject();
  }
  W.endObject();

  W.endObject();
}
