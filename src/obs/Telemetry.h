//===- obs/Telemetry.h - Phase tracing and counter registry -----*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability substrate for the whole pipeline: scoped phase
/// timers that emit Chrome trace-event JSON (loadable in chrome://tracing
/// or https://ui.perfetto.dev) plus a hierarchical phase-time summary,
/// and a registry of named monotonic counters, high-water gauges, and
/// simple histograms.
///
/// Design goals, in order:
///
///  1. *Zero cost when off.* Nothing is collected unless a Telemetry
///     context is installed on the current thread. Every recording entry
///     point is an inline function whose disabled path is a single
///     thread-local pointer test; compiling with -DSEST_OBS_DISABLED
///     removes even that (the bodies become empty). Hot loops (the
///     interpreter) never call per-event — they accumulate locally and
///     flush totals once per run.
///
///  2. *Ambient, not threaded through.* The pipeline spans many layers
///     (frontend, CFG, call graph, estimators, interpreter, suite); the
///     context is an ambient per-thread pointer installed RAII-style so
///     no signature changes ripple through the stack.
///
///  3. *Uniform naming.* Counter names follow `layer.entity.metric`
///     (e.g. "cfg.blocks.built", "interp.heap_cells.high_water"); phase
///     names follow `layer.action` and nest lexically. See
///     docs/OBSERVABILITY.md for the full vocabulary.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_TELEMETRY_H
#define OBS_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sest {
class JsonWriter;
}

namespace sest::obs {

class Telemetry;

namespace detail {
/// The context installed on this thread; null when telemetry is off.
/// constinit tells other translation units that no dynamic initializer
/// runs, so they read the slot directly instead of calling the TLS
/// wrapper function (which UBSan reports as a null load under gcc).
extern thread_local constinit Telemetry *Active;
} // namespace detail

/// Aggregated statistics of one histogram.
///
/// Alongside count/sum/min/max the histogram keeps a sparse log-scale
/// bucket map (8 sub-buckets per octave, exact bucketing via frexp) so
/// percentiles can be estimated without retaining samples. Bucketing is
/// fully deterministic, so percentile estimates depend only on the
/// samples, not on which worker recorded them.
struct HistogramStats {
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  /// Sample counts per log-scale bucket; key INT32_MIN collects
  /// non-positive (and non-finite) samples.
  std::map<int32_t, uint64_t> Buckets;

  double mean() const {
    return Count ? Sum / static_cast<double>(Count) : 0.0;
  }

  /// Estimated value at quantile \p Q in (0, 1]: the midpoint of the
  /// bucket holding the ceil(Q*Count)-th smallest sample, clamped to
  /// [Min, Max] so the extremes stay exact.
  double percentile(double Q) const;
  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p99() const { return percentile(0.99); }

  /// The bucket index of \p Sample (INT32_MIN for Sample <= 0).
  static int32_t bucketIndex(double Sample);
};

/// One completed trace span.
struct TraceEvent {
  std::string Name;   ///< Phase name ("estimate.intra").
  std::string Detail; ///< Optional argument (e.g. function name).
  uint64_t StartUs = 0;
  uint64_t DurUs = 0;
  unsigned Depth = 0;  ///< Nesting depth at begin (0 = top level).
  uint32_t Track = 0;  ///< Timeline track (0 = main; workers are 1-based).
};

/// One node of the hierarchical phase-time summary.
struct PhaseNode {
  std::string Name;
  uint64_t Count = 0;
  uint64_t TotalUs = 0;
  uint64_t ChildUs = 0;
  std::vector<std::unique_ptr<PhaseNode>> Children; ///< First-seen order.

  uint64_t selfUs() const {
    return TotalUs > ChildUs ? TotalUs - ChildUs : 0;
  }
};

/// A telemetry collection context. Create one, install() it, run the
/// pipeline, then render traceJson() / statsTable() / phaseSummary() or
/// feed writeReport() into a larger JSON document.
class Telemetry {
public:
  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  /// Installs this context as the thread's ambient collector. Nested
  /// installs stack: uninstall() restores the previous context.
  void install();
  void uninstall();
  bool installed() const { return Installed; }

  /// The context currently collecting on this thread (null = off).
  static Telemetry *active() { return detail::Active; }

  /// Assigns every span this context records to trace track \p Id
  /// (0 = the main track). obs::parallelFor's worker journals use their
  /// worker's 1-based track, so replayed traces keep one timeline per
  /// worker; trace viewers show track N as `worker-N`.
  void setTrack(uint32_t Id) { Track = Id; }
  uint32_t track() const { return Track; }

  /// Whether completed phases are also kept as trace spans (events()).
  /// On by default. A long-running process that renders no trace turns
  /// it off, so its memory stays flat while the phase tree, counters,
  /// gauges and histograms keep recording; replay() then drops the
  /// journal's spans too, and a journal keeps no phase details.
  void setKeepSpans(bool Keep) { KeepSpans = Keep; }
  bool keepsSpans() const { return KeepSpans; }

  //===--------------------------------------------------------------------===//
  // Recording (normally reached via the free functions below)
  //===--------------------------------------------------------------------===//

  /// Adds \p Delta to the monotonic counter \p Name.
  void add(std::string_view Name, double Delta);
  /// Raises the high-water gauge \p Name to at least \p Value.
  void raiseMax(std::string_view Name, double Value);
  /// Records one sample into the histogram \p Name.
  void record(std::string_view Name, double Sample);

  /// Opens a phase; every phase must be closed by endPhase() in LIFO
  /// order (use ScopedPhase).
  void beginPhase(std::string_view Name, std::string_view Detail = {});
  void endPhase();

  /// Journal mode (obs::parallelFor's workers): each recording call
  /// above only appends an op (kind, name, value or detail, and a
  /// phase's time) to a flat list, and a task's observations are the
  /// ops it appended. clearJournal() keeps the list's capacity.
  void setJournaling(bool On) { Journaling = On; }
  size_t journalSize() const { return Ops.size(); }
  void clearJournal();

  /// Applies ops [Begin, End) of journal \p J through the code the
  /// recording methods run, so the result is what recording them here
  /// gives: phases nest under the innermost open phase, spans keep
  /// \p J's track, and sums add one sample at a time. The range must
  /// close every phase it opens.
  void replay(const Telemetry &J, size_t Begin, size_t End);

  //===--------------------------------------------------------------------===//
  // Inspection
  //===--------------------------------------------------------------------===//

  const std::map<std::string, double, std::less<>> &counters() const {
    return Counters;
  }
  const std::map<std::string, double, std::less<>> &gauges() const {
    return Gauges;
  }
  const std::map<std::string, HistogramStats, std::less<>> &
  histograms() const {
    return Histograms;
  }
  const std::vector<TraceEvent> &events() const { return Events; }
  const PhaseNode &phaseTree() const { return Root; }
  /// Depth of currently open (unclosed) phases.
  unsigned openPhaseDepth() const { return static_cast<unsigned>(Open.size()); }

  //===--------------------------------------------------------------------===//
  // Rendering
  //===--------------------------------------------------------------------===//

  /// The Chrome trace-event document: completed phases as "X" duration
  /// events, counters/gauges as a trailing set of "C" counter events.
  std::string traceJson() const;

  /// Counters, gauges, and histograms as an aligned text table.
  std::string statsTable() const;

  /// The hierarchical phase-time table (indentation shows nesting).
  std::string phaseSummary() const;

  /// Writes the machine-readable report object {phases, counters,
  /// gauges, histograms} into \p W (as one JSON object value).
  void writeReport(JsonWriter &W) const;

private:
  using Clock = std::chrono::steady_clock;

  /// Microseconds from this context's epoch to \p T (0 if before it).
  uint64_t usSince(Clock::time_point T) const;
  void openPhase(std::string_view Name, std::string_view Detail,
                 uint64_t StartUs);
  void closePhase(uint64_t EndUs, uint32_t SpanTrack);

  struct OpenPhase {
    PhaseNode *Node;
    std::string Detail;
    uint64_t StartUs;
  };

  /// One recording call in journal mode. Name and detail are stored
  /// back to back in OpText, from TextOff.
  struct JournalOp {
    enum KindT : uint8_t { Add, Max, Record, Begin, End } Kind;
    size_t NameLen, DetailLen, TextOff;
    double Value;         ///< Add, Max and Record.
    Clock::time_point At; ///< Begin and End.
  };
  void journal(JournalOp::KindT Kind, std::string_view Name, double Value,
               Clock::time_point At = {}, std::string_view Detail = {});

  Clock::time_point Epoch;
  uint32_t Track = 0;
  std::map<std::string, double, std::less<>> Counters;
  std::map<std::string, double, std::less<>> Gauges;
  std::map<std::string, HistogramStats, std::less<>> Histograms;
  std::vector<TraceEvent> Events;
  PhaseNode Root;
  std::vector<OpenPhase> Open;
  std::vector<JournalOp> Ops;
  std::string OpText;
  Telemetry *Previous = nullptr;
  bool Installed = false;
  bool KeepSpans = true;
  bool Journaling = false;
};

//===----------------------------------------------------------------------===//
// Free recording functions — the only API most instrumentation sites use.
// With no context installed these cost one thread-local load and branch;
// with SEST_OBS_DISABLED they compile to nothing.
//===----------------------------------------------------------------------===//

inline void counterAdd(std::string_view Name, double Delta = 1.0) {
#ifndef SEST_OBS_DISABLED
  if (Telemetry *T = detail::Active)
    T->add(Name, Delta);
#else
  (void)Name;
  (void)Delta;
#endif
}

inline void gaugeMax(std::string_view Name, double Value) {
#ifndef SEST_OBS_DISABLED
  if (Telemetry *T = detail::Active)
    T->raiseMax(Name, Value);
#else
  (void)Name;
  (void)Value;
#endif
}

inline void histRecord(std::string_view Name, double Sample) {
#ifndef SEST_OBS_DISABLED
  if (Telemetry *T = detail::Active)
    T->record(Name, Sample);
#else
  (void)Name;
  (void)Sample;
#endif
}

/// True when some context is collecting on this thread — use to guard
/// instrumentation whose *setup* is costly (e.g. a per-function loop).
inline bool telemetryActive() {
#ifndef SEST_OBS_DISABLED
  return detail::Active != nullptr;
#else
  return false;
#endif
}

/// RAII phase span. Captures the active context at construction, so it
/// stays balanced even if the context is uninstalled within the scope.
class ScopedPhase {
public:
  explicit ScopedPhase(std::string_view Name,
                       std::string_view Detail = {}) {
#ifndef SEST_OBS_DISABLED
    T = detail::Active;
    if (T)
      T->beginPhase(Name, Detail);
#else
    (void)Name;
    (void)Detail;
#endif
  }
  ~ScopedPhase() {
    if (T)
      T->endPhase();
  }
  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;

private:
  Telemetry *T = nullptr;
};

} // namespace sest::obs

#endif // OBS_TELEMETRY_H
