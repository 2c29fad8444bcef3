//===- obs/EventLog.h - Decision-provenance event log -----------*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured decision log of the flight recorder: a flat stream of
/// `{kind, prov, attrs}` events recording *which optimizer decision was
/// made about which entity and why* — inline sites chosen or rejected
/// (with the budget reason), layout chain merges, cold-outline
/// boundaries, never-taken hints, and sparse-solver SCC repairs.
///
/// Two contracts distinguish this log from the trace:
///
///  1. *Determinism.* Events carry no wall-clock data (timestamps live
///     only in the trace), and parallel tasks' events are appended in
///     task order, so the rendered JSONL (`sest-events/1`) is
///     byte-identical across `--jobs` values and interpreter engines.
///
///  2. *Provenance.* Every event names its subject with a stable ID
///     (`fn:<name>`, `blk:<function>#<block>`, `cs:<site>`) that
///     resolves to the same entities `obs/Accuracy` scores, so a
///     decision can be joined against the accuracy report that judged
///     the estimate it was based on.
///
/// Like Telemetry, the log is an ambient per-thread context installed
/// RAII-style; recording sites pay one thread-local load when no log is
/// installed.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_EVENTLOG_H
#define OBS_EVENTLOG_H

#include "obs/Telemetry.h"

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace sest::obs {

class EventLog;

namespace detail {
/// The log installed on this thread; null when decision logging is off.
/// constinit for the same reason as detail::Active (Telemetry.h).
extern thread_local constinit EventLog *ActiveLog;
} // namespace detail

/// One key/value attribute of an event (string- or number-valued).
struct EventAttr {
  std::string Key;
  std::string Str;
  double Num = 0.0;
  bool IsNum = false;
};

inline EventAttr attr(std::string_view Key, std::string_view Value) {
  EventAttr A;
  A.Key = std::string(Key);
  A.Str = std::string(Value);
  return A;
}

inline EventAttr attr(std::string_view Key, double Value) {
  EventAttr A;
  A.Key = std::string(Key);
  A.Num = Value;
  A.IsNum = true;
  return A;
}

/// One recorded decision event.
struct Event {
  std::string Kind; ///< Taxonomy name, e.g. "inline.site.selected".
  std::string Prov; ///< Provenance ID ("fn:...", "blk:...", "cs:...").
  std::vector<EventAttr> Attrs;
};

/// A decision-log collection context. Install one, run the pipeline,
/// then render jsonl(). Nested installs stack like Telemetry contexts,
/// and the events of parallel tasks are appended to the ambient log in
/// task order (takeFrom).
class EventLog {
public:
  EventLog() = default;
  ~EventLog();
  EventLog(const EventLog &) = delete;
  EventLog &operator=(const EventLog &) = delete;

  void install();
  void uninstall();
  bool installed() const { return Installed; }

  /// The log currently collecting on this thread (null = off).
  static EventLog *active() { return detail::ActiveLog; }

  void emit(Event E) { Events_.push_back(std::move(E)); }

  /// Moves events [Begin, End) of \p From to the end of this log.
  /// obs::parallelFor takes each task's range of its worker's log, in
  /// task order, so the stream stays byte-stable across --jobs values.
  void takeFrom(EventLog &From, size_t Begin, size_t End) {
    Events_.insert(Events_.end(),
                   std::make_move_iterator(From.Events_.begin() + Begin),
                   std::make_move_iterator(From.Events_.begin() + End));
  }
  void clear() { Events_.clear(); }

  const std::vector<Event> &events() const { return Events_; }

  /// The `sest-events/1` document: a schema header line followed by one
  /// JSON object per event. Contains no wall-clock data by design.
  std::string jsonl() const;

private:
  std::vector<Event> Events_;
  EventLog *Previous = nullptr;
  bool Installed = false;
};

/// True when a log is collecting on this thread — use to guard sites
/// whose attribute setup is costly.
inline bool eventLogActive() {
#ifndef SEST_OBS_DISABLED
  return detail::ActiveLog != nullptr;
#else
  return false;
#endif
}

/// Records one event into the ambient log, if any.
inline void logEvent(std::string_view Kind, std::string Prov,
                     std::vector<EventAttr> Attrs = {}) {
#ifndef SEST_OBS_DISABLED
  if (EventLog *L = detail::ActiveLog) {
    Event E;
    E.Kind = std::string(Kind);
    E.Prov = std::move(Prov);
    E.Attrs = std::move(Attrs);
    L->emit(std::move(E));
  }
#else
  (void)Kind;
  (void)Prov;
  (void)Attrs;
#endif
}

//===----------------------------------------------------------------------===//
// Provenance IDs — must stay in sync with the entity naming used by
// obs/Accuracy (EntityDivergence Function/EntityId/Label fields).
//===----------------------------------------------------------------------===//

inline std::string provFunction(std::string_view Function) {
  return "fn:" + std::string(Function);
}

inline std::string provBlock(std::string_view Function, uint32_t Block) {
  return "blk:" + std::string(Function) + "#" + std::to_string(Block);
}

inline std::string provCallSite(uint32_t SiteId) {
  return "cs:" + std::to_string(SiteId);
}

inline std::string provProgram(std::string_view Program) {
  return "prog:" + std::string(Program);
}

/// A service request, by intake ordinal. Ordinals are assigned in
/// request order on the intake thread, so the ID is stable across
/// --jobs values and batch splits within one session.
inline std::string provRequest(uint64_t Ordinal) {
  return "req:" + std::to_string(Ordinal);
}

} // namespace sest::obs

#endif // OBS_EVENTLOG_H
