//===- obs/EventLog.cpp - Decision-provenance event log --------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"

#include "support/Json.h"

#include <cassert>

using namespace sest;
using namespace sest::obs;

thread_local constinit EventLog *sest::obs::detail::ActiveLog = nullptr;

EventLog::~EventLog() {
  if (Installed)
    uninstall();
}

void EventLog::install() {
  assert(!Installed && "event log installed twice");
  Previous = detail::ActiveLog;
  detail::ActiveLog = this;
  Installed = true;
}

void EventLog::uninstall() {
  assert(Installed && "uninstall() without install()");
  if (detail::ActiveLog == this)
    detail::ActiveLog = Previous;
  Installed = false;
}

std::string EventLog::jsonl() const {
  std::string Out;
  {
    JsonWriter W;
    W.beginObject()
        .member("schema", "sest-events/1")
        .member("events", static_cast<uint64_t>(Events_.size()))
        .endObject();
    Out += W.take();
  }
  Out += '\n';
  for (const Event &E : Events_) {
    JsonWriter W;
    W.beginObject().member("kind", E.Kind).member("prov", E.Prov);
    if (!E.Attrs.empty()) {
      W.key("attrs").beginObject();
      for (const EventAttr &A : E.Attrs) {
        if (A.IsNum)
          W.member(A.Key, A.Num);
        else
          W.member(A.Key, A.Str);
      }
      W.endObject();
    }
    W.endObject();
    Out += W.take();
    Out += '\n';
  }
  return Out;
}
