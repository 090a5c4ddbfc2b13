//===- obs/Tracer.cpp - Low-overhead event tracing --------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Tracer.h"
#include "support/Json.h"

using namespace dra;

TraceArg TraceArg::num(std::string Name, double V) {
  return {std::move(Name), jsonNumber(V)};
}

TraceArg TraceArg::num(std::string Name, uint64_t V) {
  return {std::move(Name), std::to_string(V)};
}

TraceArg TraceArg::str(std::string Name, const std::string &V) {
  return {std::move(Name), jsonQuote(V)};
}

EventTracer::EventTracer() : Epoch(std::chrono::steady_clock::now()) {}

double EventTracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void EventTracer::record(TraceEvent E) {
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(std::move(E));
}

uint64_t EventTracer::addProcess(const std::string &Name) {
  uint64_t Pid;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Pid = NextPid++;
  }
  TraceEvent E;
  E.Phase = 'M';
  E.Name = "process_name";
  E.Pid = Pid;
  E.Args.push_back(TraceArg::str("name", Name));
  record(std::move(E));
  return Pid;
}

void EventTracer::nameThread(uint64_t Pid, uint64_t Tid,
                             const std::string &Name) {
  TraceEvent E;
  E.Phase = 'M';
  E.Name = "thread_name";
  E.Pid = Pid;
  E.Tid = Tid;
  E.Args.push_back(TraceArg::str("name", Name));
  record(std::move(E));
}

void EventTracer::completeEvent(uint64_t Pid, uint64_t Tid, std::string Name,
                                std::string Category, double TsUs,
                                double DurUs, std::vector<TraceArg> Args) {
  TraceEvent E;
  E.Phase = 'X';
  E.Name = std::move(Name);
  E.Category = std::move(Category);
  E.Pid = Pid;
  E.Tid = Tid;
  E.TsUs = TsUs;
  E.DurUs = DurUs;
  E.Args = std::move(Args);
  record(std::move(E));
}

void EventTracer::instantEvent(uint64_t Pid, uint64_t Tid, std::string Name,
                               std::string Category, double TsUs,
                               std::vector<TraceArg> Args) {
  TraceEvent E;
  E.Phase = 'i';
  E.Name = std::move(Name);
  E.Category = std::move(Category);
  E.Pid = Pid;
  E.Tid = Tid;
  E.TsUs = TsUs;
  E.Args = std::move(Args);
  record(std::move(E));
}

void EventTracer::counterEvent(uint64_t Pid, uint64_t Tid, std::string Name,
                               std::string Category, double TsUs,
                               double Value) {
  TraceEvent E;
  E.Phase = 'C';
  E.Name = std::move(Name);
  E.Category = std::move(Category);
  E.Pid = Pid;
  E.Tid = Tid;
  E.TsUs = TsUs;
  E.Args.push_back(TraceArg::num("value", Value));
  record(std::move(E));
}

std::vector<TraceEvent> EventTracer::events() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events;
}

size_t EventTracer::numEvents() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.size();
}

std::string EventTracer::renderChromeTrace() const {
  // Rendered under the lock instead of from a copy of every event.
  std::lock_guard<std::mutex> Lock(Mu);
  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (const TraceEvent &E : Events) {
    W.beginObject();
    W.key("name");
    W.value(E.Name);
    W.key("ph");
    W.value(std::string_view(&E.Phase, 1));
    W.key("pid");
    W.value(E.Pid);
    W.key("tid");
    W.value(E.Tid);
    if (E.Phase != 'M') {
      W.key("ts");
      W.value(E.TsUs);
    }
    if (E.Phase == 'X') {
      W.key("dur");
      W.value(E.DurUs);
    }
    if (E.Phase == 'i') {
      W.key("s");
      W.value("t"); // Thread-scoped instant.
    }
    if (!E.Category.empty()) {
      W.key("cat");
      W.value(E.Category);
    }
    if (!E.Args.empty()) {
      W.key("args");
      W.beginObject();
      for (const TraceArg &A : E.Args) {
        W.key(A.Name);
        W.rawValue(A.JsonValue); // Pre-rendered JSON value.
      }
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.key("displayTimeUnit");
  W.value("ms");
  W.key("otherData");
  W.beginObject();
  W.key("schema");
  W.value("dra-trace-chrome-v2");
  W.key("tool");
  W.value("dra");
  W.endObject();
  W.endObject();
  return W.take();
}
