//===- serve/ServeTelemetry.cpp - Serving latency & SLOs -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/ServeTelemetry.h"

#include "obs/Metrics.h"
#include "obs/Timeline.h"
#include "serve/SessionRunner.h"
#include "support/Diagnostic.h"
#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>

using namespace dra;

void LagHistogram::add(uint64_t Lag) {
  ++Counts[Lag];
  ++Total;
  SumLags += Lag;
  MaxLag = std::max(MaxLag, Lag);
}

void LagHistogram::merge(const LagHistogram &O) {
  for (const auto &[Lag, N] : O.Counts)
    Counts[Lag] += N;
  Total += O.Total;
  SumLags += O.SumLags;
  MaxLag = std::max(MaxLag, O.MaxLag);
}

uint64_t LagHistogram::percentile(double Q) const {
  if (Total == 0)
    return 0;
  uint64_t Rank = uint64_t(std::ceil(Q * double(Total)));
  Rank = std::max<uint64_t>(1, std::min(Rank, Total));
  uint64_t Seen = 0;
  for (const auto &[Lag, N] : Counts) {
    Seen += N;
    if (Seen >= Rank)
      return Lag;
  }
  return MaxLag;
}

std::string dra::renderServeTickTable(const std::vector<ServeTickStats> &Ticks,
                                      const std::vector<LagHistogram> &Lags) {
  bool WithLags = Lags.size() == Ticks.size() && !Ticks.empty();
  std::vector<std::string> Header = {"Tick",       "Phase",      "Arrived",
                                     "Scheduled",  "Deferred",   "Ad-hoc I/O",
                                     "Rounds",     "Start disk", "Low-power disks"};
  if (WithLags)
    Header.push_back("Lag p95 (ticks)");
  TextTable T(std::move(Header));
  for (size_t I = 0; I != Ticks.size(); ++I) {
    const ServeTickStats &St = Ticks[I];
    std::vector<std::string> Row = {
        fmtGrouped(St.Tick),          fmtGrouped(St.Phase),
        fmtGrouped(St.Arrived),       fmtGrouped(St.Scheduled),
        fmtGrouped(St.Deferred),      fmtGrouped(St.AdHocRequests),
        fmtGrouped(St.Rounds),        fmtGrouped(St.StartDisk),
        fmtGrouped(St.LowPowerDisks)};
    if (WithLags)
      Row.push_back(fmtGrouped(int64_t(Lags[I].percentile(0.95))));
    T.addRow(std::move(Row));
  }
  return T.render();
}

void dra::recordServeMetrics(MetricsRegistry &M, const SessionResult &R) {
  M.counter("serve.ticks").add(R.Ticks.size());
  M.counter("serve.scheduled").add(R.Order.size());
  M.counter("serve.adhoc_requests").add(R.AdHocRequests);
  uint64_t DeferredTotal = 0;
  for (const ServeTickStats &St : R.Ticks)
    DeferredTotal += St.Deferred;
  M.counter("serve.deferred_total").add(DeferredTotal);
  for (const LagHistogram &L : R.TickLags)
    for (const auto &[Lag, N] : L.Counts)
      for (uint64_t I = 0; I != N; ++I)
        M.histogram("serve.dispatch_lag_ticks").observe(double(Lag));
}

namespace {

/// The metric names a dra-slo-v1 rule may use, shared by the parser (strict
/// validation) and the evaluator.
const char *const SloMetricNames[] = {
    "p50_dispatch_ticks", "p95_dispatch_ticks", "p99_dispatch_ticks",
    "max_dispatch_ticks", "mean_dispatch_ticks", "max_backlog",
    "mean_backlog",       "p50_completion_ms",   "p95_completion_ms",
    "p99_completion_ms",  "max_completion_ms",   "mean_completion_ms",
};

bool knownSloMetric(const std::string &Name) {
  for (const char *M : SloMetricNames)
    if (Name == M)
      return true;
  return false;
}

/// One window's aggregated serving state, built once and probed per rule.
struct WindowStats {
  LagHistogram Lags;
  uint64_t MaxBacklog = 0;
  double SumBacklog = 0.0;
  uint64_t NumTicks = 0;
  PhaseLatency Completion;

  double metric(const std::string &Name) const {
    if (Name == "p50_dispatch_ticks")
      return double(Lags.percentile(0.50));
    if (Name == "p95_dispatch_ticks")
      return double(Lags.percentile(0.95));
    if (Name == "p99_dispatch_ticks")
      return double(Lags.percentile(0.99));
    if (Name == "max_dispatch_ticks")
      return double(Lags.MaxLag);
    if (Name == "mean_dispatch_ticks")
      return Lags.mean();
    if (Name == "max_backlog")
      return double(MaxBacklog);
    if (Name == "mean_backlog")
      return NumTicks == 0 ? 0.0 : SumBacklog / double(NumTicks);
    if (Name == "p50_completion_ms")
      return Completion.percentileMs(0.50);
    if (Name == "p95_completion_ms")
      return Completion.percentileMs(0.95);
    if (Name == "p99_completion_ms")
      return Completion.percentileMs(0.99);
    if (Name == "max_completion_ms")
      return Completion.MaxMs;
    return Completion.meanMs(); // mean_completion_ms
  }
};

WindowStats windowStats(const SessionResult &R,
                        const std::vector<LagHistogram> &Lags,
                        const RunTimeline *TL, size_t First, size_t End) {
  WindowStats W;
  for (size_t I = First; I != End; ++I) {
    if (I < Lags.size())
      W.Lags.merge(Lags[I]);
    W.MaxBacklog = std::max(W.MaxBacklog, R.Ticks[I].Deferred);
    W.SumBacklog += double(R.Ticks[I].Deferred);
    ++W.NumTicks;
    // Barrier phases are ticks in serving mode; a tick whose schedule
    // issued no requests has no phase entry past the recorded range.
    uint32_t Phase = R.Ticks[I].Phase;
    if (TL && Phase < TL->Phases.size()) {
      const PhaseLatency &P = TL->Phases[Phase];
      W.Completion.Requests += P.Requests;
      W.Completion.SumMs += P.SumMs;
      W.Completion.MaxMs = std::max(W.Completion.MaxMs, P.MaxMs);
      W.Completion.Hist.merge(P.Hist);
    }
  }
  return W;
}

void writeLagJson(JsonWriter &W, const LagHistogram &L) {
  W.beginObject();
  W.key("requests");
  W.value(L.Total);
  W.key("mean");
  W.value(L.mean());
  W.key("p50");
  W.value(L.percentile(0.50));
  W.key("p95");
  W.value(L.percentile(0.95));
  W.key("p99");
  W.value(L.percentile(0.99));
  W.key("max");
  W.value(L.MaxLag);
  W.endObject();
}

void writeCompletionJson(JsonWriter &W, const PhaseLatency &P) {
  W.beginObject();
  W.key("requests");
  W.value(P.Requests);
  W.key("mean_ms");
  W.value(P.meanMs());
  W.key("p50_ms");
  W.value(P.percentileMs(0.50));
  W.key("p95_ms");
  W.value(P.percentileMs(0.95));
  W.key("p99_ms");
  W.value(P.percentileMs(0.99));
  W.key("max_ms");
  W.value(P.MaxMs);
  W.endObject();
}

} // namespace

bool dra::parseSloSpec(const std::string &Text, SloSpec &Out,
                       std::string &Error) {
  JsonValue Doc;
  if (!parseJson(Text, Doc, Error))
    return false;
  const JsonValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->Str != "dra-slo-v1") {
    Error = "not a dra-slo-v1 document (missing or wrong \"schema\")";
    return false;
  }
  Out = SloSpec();
  if (const JsonValue *W = Doc.find("window_ticks")) {
    if (!jsonUnsigned(*W, Out.WindowTicks)) {
      Error = "\"window_ticks\" must be an integer in [0, 2^64)";
      return false;
    }
  }
  const JsonValue *Rules = Doc.find("slos");
  if (!Rules || !Rules->isArray() || Rules->Arr.empty()) {
    Error = "\"slos\" must be a non-empty array";
    return false;
  }
  for (const JsonValue &R : Rules->Arr) {
    const JsonValue *Metric = R.find("metric");
    const JsonValue *Max = R.find("max");
    if (!Metric || !Metric->isString() || !Max || !Max->isNumber()) {
      Error = "every rule needs a string \"metric\" and numeric \"max\"";
      return false;
    }
    if (!knownSloMetric(Metric->Str)) {
      Error = "unknown SLO metric '" + Metric->Str + "'";
      return false;
    }
    Out.Rules.push_back(SloRule{Metric->Str, Max->Num});
  }
  return true;
}

std::vector<SloViolation>
dra::evaluateSlos(const SloSpec &Spec, const SessionResult &R,
                  const std::vector<LagHistogram> &Lags,
                  const RunTimeline *TL) {
  std::vector<SloViolation> Violations;
  size_t N = R.Ticks.size();
  if (N == 0 || Spec.Rules.empty())
    return Violations;
  size_t Width = Spec.WindowTicks == 0 ? N : size_t(Spec.WindowTicks);
  for (size_t First = 0; First < N; First += Width) {
    size_t End = std::min(N, First + Width);
    WindowStats W = windowStats(R, Lags, TL, First, End);
    for (const SloRule &Rule : Spec.Rules) {
      double Value = W.metric(Rule.Metric);
      if (Value > Rule.Max)
        Violations.push_back(SloViolation{R.Ticks[First].Tick,
                                          uint64_t(End - First), Rule.Metric,
                                          Value, Rule.Max});
    }
  }
  return Violations;
}

void dra::reportSloViolations(DiagnosticEngine &DE,
                              const std::vector<SloViolation> &Violations) {
  for (const SloViolation &V : Violations)
    DE.report(Diagnostic(DiagSeverity::Error, "serve-slo", V.Metric)
              << "window of " << V.NumTicks << " ticks starting at tick "
              << V.FirstTick << ": " << V.Metric << " = " << fmtExact(V.Value)
              << " exceeds the SLO limit " << fmtExact(V.Limit));
}

std::string dra::renderServingJson(const SessionResult &R,
                                   const std::vector<LagHistogram> &Lags,
                                   const RunTimeline *TL, const SloSpec *Spec,
                                   const std::vector<SloViolation> &Violations) {
  JsonWriter W;
  W.beginObject();
  W.key("ticks");
  W.beginArray();
  for (size_t I = 0; I != R.Ticks.size(); ++I) {
    const ServeTickStats &St = R.Ticks[I];
    W.beginObject();
    W.key("tick");
    W.value(St.Tick);
    W.key("phase");
    W.value(St.Phase);
    W.key("arrived");
    W.value(St.Arrived);
    W.key("scheduled");
    W.value(St.Scheduled);
    W.key("deferred");
    W.value(St.Deferred);
    W.key("adhoc");
    W.value(St.AdHocRequests);
    W.key("rounds");
    W.value(St.Rounds);
    W.key("start_disk");
    W.value(St.StartDisk);
    W.key("low_power_disks");
    W.value(St.LowPowerDisks);
    if (I < Lags.size()) {
      W.key("dispatch_lag_ticks");
      writeLagJson(W, Lags[I]);
    }
    if (TL && St.Phase < TL->Phases.size()) {
      W.key("completion_ms");
      writeCompletionJson(W, TL->Phases[St.Phase]);
    }
    W.endObject();
  }
  W.endArray();
  if (Spec) {
    W.key("slo");
    W.beginObject();
    W.key("window_ticks");
    W.value(Spec->WindowTicks);
    W.key("rules");
    W.beginArray();
    for (const SloRule &Rule : Spec->Rules) {
      W.beginObject();
      W.key("metric");
      W.value(Rule.Metric);
      W.key("max");
      W.value(Rule.Max);
      W.endObject();
    }
    W.endArray();
    W.key("violations");
    W.beginArray();
    for (const SloViolation &V : Violations) {
      W.beginObject();
      W.key("first_tick");
      W.value(V.FirstTick);
      W.key("num_ticks");
      W.value(V.NumTicks);
      W.key("metric");
      W.value(V.Metric);
      W.key("value");
      W.value(V.Value);
      W.key("limit");
      W.value(V.Limit);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endObject();
  return W.take();
}
