//===- sim/SimEngine.cpp - Closed-loop trace replay -------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/SimEngine.h"

#include "sim/ReplayCore.h"

#include <algorithm>
#include <cassert>

using namespace dra;

SimResults SimEngine::run(const Trace &T) const {
  // Each run gets its own trace process so back-to-back schemes (Base,
  // TPM, ...) land on separate simulated-time timelines.
  uint64_t TracePid = Tracer ? Tracer->addProcess(TraceLabel) : 0;
  if (Timeline)
    Timeline->beginRun(TraceLabel, Layout.numDisks());
  StorageSystem Storage(Layout, Params, Policy, Cache, Tracer, TracePid,
                        Attribution, Timeline);

  // The closed-loop processor model lives in sim/ReplayCore.h, shared with
  // the sharded engine; the serial oracle's submit is the full storage
  // system (disks with energy accounting, attribution, telemetry).
  SimResults Res;
  double MaxCompletion = replayClosedLoop(
      T,
      [&](double IssueMs, const Request &R) {
        return Storage.submit(IssueMs, T.byteOffset(R), R.SizeBytes, R.IsWrite,
                              R.Prov);
      },
      Res, Timeline);

  Storage.finalize(MaxCompletion);
  if (Timeline)
    Timeline->endRun(MaxCompletion);
  for (unsigned D = 0; D != Storage.numDisks(); ++D)
    Res.PerDisk.push_back(Storage.disk(D).stats());
  finishSimResults(Res, MaxCompletion, Attribution, Storage.cacheStats(),
                   Tracer, TracePid);
  return Res;
}

void dra::finishSimResults(SimResults &Res, double WallTimeMs,
                           bool Attribution, const CacheStats &Cache,
                           EventTracer *Tracer, uint64_t TracePid) {
  Res.WallTimeMs = WallTimeMs;
  Res.AttributionEnabled = Attribution;
  Res.Cache = Cache;
  for (const DiskStats &S : Res.PerDisk) {
    Res.IoTimeMs += S.BusyMs;
    Res.EnergyJ += S.EnergyJ;
    Res.NumFragments += S.NumRequests;
    Res.SpinDowns += S.SpinDowns;
    Res.SpinUps += S.SpinUps;
    Res.RpmSteps += S.RpmSteps;
  }
  if (Tracer) {
    Tracer->nameThread(TracePid, 0, "engine");
    Tracer->completeEvent(
        TracePid, 0, "replay", "sim", 0.0, Res.WallTimeMs * 1000.0,
        {TraceArg::num("num_requests", Res.NumRequests),
         TraceArg::num("io_time_ms", Res.IoTimeMs),
         TraceArg::num("energy_j", Res.EnergyJ)});
  }
}

EnergyLedger SimResults::totalLedger() const {
  EnergyLedger L;
  for (const DiskStats &S : PerDisk)
    L += S.Ledger;
  return L;
}

void SimResults::merge(const SimResults &O) {
  WallTimeMs = std::max(WallTimeMs, O.WallTimeMs);
  IoTimeMs += O.IoTimeMs;
  EnergyJ += O.EnergyJ;
  ResponseSumMs += O.ResponseSumMs;
  NumRequests += O.NumRequests;
  NumFragments += O.NumFragments;
  SpinDowns += O.SpinDowns;
  SpinUps += O.SpinUps;
  RpmSteps += O.RpmSteps;
  Cache.merge(O.Cache);
  if (PerDisk.size() < O.PerDisk.size())
    PerDisk.resize(O.PerDisk.size());
  for (size_t D = 0; D != O.PerDisk.size(); ++D)
    PerDisk[D].merge(O.PerDisk[D]);
  AttributionEnabled = AttributionEnabled || O.AttributionEnabled;
}
