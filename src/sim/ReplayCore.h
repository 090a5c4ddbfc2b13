//===- sim/ReplayCore.h - Shared closed-loop replay core --------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The closed-loop processor model shared by the serial SimEngine and the
/// sharded engine (sim/ShardedSimEngine.h): think time, synchronous I/O and
/// per-tenant barrier phases, as a template over the storage submit
/// function, so both engines run the *same* issue-order selection code and
/// differ only in what servicing a request means. (Disk timing itself
/// lives in one place, DiskTimingModel in sim/Disk.h.)
///
/// The selection loop issues requests in globally non-decreasing time
/// (equal-time ties in increasing processor order): a processor's next
/// candidate can only move later as ProcReady/PhaseEnd grow, and a newly
/// barrier-unlocked candidate starts at or after the completion that
/// unlocked it. The sharded engine's batch ordering relies on this.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_REPLAYCORE_H
#define DRA_SIM_REPLAYCORE_H

#include "sim/SimEngine.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace dra {

/// Runs the closed-loop replay of \p T: each processor alternates think
/// time and synchronous I/O; barrier phases are scoped per tenant (a
/// phase-p request of tenant t starts only after all lower-phase requests
/// of tenant t completed — single-tenant traces behave exactly as before).
///
/// \param Submit double(double IssueMs, const Request &R): services the
///        request and returns its completion time.
/// Each request's response time adds to \p Res (NumRequests,
/// ResponseSumMs) in issue order, and to \p Timeline's per-phase latency
/// when non-null.
/// \returns the maximum completion time (the run's wall clock).
template <typename SubmitFn>
double replayClosedLoop(const Trace &T, SubmitFn &&Submit, SimResults &Res,
                        TimelineRecorder *Timeline) {
  // Per-processor request streams in issue order (one flat allocation).
  TraceProcIndex Stream(T);

  // Per-(tenant, phase) barrier bookkeeping, row-major by tenant.
  uint32_t NumPhases = T.maxPhase() + 1;
  uint32_t NumTenants = T.maxTenant() + 1;
  std::vector<uint64_t> Unissued(size_t(NumTenants) * NumPhases, 0);
  std::vector<double> PhaseEnd(size_t(NumTenants) * NumPhases, 0.0);
  for (const Request &R : T.requests())
    ++Unissued[size_t(R.Tenant) * NumPhases + R.Phase];

  auto BarrierFor = [&](uint32_t Tenant, uint32_t Phase) {
    double B = 0.0;
    for (uint32_t Q = 0; Q != Phase; ++Q)
      B = std::max(B, PhaseEnd[size_t(Tenant) * NumPhases + Q]);
    return B;
  };
  auto PhaseReady = [&](uint32_t Tenant, uint32_t Phase) {
    for (uint32_t Q = 0; Q != Phase; ++Q)
      if (Unissued[size_t(Tenant) * NumPhases + Q] != 0)
        return false;
    return true;
  };

  std::vector<size_t> Next(T.numProcs(), 0);
  std::vector<double> ProcReady(T.numProcs(), 0.0);

  double MaxCompletion = 0.0;
  uint64_t Remaining = T.size();

  while (Remaining != 0) {
    // Pick the eligible processor with the earliest issue time.
    int Best = -1;
    double BestIssue = 0.0;
    for (unsigned P = 0; P != T.numProcs(); ++P) {
      if (Next[P] == Stream.ofProc(P).size())
        continue;
      const Request &R = *Stream.ofProc(P)[Next[P]];
      if (!PhaseReady(R.Tenant, R.Phase))
        continue;
      double Issue =
          std::max(ProcReady[P], BarrierFor(R.Tenant, R.Phase)) + R.ThinkMs;
      if (Best < 0 || Issue < BestIssue) {
        Best = int(P);
        BestIssue = Issue;
      }
    }
    assert(Best >= 0 && "barrier deadlock: no eligible processor");

    const Request &R = *Stream.ofProc(uint32_t(Best))[Next[Best]];
    ++Next[Best];
    --Remaining;

    double Completion = Submit(BestIssue, R);
    ProcReady[Best] = Completion;
    --Unissued[size_t(R.Tenant) * NumPhases + R.Phase];
    double &PE = PhaseEnd[size_t(R.Tenant) * NumPhases + R.Phase];
    PE = std::max(PE, Completion);
    MaxCompletion = std::max(MaxCompletion, Completion);

    ++Res.NumRequests;
    Res.ResponseSumMs += Completion - BestIssue;
    if (Timeline)
      Timeline->recordRequestLatency(R.Phase, BestIssue, Completion);
  }
  return MaxCompletion;
}

} // namespace dra

#endif // DRA_SIM_REPLAYCORE_H
