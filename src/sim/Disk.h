//===- sim/Disk.h - One simulated disk (I/O node) ---------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One disk (I/O node), in two layers:
///
///  * DiskTimingModel — the one disk timing model: FCFS service with a
///    seek/rotation/transfer cost, one of the three power policies
///    (none / TPM / DRPM) evaluated over each idle gap, the deferred DRPM
///    step-down and emergency ramp, the finalize tail, and the cold-disk
///    predicate PA-LRU consults. Idle gaps are evaluated lazily when the
///    next request arrives, which is exact because both policies are
///    deterministic functions of the gap length (see sim/IdleOutcome.h).
///  * Disk — a timing model plus its accounting: piecewise energy
///    integration, the ledger, per-request attribution, idle-gap analytics,
///    the windowed timeline and the event tracer, all applied from what the
///    model reports for each fragment.
///
/// The sharded engine's coordinator runs bare models; its shards run full
/// Disks, whose models therefore compute the very same completions.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_DISK_H
#define DRA_SIM_DISK_H

#include "obs/Timeline.h"
#include "obs/Tracer.h"
#include "sim/Attribution.h"
#include "sim/DrpmPolicy.h"
#include "sim/EnergyLedger.h"
#include "sim/PowerModel.h"
#include "sim/TpmPolicy.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace dra {

/// Per-disk simulation counters.
struct DiskStats {
  uint64_t NumRequests = 0;
  double BusyMs = 0.0;        ///< Sum of service times (the paper's I/O time).
  double EnergyJ = 0.0;       ///< Integrated energy.
  double ResponseSumMs = 0.0; ///< Sum of (completion - arrival).
  double IdleMsTotal = 0.0;
  unsigned SpinDowns = 0;
  unsigned SpinUps = 0;
  unsigned RpmSteps = 0;
  DurationHistogram IdleHist{1e-3, 4.0, 12};
  /// EnergyJ attributed to named categories; Ledger.totalJ() == EnergyJ
  /// (verify/EnergyAuditor and the ledger tests enforce it).
  EnergyLedger Ledger;

  // Idle-gap analytics against DiskParams::TpmBreakEvenS (Sec. 3): how
  // many gaps were long enough for a spin-down to pay off, and how much
  // time/energy went into the ones that were not. Recorded at gap
  // accounting time because raw gap lengths are not retained (IdleHist
  // keeps buckets only).
  uint64_t GapsBelowBreakEven = 0;
  uint64_t GapsAtLeastBreakEven = 0;
  double IdleMsBelowBreakEven = 0.0;
  double IdleMsAtLeastBreakEven = 0.0;
  /// Full-speed idle joules burned inside sub-break-even gaps — the
  /// "missed opportunity" no reactive policy can recover and the paper's
  /// restructuring exists to shrink.
  double MissedOpportunityJ = 0.0;

  /// Source attribution of the ledger (sim/Attribution.h): energy/time per
  /// (nest, reference, round) key. Populated only when the disk was built
  /// with attribution enabled; summing entries per category reproduces
  /// Ledger exactly (verify/EnergyAuditor).
  AttributionMap Attrib;

  /// Associative merge of two partial views of the same disk (or an
  /// all-disks rollup): counters and times sum, histograms/ledgers/maps
  /// merge category- and key-wise.
  void merge(const DiskStats &O) {
    NumRequests += O.NumRequests;
    BusyMs += O.BusyMs;
    EnergyJ += O.EnergyJ;
    ResponseSumMs += O.ResponseSumMs;
    IdleMsTotal += O.IdleMsTotal;
    SpinDowns += O.SpinDowns;
    SpinUps += O.SpinUps;
    RpmSteps += O.RpmSteps;
    IdleHist.merge(O.IdleHist);
    Ledger.merge(O.Ledger);
    GapsBelowBreakEven += O.GapsBelowBreakEven;
    GapsAtLeastBreakEven += O.GapsAtLeastBreakEven;
    IdleMsBelowBreakEven += O.IdleMsBelowBreakEven;
    IdleMsAtLeastBreakEven += O.IdleMsAtLeastBreakEven;
    MissedOpportunityJ += O.MissedOpportunityJ;
    mergeAttribution(Attrib, O.Attrib);
  }
};

/// Head movements within this many bytes of the previous request's end are
/// charged the near-sequential seek time instead of the average seek.
inline constexpr uint64_t SeqWindowBytes = 1024 * 1024;

/// What DiskTimingModel::submit reports for one serviced fragment.
struct ServiceSpan {
  double StartMs = 0.0;      ///< Service start, after any ready delay.
  double ServiceMs = 0.0;    ///< Seek + rotation + transfer.
  double CompletionMs = 0.0; ///< StartMs + ServiceMs.
  double ReadyDelayMs = 0.0; ///< Wake/step delay the ending gap imposed.
  unsigned Rpm = 0;          ///< Speed the fragment was serviced at.
  /// DRPM emergency ramp right after the completion (RampLevels == 0:
  /// none): the disk is busy for RampMs more, then runs at currentRpm().
  unsigned RampLevels = 0;
  double RampMs = 0.0;
};

/// The timing of one disk: completion times, power-state transitions and
/// the DRPM controller, with no energy accounting. Not movable once
/// constructed (the policies reference the owned PowerModel) — hold it in
/// a reserved vector like StorageSystem holds Disks.
class DiskTimingModel {
public:
  DiskTimingModel(const DiskParams &Params, PowerPolicyKind Policy)
      : PM(Params), Policy(Policy), Tpm(PM), Drpm(PM), Rpm(Params.MaxRpm),
        PendingRpm(Params.MaxRpm) {}

  const DiskParams &params() const { return PM.params(); }
  const PowerModel &power() const { return PM; }
  PowerPolicyKind policy() const { return Policy; }
  double busyUntilMs() const { return BusyUntilMs; }
  unsigned currentRpm() const { return Rpm; }

  /// Service time of \p Bytes at \p Rpm (seek + rotation + transfer).
  double serviceMs(uint64_t Bytes, unsigned Rpm, bool Sequential) const {
    return PM.serviceMs(Bytes, Rpm, Sequential);
  }

  /// Evaluates an idle gap of \p GapMs under the policy, starting at
  /// \p StartRpm with deferred DRPM target \p PendingRpm. \p RequestArrives
  /// is false for the tail gap at the end of a run (no proactive wake).
  /// \p WantSegments also fills IdleOutcome::Segments (timeline only; the
  /// timing outputs are identical either way).
  IdleOutcome evaluateGap(double GapMs, unsigned StartRpm, unsigned PendingRpm,
                          bool RequestArrives, bool WantSegments) const;

  /// PA-LRU's notion of a "cold" disk at \p NowMs: idle long enough that
  /// the policy has taken it to a low-power state.
  bool isCold(double NowMs) const {
    double IdleMs = NowMs - BusyUntilMs;
    return IdleMs > 0 && IdleMs >= params().policyDecisionIdleMs(Policy);
  }

  /// Services a fragment arriving at \p ArrivalMs for \p Bytes at disk
  /// offset \p Offset. Requests must arrive in non-decreasing time order
  /// (FCFS). When the fragment ends an idle gap, \p OnGap(GapStartMs,
  /// GapMs, const IdleOutcome &) sees the gap's outcome before the
  /// model's state moves past it.
  template <typename OnGapFn>
  ServiceSpan submit(double ArrivalMs, uint64_t Offset, uint64_t Bytes,
                     bool WantSegments, OnGapFn &&OnGap);

  /// Timing only: the completion time of the fragment.
  double submit(double ArrivalMs, uint64_t Offset, uint64_t Bytes) {
    return submit(ArrivalMs, Offset, Bytes, /*WantSegments=*/false,
                  [](double, double, const IdleOutcome &) {})
        .CompletionMs;
  }

  /// Evaluates the trailing idle gap up to \p EndMs (passed to \p OnGap
  /// like submit's). Must be called at most once, after the last submit.
  template <typename OnGapFn>
  void finalize(double EndMs, bool WantSegments, OnGapFn &&OnGap);

private:
  PowerModel PM;
  PowerPolicyKind Policy;
  TpmPolicy Tpm;
  DrpmPolicy Drpm;

  double BusyUntilMs = 0.0;
  unsigned Rpm;
  /// Deferred DRPM step-down target (== Rpm when none pending).
  unsigned PendingRpm;
  uint64_t LastEndOffset = 0;
  bool HasLastOffset = false;
  double LastArrivalMs = 0.0;
  bool Finalized = false;

  /// Evaluates the gap [BusyUntilMs, BusyUntilMs + GapMs), reports it, and
  /// moves the speed state past it.
  template <typename OnGapFn>
  IdleOutcome passGap(double GapMs, bool RequestArrives, bool WantSegments,
                      OnGapFn &OnGap) {
    IdleOutcome O =
        evaluateGap(GapMs, Rpm, PendingRpm, RequestArrives, WantSegments);
    OnGap(BusyUntilMs, GapMs, O);
    Rpm = O.EndRpm;
    PendingRpm = Rpm; // Any deferred step-down has now been honored.
    return O;
  }
};

template <typename OnGapFn>
ServiceSpan DiskTimingModel::submit(double ArrivalMs, uint64_t Offset,
                                    uint64_t Bytes, bool WantSegments,
                                    OnGapFn &&OnGap) {
  assert(!Finalized && "submit after finalize");
  assert(ArrivalMs + 1e-9 >= LastArrivalMs &&
         "requests must arrive in non-decreasing time order");
  LastArrivalMs = ArrivalMs;

  ServiceSpan Sp;
  Sp.StartMs = std::max(ArrivalMs, BusyUntilMs);
  double GapMs = Sp.StartMs - BusyUntilMs;
  if (GapMs > 0) {
    Sp.ReadyDelayMs =
        passGap(GapMs, /*RequestArrives=*/true, WantSegments, OnGap)
            .ReadyDelayMs;
    Sp.StartMs += Sp.ReadyDelayMs;
  }

  bool Sequential = HasLastOffset && Offset >= LastEndOffset &&
                    Offset - LastEndOffset <= SeqWindowBytes;
  Sp.Rpm = Rpm;
  Sp.ServiceMs = PM.serviceMs(Bytes, Rpm, Sequential);
  BusyUntilMs = Sp.StartMs + Sp.ServiceMs;
  Sp.CompletionMs = BusyUntilMs;
  LastEndOffset = Offset + Bytes;
  HasLastOffset = true;

  if (Policy == PowerPolicyKind::Drpm) {
    unsigned Cmd =
        Drpm.onRequestServiced(Sp.CompletionMs - ArrivalMs, Bytes, Rpm);
    if (Cmd > Rpm) {
      // Emergency ramp-up: the speed change occupies the disk; later
      // arrivals queue behind it.
      Sp.RampLevels = (Cmd - Rpm) / params().RpmStep;
      Sp.RampMs = PM.rpmTransitionMs(Sp.RampLevels);
      BusyUntilMs += Sp.RampMs;
      Rpm = Cmd;
      PendingRpm = Rpm;
    } else if (Cmd < Rpm) {
      PendingRpm = Cmd; // Step-down: deferred until the disk is next idle.
    }
  }
  return Sp;
}

template <typename OnGapFn>
void DiskTimingModel::finalize(double EndMs, bool WantSegments,
                               OnGapFn &&OnGap) {
  assert(!Finalized && "finalize called twice");
  Finalized = true;
  if (EndMs > BusyUntilMs) {
    passGap(EndMs - BusyUntilMs, /*RequestArrives=*/false, WantSegments,
            OnGap);
    BusyUntilMs = EndMs;
  }
}

/// A single simulated disk: one DiskTimingModel plus its accounting.
class Disk {
public:
  /// \param Trace optional event tracer; when non-null the disk emits its
  ///        timeline (service/idle spans, spin and RPM instants) as thread
  ///        \p Id + 1 of process \p TracePid, stamped in simulated time.
  ///        Purely observational: results are identical with and without.
  /// \param Attribution when true the disk also charges every joule to its
  ///        originating (nest, reference, round) key in DiskStats::Attrib,
  ///        and finalize() derives the ledger as the per-category sum of
  ///        the entries. Timings, counters and total energy are identical
  ///        with and without; ledger categories can differ only by FP
  ///        reassociation (the same charges, summed in a different order).
  /// \param Timeline optional windowed time-series recorder
  ///        (obs/Timeline.h); the disk buckets its power states, energy
  ///        categories and throughput into simulated-time windows of the
  ///        recorder's current run. Purely observational: results are
  ///        identical with and without.
  Disk(unsigned Id, const DiskParams &Params, PowerPolicyKind Policy,
       EventTracer *Trace = nullptr, uint64_t TracePid = 0,
       bool Attribution = false, TimelineRecorder *Timeline = nullptr);

  unsigned id() const { return Id; }
  unsigned currentRpm() const { return Model.currentRpm(); }
  double busyUntilMs() const { return Model.busyUntilMs(); }
  const DiskTimingModel &timing() const { return Model; }
  const DiskStats &stats() const { return S; }

  /// Services a request arriving at \p ArrivalMs for \p Bytes at disk
  /// offset \p Offset. Returns the completion time. Requests must be
  /// submitted in non-decreasing arrival order (FCFS). \p Prov is the
  /// request's compiler provenance, consumed only when attribution is on.
  double submit(double ArrivalMs, uint64_t Offset, uint64_t Bytes,
                bool IsWrite, Provenance Prov = Provenance());

  /// Integrates the trailing idle period up to \p EndMs. Must be called
  /// exactly once, after the last submit.
  void finalize(double EndMs);

private:
  unsigned Id;
  DiskTimingModel Model;
  DiskStats S;
  EventTracer *Trace;
  uint64_t TracePid;
  bool Attribution;
  TimelineRecorder *TL;
  /// Attribution entry of the most recent serviced request — the
  /// "previous bound" of the next idle gap. Null until the first submit;
  /// map nodes are pointer-stable, so the pointer stays valid for the
  /// disk's lifetime. LastMix is the entry's key hash (keyMix), kept
  /// alongside so gap accounting never recomputes it.
  AttribEntry *LastE = nullptr;
  uint32_t LastMix = 0;

  /// Direct-mapped cache over S.Attrib: traces interleave a handful of
  /// references per iteration, so consecutive requests cycle through a
  /// few keys rather than arriving in long single-key runs. Hashing the
  /// key to a fixed slot keeps the hit path at one predictable compare
  /// (no scan whose match position varies) and the steady state free of
  /// map walks; a colliding pair of hot keys degrades to per-request
  /// walks but stays correct.
  struct KeySlot {
    AttribKey Key;
    AttribEntry *Entry = nullptr; ///< null marks the slot empty.
    uint32_t Mix = 0;             ///< keyMix(Key), cached on refill.
  };
  static constexpr unsigned NumKeySlots = 16;
  KeySlot Slots[NumKeySlots];

  /// Cheap per-request mix: the keys alive at once on a disk share a nest
  /// and neighbouring rounds with small ref ids, so low-bit arithmetic
  /// separates them; a collision only costs the map-walk fallback.
  static unsigned slotIndex(const AttribKey &K) {
    return (K.Nest * 3 + K.Ref + K.Round * 5) % NumKeySlots;
  }

  /// Hash of one key for the gap-pair table. Deterministic functions of
  /// the key only — never of heap addresses — so accumulator flush
  /// timing, and with it the FP summation order of attributed charges,
  /// is identical across runs (the sweep runner's byte-identity
  /// contract, docs/SWEEPS.md).
  static uint32_t keyMix(const AttribKey &K) {
    return K.Nest * 0x9E3779B1u + K.Ref * 0x85EBCA77u + K.Round * 0xC2B2AE3Du;
  }

  /// The cache slot of \p Key, refilled from the map on a miss.
  KeySlot &slotFor(const AttribKey &Key) {
    KeySlot &KS = Slots[slotIndex(Key)];
    if (!KS.Entry || !(KS.Key == Key)) {
      KS.Key = Key;
      KS.Entry = &S.Attrib[Key];
      KS.Mix = keyMix(Key);
    }
    return KS;
  }

  /// Pending in-gap charges for one unordered pair of bounding entries.
  /// The half/half split is symmetric in the bounds, so sums accumulate
  /// per unordered pair; a gap whose bounds cycle through a few entries
  /// (interleaved references produce {A,B}, {B,C}, {C,A}, ...) keeps each
  /// pair's accumulator hot in a direct-mapped slot, and flushGapAccum()
  /// charges each side half of the sums only on eviction, overflow or
  /// finalize. Halving is exact in IEEE-754, so a pair (E, E) receiving
  /// both halves gets the full charge bit-for-bit.
  struct GapAccum {
    static constexpr unsigned MaxIdle = 8;
    AttribEntry *A = nullptr; ///< null marks the accumulator empty.
    AttribEntry *B = nullptr;
    unsigned NumIdle = 0;
    unsigned IdleRpm[MaxIdle];
    double IdleJ[MaxIdle];
    double SpinDownJ = 0.0;
    double StandbyJ = 0.0;
    double RpmStepJ = 0.0;
  };
  static constexpr unsigned NumPairSlots = 64;
  GapAccum Pairs[NumPairSlots];

  /// Slot of the unordered pair with key hashes \p MixA, \p MixB:
  /// addition keeps the hash symmetric without collapsing (E, E) pairs
  /// to one slot the way xor would; the Fibonacci multiply spreads the
  /// already-mixed sums across the top bits.
  static unsigned pairIndex(uint32_t MixA, uint32_t MixB) {
    static_assert((NumPairSlots & (NumPairSlots - 1)) == 0,
                  "top-bits hash needs a power-of-two table");
    uint64_t Sum = uint64_t(MixA) + uint64_t(MixB);
    return unsigned((Sum * 0x9E3779B97F4A7C15ull) >> 58) % NumPairSlots;
  }

  /// Charges half of \p GA's sums to each bounding entry and empties it.
  void flushGapAccum(GapAccum &GA);

  /// Applies one idle gap's outcome to the stats and ledger (or the
  /// attribution entries).
  /// \param NextE attribution entry of the request ending the gap (the
  ///        unattributed entry for the finalize tail; null when
  ///        attribution is off); \p NextMix is its keyMix.
  void accountGap(const IdleOutcome &O, double GapMs, AttribEntry *NextE,
                  uint32_t NextMix);

  /// Emits the idle span plus spin/RPM instant events for one gap
  /// [GapStartMs, GapStartMs + GapMs) (tracer known non-null).
  void traceGap(double GapStartMs, double GapMs, const IdleOutcome &O) const;
  /// Records one gap on the timeline (recorder known non-null).
  void recordGap(double GapStartMs, double GapMs, const IdleOutcome &O);
};

} // namespace dra

#endif // DRA_SIM_DISK_H
