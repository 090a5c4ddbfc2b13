//===- tests/disk_test.cpp - single-disk simulation tests --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Disk.h"

#include <gtest/gtest.h>

#include <random>

using namespace dra;

namespace {
constexpr uint64_t KiB32 = 32 * 1024;
} // namespace

TEST(DiskTest, FirstRequestFromColdIdle) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(1000.0, 0, KiB32, false);
  double Svc = PM.serviceMs(KiB32, P.MaxRpm, /*Sequential=*/false);
  EXPECT_NEAR(C, 1000.0 + Svc, 1e-9);
  EXPECT_EQ(D.stats().NumRequests, 1u);
  EXPECT_NEAR(D.stats().BusyMs, Svc, 1e-9);
  // 1 s idle at 10.2 W plus the service energy.
  EXPECT_NEAR(D.stats().EnergyJ,
              10.2 * 1.0 + PM.activePowerW(P.MaxRpm) * Svc / 1000.0, 1e-6);
}

TEST(DiskTest, FcfsQueueing) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // Second request arrives while the first is in service: it queues.
  double C2 = D.submit(1.0, 10 * KiB32 * 100, KiB32, false);
  EXPECT_GT(C1, 1.0);
  double Svc = PM.serviceMs(KiB32, P.MaxRpm, false);
  EXPECT_NEAR(C2, C1 + Svc, 1e-9);
  // Response of the queued request includes the wait.
  EXPECT_NEAR(D.stats().ResponseSumMs, C1 + (C2 - 1.0), 1e-9);
}

TEST(DiskTest, SequentialSeekDiscount) {
  DiskParams P;
  P.SeqSeekMs = 0.5; // Non-default: exercise the sequential discount.
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // Contiguous follow-up: sequential seek.
  double C2 = D.submit(C1, KiB32, KiB32, false);
  double SeqSvc = PM.serviceMs(KiB32, P.MaxRpm, /*Sequential=*/true);
  EXPECT_NEAR(C2 - C1, SeqSvc, 1e-9);
  // A far jump pays the average seek again.
  double C3 = D.submit(C2, 500 * 1024 * 1024, KiB32, false);
  double RandSvc = PM.serviceMs(KiB32, P.MaxRpm, false);
  EXPECT_NEAR(C3 - C2, RandSvc, 1e-9);
}

TEST(DiskTest, BackwardJumpIsNotSequential) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::None);
  double C1 = D.submit(0.0, 500 * 1024 * 1024, KiB32, false);
  double C2 = D.submit(C1, 0, KiB32, false);
  EXPECT_NEAR(C2 - C1, PM.serviceMs(KiB32, P.MaxRpm, false), 1e-9);
}

TEST(DiskTest, TpmSpinUpDelaysService) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Tpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // Arrive after a long gap: the disk is in standby and must spin up.
  double Arrive = C1 + 60000.0;
  double C2 = D.submit(Arrive, 0, KiB32, false);
  EXPECT_NEAR(C2 - Arrive,
              P.SpinUpS * 1000.0 + PM.serviceMs(KiB32, P.MaxRpm, false),
              1e-6);
  EXPECT_EQ(D.stats().SpinDowns, 1u);
  EXPECT_EQ(D.stats().SpinUps, 1u);
}

TEST(DiskTest, TpmShortGapNoTransition) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::Tpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  D.submit(C1 + 5000.0, 0, KiB32, false);
  EXPECT_EQ(D.stats().SpinDowns, 0u);
  EXPECT_EQ(D.stats().SpinUps, 0u);
}

TEST(DiskTest, TpmEnergySavedOnLongGapVsBase) {
  DiskParams P;
  Disk Tpm(0, P, PowerPolicyKind::Tpm);
  Disk Base(1, P, PowerPolicyKind::None);
  double Gap = 300000.0; // 5 minutes
  for (Disk *D : {&Tpm, &Base}) {
    double C = D->submit(0.0, 0, KiB32, false);
    D->submit(C + Gap, 0, KiB32, false);
    D->finalize(C + Gap + 1000.0);
  }
  EXPECT_LT(Tpm.stats().EnergyJ, Base.stats().EnergyJ);
}

TEST(DiskTest, DrpmServicesSlowerAfterLongIdle) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Drpm);
  double C1 = D.submit(0.0, 0, KiB32, false);
  // Long gap: disk sinks to 3000 RPM and services the next request there.
  double Arrive = C1 + 120000.0;
  double C2 = D.submit(Arrive, 500 * 1024 * 1024, KiB32, false);
  EXPECT_NEAR(C2 - Arrive, PM.serviceMs(KiB32, P.MinRpm, false), 1e-6);
  EXPECT_GE(D.stats().RpmSteps, 4u);
}

TEST(DiskTest, DrpmRampBlocksDisk) {
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Drpm);
  double C = D.submit(0.0, 0, KiB32, false);
  C = D.submit(C + 120000.0, 500 * 1024 * 1024, KiB32, false); // at min now
  // Slow servicing drives the response EWMA over the ramp-up tolerance
  // within a few requests; the ramp transition occupies the disk, so the
  // next request waits for it.
  int Ramped = -1;
  for (int I = 0; I != 6 && Ramped < 0; ++I) {
    double BusyBefore = D.busyUntilMs();
    double C2 = D.submit(C, 0, KiB32, false);
    if (D.currentRpm() == P.MaxRpm) {
      Ramped = I;
      EXPECT_NEAR(D.busyUntilMs() - BusyBefore,
                  PM.serviceMs(KiB32, P.MinRpm, false) +
                      PM.rpmTransitionMs(4),
                  1e-6);
    }
    C = C2;
  }
  ASSERT_GE(Ramped, 0) << "EWMA never crossed the ramp-up tolerance";
}

TEST(DiskTest, FinalizeIntegratesTrailingIdle) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(0.0, 0, KiB32, false);
  double Before = D.stats().EnergyJ;
  D.finalize(C + 10000.0);
  EXPECT_NEAR(D.stats().EnergyJ - Before, 10.2 * 10.0, 1e-9);
}

TEST(DiskTest, FinalizeBeforeBusyEndIsNoop) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(0.0, 0, KiB32, false);
  double Before = D.stats().EnergyJ;
  D.finalize(C - 0.5);
  EXPECT_DOUBLE_EQ(D.stats().EnergyJ, Before);
}

TEST(DiskTest, IdleHistogramRecordsGaps) {
  DiskParams P;
  Disk D(0, P, PowerPolicyKind::None);
  double C = D.submit(0.0, 0, KiB32, false);
  C = D.submit(C + 2000.0, 0, KiB32, false);
  D.finalize(C + 8000.0);
  EXPECT_EQ(D.stats().IdleHist.totalCount(), 2u);
  EXPECT_NEAR(D.stats().IdleMsTotal, 10000.0, 1e-6);
}

TEST(DiskTest, EnergyConservationAgainstManualTimeline) {
  // Full manual cross-check of a 3-request TPM timeline.
  DiskParams P;
  PowerModel PM(P);
  Disk D(0, P, PowerPolicyKind::Tpm);
  double Svc = PM.serviceMs(KiB32, P.MaxRpm, false);
  double SeqSvc = PM.serviceMs(KiB32, P.MaxRpm, true);
  double ActiveW = PM.activePowerW(P.MaxRpm);

  double C1 = D.submit(1000.0, 0, KiB32, false);        // idle 1 s first
  double C2 = D.submit(C1 + 2000.0, KiB32, KiB32, false); // 2 s gap, seq
  double Gap3 = 100000.0;                                 // spin down + up
  double C3 = D.submit(C2 + Gap3, 0, KiB32, false);
  D.finalize(C3);

  double Expected = 10.2 * 1.0 + ActiveW * Svc / 1000.0 // req 1
                    + 10.2 * 2.0 + ActiveW * SeqSvc / 1000.0 // req 2
                    + 10.2 * P.TpmBreakEvenS + 13.0          // idle + down
                    + 2.5 * (Gap3 / 1000.0 - P.TpmBreakEvenS - P.SpinDownS)
                    + 135.0                               // spin up
                    + ActiveW * Svc / 1000.0;             // req 3 (random)
  EXPECT_NEAR(D.stats().EnergyJ, Expected, 1e-6);
}

// The oracle behind the one timing model: a Disk with every accounting
// sink attached (attribution, timeline, tracer) must time a fragment
// stream exactly as a bare DiskTimingModel does — completions, busy-until
// and RPM bit-for-bit, through TPM spin-downs, DRPM step-downs and
// emergency ramps, and the finalize tail.
TEST(DiskTest, AccountingNeverChangesTiming) {
  DiskParams P;
  P.SeqSeekMs = 0.5; // Let sequential runs shorten service.
  double BreakEvenMs = P.TpmBreakEvenS * 1000.0;
  for (PowerPolicyKind Policy :
       {PowerPolicyKind::None, PowerPolicyKind::Tpm, PowerPolicyKind::Drpm}) {
    unsigned Ramps = 0, SpinDowns = 0, StepDowns = 0;
    for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
      SCOPED_TRACE(testing::Message() << "policy " << unsigned(Policy)
                                      << " seed " << Seed);
      std::mt19937_64 Rng(Seed);
      EventTracer Tracer;
      uint64_t Pid = Tracer.addProcess("oracle");
      TimelineRecorder TL(500.0);
      TL.beginRun("oracle", 1);
      Disk D(0, P, Policy, &Tracer, Pid, /*Attribution=*/true, &TL);
      DiskTimingModel M(P, Policy);
      auto CountGap = [&](double, double, const IdleOutcome &O) {
        SpinDowns += O.SpinDowns;
        StepDowns += O.RpmSteps;
      };

      double Arrival = 0.0;
      uint64_t Offset = 0;
      for (unsigned I = 0; I != 300; ++I) {
        // Mostly bursts that queue, some gaps that let DRPM step down, and
        // gaps on both sides of the TPM break-even.
        switch (Rng() % 10) {
        case 0:
          Arrival += BreakEvenMs * (0.5 + double(Rng() % 1000) / 1000.0);
          break;
        case 1:
        case 2:
          Arrival += 1000.0 + double(Rng() % 9000);
          break;
        default:
          Arrival += double(Rng() % 4000) / 1000.0;
          break;
        }
        if (Rng() % 3 != 0)
          Offset = (Rng() % 100000) * 4096; // Otherwise sequential.
        uint64_t Bytes = 4096 * (1 + Rng() % 64);
        Provenance Prov;
        Prov.Nest = uint32_t(Rng() % 3);
        Prov.Ref = uint32_t(Rng() % 4);
        Prov.Round = I / 50;

        double C = D.submit(Arrival, Offset, Bytes, Rng() % 3 == 0, Prov);
        ServiceSpan Sp =
            M.submit(Arrival, Offset, Bytes, /*WantSegments=*/false, CountGap);
        Ramps += Sp.RampLevels != 0;
        ASSERT_EQ(C, Sp.CompletionMs) << "fragment " << I;
        ASSERT_EQ(D.busyUntilMs(), M.busyUntilMs()) << "fragment " << I;
        ASSERT_EQ(D.currentRpm(), M.currentRpm()) << "fragment " << I;
        Offset += Bytes;
      }
      double EndMs = M.busyUntilMs() + 2.0 * BreakEvenMs;
      D.finalize(EndMs);
      M.finalize(EndMs, /*WantSegments=*/false, CountGap);
      TL.endRun(EndMs);
      EXPECT_EQ(D.busyUntilMs(), M.busyUntilMs());
      EXPECT_EQ(D.currentRpm(), M.currentRpm());
      EXPECT_EQ(D.stats().NumRequests, 300u);
    }
    // The streams must exercise what each policy can do.
    if (Policy == PowerPolicyKind::Tpm) {
      EXPECT_GT(SpinDowns, 0u);
    }
    if (Policy == PowerPolicyKind::Drpm) {
      EXPECT_GT(StepDowns, 0u);
      EXPECT_GT(Ramps, 0u);
    }
  }
}
