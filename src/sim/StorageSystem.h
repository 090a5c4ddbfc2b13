//===- sim/StorageSystem.h - Striped multi-disk storage ---------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The array of I/O nodes behind the striped layout. Logical requests are
/// split into per-node fragments exactly as the paper's simulator does with
/// its striping information; a request completes when its last fragment
/// completes. When the layout declares DisksPerNode > 1, each node is
/// modeled as a RAID-0 group: its transfer rate and all power/energy
/// figures scale with the group size (the hidden second striping level of
/// Sec. 2).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_STORAGESYSTEM_H
#define DRA_SIM_STORAGESYSTEM_H

#include "layout/DiskLayout.h"
#include "sim/Disk.h"
#include "sim/StorageCache.h"

#include <vector>

namespace dra {

/// All I/O nodes of the machine plus the request splitting logic and the
/// optional storage cache in front of the disks.
class StorageSystem {
public:
  /// \param Trace optional event tracer: every disk gets a named thread
  ///        track under process \p TracePid (see Disk).
  /// \param Attribution when true every disk also charges its energy to
  ///        the submitting requests' provenance keys (sim/Attribution.h).
  /// \param Timeline optional windowed time-series recorder; every disk
  ///        records into the recorder's current run (obs/Timeline.h).
  StorageSystem(const DiskLayout &Layout, const DiskParams &Params,
                PowerPolicyKind Policy, CacheConfig Cache = CacheConfig(),
                EventTracer *Trace = nullptr, uint64_t TracePid = 0,
                bool Attribution = false,
                TimelineRecorder *Timeline = nullptr);

  /// Submits a logical request; returns the completion time of its last
  /// fragment. Every fragment inherits the request's provenance \p Prov.
  double submit(double ArrivalMs, uint64_t GlobalOffset, uint64_t Bytes,
                bool IsWrite, Provenance Prov = Provenance());

  /// Finalizes every disk at \p EndMs.
  void finalize(double EndMs);

  unsigned numDisks() const { return unsigned(Disks.size()); }
  const Disk &disk(unsigned D) const { return Disks[D]; }
  const DiskLayout &layout() const { return Layout; }
  const CacheStats &cacheStats() const { return Cache.stats(); }

  /// Scales per-disk parameters to model a DisksPerNode-way RAID-0 node.
  static DiskParams scaleForNode(DiskParams P, unsigned DisksPerNode);

private:
  const DiskLayout &Layout;
  std::vector<Disk> Disks;
  StorageCache Cache;
  double NowMs = 0.0; ///< Arrival time of the in-flight submit (for PA-LRU).
  /// Reused fragment buffer for splitRequestInto: replay submits millions
  /// of requests, so the per-request split must not allocate.
  std::vector<SubRequest> SplitScratch;
};

} // namespace dra

#endif // DRA_SIM_STORAGESYSTEM_H
