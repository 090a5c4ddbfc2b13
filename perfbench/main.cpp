//===- perfbench/main.cpp - End-to-end and per-layer benchmark --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// One process runs one workload closed-loop (one op at a time, the next
// starting when the previous returns) and prints its metrics as the last
// line of stdout. Usage:
//
//   dra-perfbench --workload <paper_matrix|disks_1024|online_session>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--reference <file>] [--spans-out <file>]
//   dra-perfbench --digests --workload <w> --seed <n>
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that decomposes each op into layer spans recorded from this
// file around the library's public calls, runs the layer probes (on/off
// differentials, serial-vs-sharded replay) and the cross-checks, and
// reports the per-layer metrics. --digests runs one pass and prints the
// per-op export digests the reference file pins. perfbench/GLOSSARY.md
// defines every workload and metric.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "apps/Apps.h"
#include "frontend/Parser.h"
#include "ir/ProgramBuilder.h"
#include "obs/RunReport.h"
#include "obs/Timeline.h"
#include "serve/SessionRunner.h"
#include "sim/ShardedSimEngine.h"
#include "sim/SimEngine.h"
#include "support/Json.h"
#include "trace/TenantMerge.h"
#include "trace/TraceGenerator.h"
#include "verify/EnergyAuditor.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

using namespace dra;
using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool SanitizerMacro = true;
#else
constexpr bool SanitizerMacro = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool Optimized = true;
#else
constexpr bool Optimized = false;
#endif

/// Timed ops needed before op_ms_p90 has at least ten samples beyond it.
constexpr size_t MinTimedOps = 100;
/// Set-ups per run (setup_s is their median): at least SetupMinReps, and
/// more until SetupMinS of set-up time has been measured, so a set-up of a
/// fraction of a millisecond still yields a steady median.
constexpr unsigned SetupMinReps = 5;
constexpr unsigned SetupMaxReps = 1000;
constexpr double SetupMinS = 1.0;
/// Hard stop for the timed loop, whatever --seconds asks for.
constexpr double MaxLoopS = 150.0;
/// Host steal (share of the vCPUs' busy time) above which a run's timings
/// are flagged as taken in a different host phase (perfbench/NOTES.md).
constexpr double StealWarnPct = 10.0;

//===----------------------------------------------------------------------===//
// What one op produced
//===----------------------------------------------------------------------===//

struct OpResult {
  double Ms = 0.0;          ///< Host wall time of the op alone.
  uint64_t Requests = 0;    ///< Simulated requests completed.
  uint64_t TraceBytes = 0;  ///< Bytes the simulated requests moved.
  uint64_t Rounds = 0;      ///< Fig. 3 scheduler rounds.
  uint64_t Ticks = 0;       ///< Serving ticks executed.
  uint64_t AdHoc = 0;       ///< Ad-hoc object requests served.
  double EnergyJ = 0.0;     ///< Simulated energy.
  double SimMs = 0.0;       ///< Simulated execution time.
  uint64_t Digest = 0;      ///< FNV-1a over every export of the op.
  std::string Error;        ///< Non-empty when a check failed.
};

/// Ledger closure (EnergyAuditor's rule) and request counts against the
/// trace the op replayed. Runs after the op's clock stopped.
void checkSim(const SchemeRun &R, OpResult &Out) {
  DiagnosticEngine DE;
  if (!EnergyAuditor(R.Sim, DE).verify())
    Out.Error = "energy ledger does not close";
  else if (R.Sim.NumRequests != R.TraceRequests)
    Out.Error = "simulated " + std::to_string(R.Sim.NumRequests) +
                " requests, trace has " + std::to_string(R.TraceRequests);
  Out.Requests = R.Sim.NumRequests;
  Out.TraceBytes = R.TraceBytes;
  Out.Rounds = R.SchedulerRounds;
  Out.EnergyJ = R.Sim.EnergyJ;
  Out.SimMs = R.Sim.WallTimeMs;
}

void digestExports(const std::vector<std::string> &Exports, OpResult &Out) {
  uint64_t H = fnv1a("");
  for (const std::string &E : Exports)
    H = fnv1a("\n", fnv1a(E, H));
  Out.Digest = H;
}

/// The three per-run documents every batch-shaped op exports.
std::vector<std::string> renderRunDocs(Spans *S, const PipelineConfig &Cfg,
                                       const std::vector<AppResults> &Apps,
                                       const std::string &Source) {
  std::vector<std::string> Out(3);
  {
    Span _(S, "obs.report_json");
    Out[0] = renderRunReportJson(Cfg, Apps, Source);
    _.setWork(Out[0].size());
  }
  {
    Span _(S, "obs.ledger_json");
    Out[1] = renderLedgerReportJson(Cfg, Apps, Source);
    _.setWork(Out[1].size());
  }
  {
    Span _(S, "obs.attrib_json");
    Out[2] = renderAttribReportJson(Cfg, Apps, Source);
    _.setWork(Out[2].size());
  }
  return Out;
}

/// A workload: inputs built in set-up, a fixed list of ops making one pass.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds every input from \p Seed; spans go to \p S when tracing.
  virtual void setup(uint64_t Seed, Spans *S) = 0;
  virtual size_t numOps() const = 0;
  virtual std::string opKey(size_t I) const = 0;
  /// Runs op \p I, recording its layer spans into \p S when non-null.
  virtual OpResult run(size_t I, Spans *S) = 0;
  /// Traced-run layer probes of op \p I, outside its op span. Returns a
  /// non-empty message when a cross-check fails.
  virtual std::string probe(size_t I, Spans &S) = 0;

  /// Set for the traced run after its warm-up pass: an op whose library
  /// call has no layer boundaries to time (Pipeline::run) runs as its
  /// layer calls instead, traced or not, so both sides of
  /// trace_overhead_pct execute the same code. The outputs are the same
  /// and checked against the warm-up pass.
  bool Decompose = false;
};

//===----------------------------------------------------------------------===//
// paper_matrix: the six Table 2 apps x all seven schemes, 4 procs, scale 1
//===----------------------------------------------------------------------===//

DiskParams hintedParams(DiskParams P, Scheme S) {
  // Pipeline::run gives the restructured versions the compiler's proactive
  // power hints; the decomposed op must simulate the same machine.
  if (schemeRestructures(S) && schemePolicy(S) == PowerPolicyKind::Tpm)
    P.TpmProactiveHints = true;
  if (schemeRestructures(S) && schemePolicy(S) == PowerPolicyKind::Drpm)
    P.DrpmProactiveHints = true;
  return P;
}

class PaperMatrix : public Workload {
public:
  void setup(uint64_t, Spans *S) override {
    Pipes.clear();
    Names.clear();
    Cfg = paperConfig(4);
    // Results are identical for any worker count (PipelineConfig); one
    // worker keeps every op single-threaded on a small host.
    Cfg.GraphWorkers = 1;
    for (const AppUnderTest &App : paperApps(1.0)) {
      Program P = App.Build();
      Span _(S, "core.pipeline_build");
      Pipes.push_back(std::make_unique<Pipeline>(P, Cfg));
      _.setWork(Pipes.back()->space().size());
      Names.push_back(App.Name);
    }
    Schemes = allSchemes();
  }

  size_t numOps() const override { return Pipes.size() * Schemes.size(); }

  std::string opKey(size_t I) const override {
    return Names[I / Schemes.size()] + "/" +
           schemeName(Schemes[I % Schemes.size()]);
  }

  OpResult run(size_t I, Spans *S) override {
    const Pipeline &Pipe = *Pipes[I / Schemes.size()];
    Scheme Sch = Schemes[I % Schemes.size()];
    OpResult Out;
    Clock::time_point T0 = Clock::now();
    std::vector<AppResults> Apps(1);
    Apps[0].Name = Names[I / Schemes.size()];
    std::vector<std::string> Docs;
    {
      Span Op(S, "op");
      Apps[0].Runs.push_back(Decompose ? decomposedRun(Pipe, Sch, S)
                                       : Pipe.run(Sch));
      Docs = renderRunDocs(S, Cfg, Apps, "paper_matrix");
    }
    Out.Ms = msSince(T0);
    checkSim(Apps[0].Runs[0], Out);
    digestExports(Docs, Out);
    return Out;
  }

  std::string probe(size_t I, Spans &S) override {
    // Attribution-off replay of the trace the traced op just simulated:
    // sim.replay_ms, and with the op's attributed replay sim.attribution_ms.
    Scheme Sch = Schemes[I % Schemes.size()];
    const Pipeline &Pipe = *Pipes[I / Schemes.size()];
    Span _(&S, "sim.replay", LastTrace.size());
    SimEngine E(Pipe.layout(), hintedParams(Cfg.Disk, Sch), schemePolicy(Sch),
                Cfg.Cache, nullptr, "sim", /*Attribution=*/false);
    SimResults R = E.run(LastTrace);
    return R.NumRequests == LastTrace.size() ? "" : "attribution-off replay "
                                                    "lost requests";
  }

private:
  /// Pipeline::run(S) as its three layers, each in its own span.
  SchemeRun decomposedRun(const Pipeline &Pipe, Scheme Sch, Spans *S) {
    ScheduledWork Work;
    {
      Span _(S, "core.compile", Pipe.space().size());
      Work = Pipe.compile(Sch);
    }
    {
      Span _(S, "trace.generate");
      TraceGenerator Gen(Pipe.program(), Pipe.space(), Pipe.layout(),
                         Cfg.BlockBytes, &Pipe.table());
      LastTrace = Gen.generate(Work);
      _.setWork(LastTrace.size());
    }
    SchemeRun Run;
    Run.S = Sch;
    {
      Span _(S, "sim.replay_attrib", LastTrace.size());
      SimEngine E(Pipe.layout(), hintedParams(Cfg.Disk, Sch),
                  schemePolicy(Sch), Cfg.Cache, nullptr, "sim",
                  Cfg.Attribution);
      Run.Sim = E.run(LastTrace);
    }
    {
      Span _(S, "core.locality");
      Run.AttribNames = attributionNamesOf(Pipe.program());
      for (uint32_t R : Work.RoundOf)
        Run.SchedulerRounds = std::max(Run.SchedulerRounds, unsigned(R) + 1);
      Run.TraceRequests = LastTrace.size();
      Run.TraceBytes = LastTrace.totalBytes();
      Schedule Proc0;
      if (!Work.PerProc.empty())
        Proc0.Order = std::move(Work.PerProc[0]);
      Run.Locality = Proc0.locality(Pipe.table(), Pipe.layout());
    }
    return Run;
  }

  PipelineConfig Cfg;
  std::vector<std::unique_ptr<Pipeline>> Pipes;
  std::vector<std::string> Names;
  std::vector<Scheme> Schemes;
  Trace LastTrace;
};

//===----------------------------------------------------------------------===//
// disks_1024: 1024 disks, 4 tenants x 8 procs of power-law heat, 2 shards
//===----------------------------------------------------------------------===//

constexpr unsigned NumDisks = 1024;
constexpr unsigned NumTenants = 4;
constexpr unsigned ProcsPerTenant = 8;
constexpr int64_t TilesPerTenant = 4096;
constexpr unsigned NumPhases = 4;
// Half of bench/sharded_sim's 400: an op (replay + four exports) takes about
// 300 ms on a 4-thread host, so a 35 s run times the 100 ops op_ms_p90 needs.
constexpr size_t RequestsPerProc = 200;
constexpr uint64_t StripeBytes = 32 * 1024;
constexpr uint64_t PageBytes = 4096;
constexpr unsigned Shards = 2;

/// One tenant of the bench/sharded_sim scenario: a 1-D tiled array striped
/// over all disks and a closed-loop trace whose tile choice follows a
/// power-law heat curve (U^3 puts ~87% of accesses on the first eighth).
struct Tenant {
  Program P;
  DiskLayout Layout;
  Trace Replay;

  Tenant(const std::string &Name, const StripingConfig &C, uint64_t Seed)
      : P(makeProgram(Name)), Layout(P, C), Replay(ProcsPerTenant, PageBytes) {
    std::mt19937_64 Rng(Seed);
    std::uniform_real_distribution<double> HeatD(0.0, 1.0);
    std::uniform_int_distribution<int> SizeD(1, 3);
    std::uniform_real_distribution<double> ThinkD(0.0, 25.0);
    std::uniform_int_distribution<int> WriteD(0, 4);
    std::uniform_int_distribution<uint32_t> RefD(0, 1);
    for (uint32_t Proc = 0; Proc != ProcsPerTenant; ++Proc) {
      for (size_t I = 0; I != RequestsPerProc; ++I) {
        double U = HeatD(Rng);
        auto Tile = int64_t(double(TilesPerTenant - 4) * U * U * U);
        Request R;
        R.StartBlock = uint64_t(Tile) * StripeBytes / PageBytes;
        R.SizeBytes = uint64_t(SizeD(Rng)) * StripeBytes;
        R.IsWrite = WriteD(Rng) == 0;
        R.Proc = Proc;
        R.ThinkMs = ThinkD(Rng);
        R.Phase = uint32_t(I * NumPhases / RequestsPerProc);
        if (I % 6 != 5) // every sixth request stays unattributed
          R.Prov = Provenance{0, RefD(Rng), uint32_t(I % 2)};
        Replay.addRequest(R);
      }
    }
  }

  static Program makeProgram(const std::string &Name) {
    ProgramBuilder B(Name);
    ArrayId U = B.addArray("U", {TilesPerTenant});
    B.beginNest("scan", 1.0).loop(0, TilesPerTenant).read(U, {iv(0)}).endNest();
    return B.build();
  }
};

class Disks1024 : public Workload {
public:
  void setup(uint64_t Seed, Spans *S) override {
    StripingConfig C;
    C.StripeFactor = NumDisks;
    const char *Labels[NumTenants] = {"olap", "ingest", "backup", "scratch"};
    std::vector<Tenant> Tenants;
    Tenants.reserve(NumTenants);
    std::seed_seq SS{uint64_t(Seed), uint64_t(0x1024)};
    std::vector<uint64_t> TenantSeeds(NumTenants);
    SS.generate(TenantSeeds.begin(), TenantSeeds.end());
    for (unsigned T = 0; T != NumTenants; ++T)
      Tenants.emplace_back(Labels[T], C, TenantSeeds[T]);
    std::vector<TenantInput> In(NumTenants);
    for (unsigned T = 0; T != NumTenants; ++T) {
      In[T].Label = Labels[T];
      In[T].Prog = &Tenants[T].P;
      In[T].Replay = &Tenants[T].Replay;
      In[T].Layout = &Tenants[T].Layout;
      In[T].Names = attributionNamesOf(Tenants[T].P);
      In[T].StartMs = 250.0 * T;
    }
    Span _(S, "trace.tenant_merge", NumTenants * ProcsPerTenant *
                                        RequestsPerProc);
    W = std::make_unique<MergedWorkload>(mergeTenants(In));
    Cfg = PipelineConfig();
    Cfg.NumProcs = W->Replay.numProcs();
    Cfg.Attribution = true;
  }

  size_t numOps() const override { return 3; }

  std::string opKey(size_t I) const override { return schemeName(scheme(I)); }

  OpResult run(size_t I, Spans *S) override {
    OpResult Out;
    Clock::time_point T0 = Clock::now();
    std::vector<AppResults> Apps(1);
    std::vector<std::string> Docs;
    {
      Span Op(S, "op");
      TimelineRecorder TL(1000.0);
      Apps[0] = replay(I, S, "sim.sharded_replay", Shards, true, &TL);
      Docs = renderAll(S, Apps, TL);
    }
    Out.Ms = msSince(T0);
    checkSim(Apps[0].Runs[0], Out);
    digestExports(Docs, Out);
    if (S)
      LastDocs = std::move(Docs);
    return Out;
  }

  std::string probe(size_t I, Spans &S) override {
    // Cross-check: the serial engine with the same sinks must export the
    // 2-shard op's documents byte for byte.
    std::vector<std::string> Serial;
    {
      TimelineRecorder TL(1000.0);
      std::vector<AppResults> Apps(1);
      Apps[0] = replay(I, &S, "sim.serial_replay", 0, true, &TL);
      Serial = renderAll(nullptr, Apps, TL);
    }
    if (Serial != LastDocs)
      return std::string("2-shard exports differ from the serial engine's "
                         "for ") +
             schemeName(scheme(I));
    // On/off differentials: timeline recording, attribution, and the
    // serial attribution-off replay that sim.replay_ms reports.
    replay(I, &S, "sim.sharded_replay_notl", Shards, true, nullptr);
    replay(I, &S, "sim.sharded_replay_noattr", Shards, false, nullptr);
    replay(I, &S, "sim.replay", 0, false, nullptr);
    return "";
  }

private:
  static Scheme scheme(size_t I) {
    static const Scheme Rotation[] = {Scheme::Base, Scheme::Tpm, Scheme::Drpm};
    return Rotation[I];
  }

  /// One replay of the merged trace; \p Shards == 0 is the serial engine.
  AppResults replay(size_t I, Spans *S, const char *SpanName, unsigned NShards,
                    bool Attribution, TimelineRecorder *TL) {
    AppResults App;
    App.Name = "multitenant";
    SchemeRun Run;
    Run.S = scheme(I);
    Run.AttribNames = Attribution ? W->Names : AttributionNames();
    Run.TraceRequests = W->Replay.size();
    Run.TraceBytes = W->Replay.totalBytes();
    DiskParams Disk;
    PowerPolicyKind Policy = schemePolicy(Run.S);
    Span _(S, SpanName, W->Replay.size());
    if (NShards == 0) {
      SimEngine E(W->Layout, Disk, Policy, CacheConfig(), nullptr, "sim",
                  Attribution, TL);
      Run.Sim = E.run(W->Replay);
    } else {
      ShardedSimEngine E(W->Layout, Disk, Policy, NShards, 0.0, CacheConfig(),
                         nullptr, "sim", Attribution, TL);
      Run.Sim = E.run(W->Replay);
    }
    App.Runs.push_back(std::move(Run));
    return App;
  }

  std::vector<std::string> renderAll(Spans *S,
                                     const std::vector<AppResults> &Apps,
                                     const TimelineRecorder &TL) {
    std::vector<std::string> Docs = renderRunDocs(S, Cfg, Apps, "disks_1024");
    Span _(S, "obs.timeline_json");
    Docs.push_back(renderTimelineJson(TL, "disks_1024"));
    _.setWork(Docs.back().size());
    return Docs;
  }

  std::unique_ptr<MergedWorkload> W;
  PipelineConfig Cfg;
  std::vector<std::string> LastDocs;
};

//===----------------------------------------------------------------------===//
// online_session: seeded dra-stream-v1 documents through the serving mode
//===----------------------------------------------------------------------===//

constexpr unsigned SessionDocs = 4;
constexpr unsigned SessionSide = 40; // 2 nests x 40 x 40 = 3200 iterations
constexpr unsigned SessionFrames = 12;
constexpr unsigned SessionObjects = 6;

/// Two dependence-coupled nests: consumer (i0,i1) reads what producer
/// (i1,i0) wrote, so incremental ticks have real dependence gating.
std::string sessionProgram() {
  std::string N = std::to_string(SessionSide);
  std::string Hi = std::to_string(SessionSide - 1);
  return "program online\narray A[" + N + "][" + N + "]\narray B[" + N +
         "][" + N +
         "]\nnest producer compute 2.0 {\n  for i0 = 0 .. " + Hi +
         "\n  for i1 = 0 .. " + Hi +
         "\n  read A[i0][i1]\n  write B[i0][i1]\n}\n"
         "nest consumer compute 2.0 {\n  for i0 = 0 .. " + Hi +
         "\n  for i1 = 0 .. " + Hi +
         "\n  read B[i1][i0]\n  write A[i0][i1]\n}\n";
}

/// One seeded session document: shuffled exec chunks from several clients
/// over SessionFrames ticks, a tick budget that spreads the work over tens
/// of ticks, and write/read/delete traffic on ad-hoc objects.
std::string makeSessionDoc(std::mt19937_64 &Rng, const char *SchemeName) {
  const uint64_t Iters = 2ull * SessionSide * SessionSide;
  std::vector<std::pair<uint64_t, uint64_t>> Chunks; // (first, count)
  for (uint64_t First = 0; First < Iters;) {
    uint64_t Count = std::min<uint64_t>(Iters - First, 32 + Rng() % 129);
    Chunks.push_back({First, Count});
    First += Count;
  }
  std::shuffle(Chunks.begin(), Chunks.end(), Rng);

  // Frame f's request lines, in arrival order.
  std::vector<std::vector<std::string>> Frames(SessionFrames);
  for (size_t C = 0; C != Chunks.size(); ++C) {
    // Spread arrivals over the first three quarters of the frames.
    size_t F = C * (SessionFrames * 3 / 4) / Chunks.size();
    Frames[F].push_back("{\"client\": " + std::to_string(1 + Rng() % 6) +
                        ", \"op\": \"exec\", \"first\": " +
                        std::to_string(Chunks[C].first) +
                        ", \"count\": " + std::to_string(Chunks[C].second) +
                        "}");
  }
  for (unsigned O = 0; O != SessionObjects; ++O) {
    std::string Obj = "\"obj" + std::to_string(O) + "\"";
    std::string Client = std::to_string(10 + O);
    unsigned WriteF = unsigned(Rng() % (SessionFrames - 3));
    unsigned ReadF = WriteF + 1 + unsigned(Rng() % (SessionFrames - 2 - WriteF));
    unsigned DelF = ReadF + 1 + unsigned(Rng() % (SessionFrames - 1 - ReadF));
    Frames[WriteF].push_back("{\"client\": " + Client +
                             ", \"op\": \"write\", \"object\": " + Obj +
                             ", \"tiles\": " + std::to_string(1 + Rng() % 4) +
                             "}");
    Frames[ReadF].push_back("{\"client\": " + Client +
                            ", \"op\": \"read\", \"object\": " + Obj + "}");
    Frames[DelF].push_back("{\"client\": " + Client +
                           ", \"op\": \"delete\", \"object\": " + Obj + "}");
  }

  std::string Src = sessionProgram();
  std::string Doc = "{\"schema\": \"dra-stream-v1\", \"program\": {\"source\": " +
                    jsonQuote(Src) + "}, \"config\": {\"scheme\": \"" +
                    SchemeName +
                    "\", \"stripe_factor\": 8, \"stripe_unit_kb\": 32, "
                    "\"tick_budget\": " +
                    std::to_string(Iters / 32) +
                    ", \"scratch_tiles\": 32}, \"ticks\": [";
  uint64_t Tick = 0;
  for (unsigned F = 0; F != SessionFrames; ++F) {
    Tick += F == 0 ? 0 : 1 + Rng() % 2;
    Doc += F ? ", " : "";
    Doc += "{\"tick\": " + std::to_string(Tick) + ", \"requests\": [";
    for (size_t R = 0; R != Frames[F].size(); ++R)
      Doc += (R ? ", " : "") + Frames[F][R];
    Doc += "]}";
  }
  return Doc + "]}\n";
}

class OnlineSession : public Workload {
public:
  void setup(uint64_t Seed, Spans *) override {
    static const char *Schemes[SessionDocs] = {"T-TPM-s", "T-DRPM-s", "TPM",
                                               "DRPM"};
    std::mt19937_64 Rng(Seed ^ 0x5e55'1011ull);
    Docs.clear();
    for (const char *S : Schemes)
      Docs.push_back(makeSessionDoc(Rng, S));
    Configs.assign(SessionDocs, PipelineConfig());
    Sources.assign(SessionDocs, "");
  }

  size_t numOps() const override { return Docs.size(); }

  std::string opKey(size_t I) const override {
    return "doc" + std::to_string(I);
  }

  OpResult run(size_t I, Spans *S) override {
    OpResult Out;
    Clock::time_point T0 = Clock::now();
    std::vector<AppResults> Apps(1);
    std::string Report;
    SessionResult R;
    {
      Span Op(S, "op");
      DiagnosticEngine DE;
      std::optional<StreamSession> Session;
      {
        Span _(S, "serve.stream_parse", Docs[I].size());
        Session = parseStreamSession(Docs[I], DE);
      }
      if (!Session) {
        Out.Error = "stream document rejected";
        return Out;
      }
      Sources[I] = Session->ProgramSource;
      SessionRunner Runner(std::move(*Session), DE);
      {
        Span _(S, "serve.session_run");
        R = Runner.run();
        _.setWork(R.Ticks.size());
      }
      if (!R.Ok) {
        Out.Error = "session failed";
        return Out;
      }
      Configs[I] = Runner.pipelineConfig();
      Apps[0].Name = R.ProgramName;
      Apps[0].FootprintJson = R.FootprintJson;
      Apps[0].Runs.push_back(std::move(R.Run));
      Span _(S, "obs.report_json");
      Report = renderRunReportJson(Configs[I], Apps, "online_session");
      _.setWork(Report.size());
    }
    Out.Ms = msSince(T0);
    checkSim(Apps[0].Runs[0], Out);
    Out.Ticks = R.Ticks.size();
    Out.AdHoc = R.AdHocRequests;
    digestExports({Report}, Out);
    return Out;
  }

  std::string probe(size_t I, Spans &S) override {
    // The session binds its program through the frontend and the batch
    // pipeline inside SessionRunner::run; time those two calls on the
    // op's own source and configuration.
    std::string Error;
    std::optional<Program> P;
    {
      Span _(&S, "frontend.parse", Sources[I].size());
      P = Parser::parse(Sources[I], Error);
    }
    if (!P)
      return "session program does not parse: " + Error;
    Span _(&S, "core.pipeline_build");
    Pipeline Pipe(*P, Configs[I]);
    _.setWork(Pipe.space().size());
    return "";
  }

private:
  std::vector<std::string> Docs;
  std::vector<std::string> Sources;
  std::vector<PipelineConfig> Configs;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "paper_matrix")
    return std::make_unique<PaperMatrix>();
  if (Name == "disks_1024")
    return std::make_unique<Disks1024>();
  if (Name == "online_session")
    return std::make_unique<OnlineSession>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Command line, statistics and output
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  bool Digests = false;
  std::string Reference;
  std::string SpansOut;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: dra-perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--reference <file>] "
               "[--spans-out <file>] | --digests --workload <name> --seed "
               "<n>\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--digests") {
      O.Digests = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed takes a non-negative integer");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0.0) || O.Seconds > 120.0)
        usage("--seconds takes a number in (0, 120]");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--reference") {
      O.Reference = V;
    } else if (A == "--spans-out") {
      O.SpansOut = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (O.Workload.empty())
    usage("--workload is required");
  return O;
}

std::string fingerprintJson() {
  JsonWriter W;
  W.beginObject();
  W.key("nproc");
  W.value(uint64_t(std::thread::hardware_concurrency()));
  W.key("compiler");
  W.value(std::string("GCC ") + __VERSION__);
  W.key("build_type");
  W.value(PERFBENCH_BUILD_TYPE);
  W.key("cxx_flags");
  W.value(PERFBENCH_CXX_FLAGS);
  W.key("sanitizers");
  W.value(SanitizerMacro ||
                  std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr
              ? "on"
              : "none");
  W.endObject();
  return W.take();
}

/// Per-op reference digests for \p Seed from the reference file: the
/// "any_seed" table (workloads whose seed only orders ops) or the seed's
/// own table. Empty when the file does not pin this seed.
std::map<std::string, std::string>
loadReference(const Options &O, std::string &Error) {
  std::map<std::string, std::string> Out;
  if (O.Reference.empty())
    return Out;
  std::ifstream In(O.Reference);
  if (!In) {
    Error = "cannot read reference file " + O.Reference;
    return Out;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  JsonValue Doc;
  if (!parseJson(SS.str(), Doc, Error))
    return Out;
  const JsonValue *WL = Doc.find(O.Workload);
  if (!WL)
    return Out;
  const JsonValue *Table = WL->find("any_seed");
  if (!Table)
    Table = WL->find(std::to_string(O.Seed));
  if (Table && Table->isObject())
    for (const auto &[Key, V] : Table->Obj)
      if (V.isString())
        Out[Key] = V.Str;
  return Out;
}

/// Accumulates everything a run reports.
struct RunStats {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<double> OpMs;                       // timed ops, pooled
  std::map<std::string, std::vector<double>> KeyMs; // per op kind
  std::map<std::string, uint64_t> KeyRequests;
};

class Metrics {
public:
  void add(const std::string &Name, double V, const char *Unit) {
    Items.push_back({Name, V, Unit});
  }
  std::string json() const {
    std::string S = "{";
    for (size_t I = 0; I != Items.size(); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof Buf, "%.17g", Items[I].V);
      S += (I ? ", " : "") + jsonQuote(Items[I].Name) + ": {\"value\": " +
           Buf + ", \"unit\": " + jsonQuote(Items[I].Unit) + "}";
    }
    return S + "}";
  }
  void print(FILE *F) const {
    for (const Item &I : Items)
      std::fprintf(F, "  %-32s %16.6g %s\n", I.Name.c_str(), I.V, I.Unit);
  }

private:
  struct Item {
    std::string Name;
    double V;
    const char *Unit;
  };
  std::vector<Item> Items;
};

/// Machine-wide CPU time so far, in clock ticks, from the first line of
/// /proc/stat (user nice system idle iowait irq softirq steal; guest time
/// is already inside user): the time the hypervisor stole, and the time the
/// vCPUs ran or wanted to run (every field but idle and iowait). Both zero
/// when the file cannot be read.
struct CpuTicks {
  uint64_t Steal = 0;
  uint64_t Busy = 0;
};

CpuTicks cpuTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  if (!(In >> Cpu) || Cpu != "cpu")
    return {};
  CpuTicks T;
  for (int I = 0; I != 8; ++I) {
    uint64_t V = 0;
    if (!(In >> V))
      return {};
    if (I != 3 && I != 4)
      T.Busy += V;
    if (I == 7)
      T.Steal = V;
  }
  return T;
}

/// The `# load` record of the timed loop that began at \p A: the share of
/// the vCPUs' busy time the hypervisor stole while it ran, and its length.
std::string loadJson(const CpuTicks &A, double LoopS, double &StealPct) {
  CpuTicks B = cpuTicks();
  StealPct = B.Busy > A.Busy
                 ? 100.0 * double(B.Steal - A.Steal) / double(B.Busy - A.Busy)
                 : 0.0;
  char Buf[96];
  std::snprintf(Buf, sizeof Buf, "{\"steal_pct\": %.2f, \"loop_s\": %.1f}",
                StealPct, LoopS);
  return Buf;
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

int finish(const RunStats &St, const Metrics &M, const std::string &Why) {
  if (!Why.empty())
    std::fprintf(stderr, "perfbench: FAIL: %s\n", Why.c_str());
  bool Correct = St.Failed == 0 && Why.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              Correct ? "true" : "false", St.Attempted,
              St.Failed + (Why.empty() ? 0 : 1), M.json().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

/// Checks one op against the warm-up digest of its kind and the reference;
/// returns the failure message or "".
std::string verdict(const OpResult &R, const std::string &Key,
                    const std::map<std::string, uint64_t> &Warm,
                    const std::map<std::string, std::string> &Ref) {
  if (!R.Error.empty())
    return Key + ": " + R.Error;
  if (auto It = Warm.find(Key); It != Warm.end() && It->second != R.Digest)
    return Key + ": export digest " + hex64(R.Digest) +
           " differs from the first pass's " + hex64(It->second);
  if (auto It = Ref.find(Key); It != Ref.end() && It->second != hex64(R.Digest))
    return Key + ": export digest " + hex64(R.Digest) +
           " differs from the reference " + It->second;
  return "";
}

void writeSpans(const Options &O, const Spans &S, const std::string &Load) {
  if (O.SpansOut.empty())
    return;
  FILE *F = std::fopen(O.SpansOut.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.SpansOut.c_str());
    return;
  }
  std::fprintf(F, "{\"schema\": \"dra-perfbench-spans-v1\", \"workload\": %s, "
                  "\"seed\": %" PRIu64 ", \"host\": %s, \"load\": %s, "
                  "\"spans\": [\n",
               jsonQuote(O.Workload).c_str(), O.Seed, fingerprintJson().c_str(),
               Load.c_str());
  const std::vector<SpanRec> &Recs = S.records();
  for (size_t I = 0; I != Recs.size(); ++I)
    std::fprintf(F,
                 "%s{\"name\": %s, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"op\": %u, \"work\": %" PRIu64 "}",
                 I ? ",\n" : "", jsonQuote(Recs[I].Name).c_str(),
                 Recs[I].StartUs, Recs[I].EndUs, Recs[I].Parent, Recs[I].Op,
                 Recs[I].Work);
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
}

/// Per-layer metrics of a traced run from its spans.
void layerMetrics(const Spans &S, const std::vector<double> &UntracedMs,
                  const std::vector<double> &TracedMs, Metrics &M,
                  std::string &Why) {
  const std::vector<SpanRec> &Recs = S.records();
  std::vector<double> Self = S.selfTimesUs();
  std::map<std::string, double> TotUs;
  std::map<std::string, uint64_t> Calls, Work;
  std::map<std::string, double> InOpUs; // self time inside op spans
  std::vector<bool> InOp(Recs.size());
  double OpUs = 0.0, OpSelfUs = 0.0;
  for (size_t I = 0; I != Recs.size(); ++I) {
    const SpanRec &R = Recs[I];
    TotUs[R.Name] += Self[I];
    Calls[R.Name] += 1;
    Work[R.Name] += R.Work;
    // A parent is recorded before its children.
    InOp[I] = R.Name == "op" || (R.Parent >= 0 && InOp[size_t(R.Parent)]);
    if (InOp[I])
      InOpUs[R.Name] += Self[I];
    if (R.Name == "op") {
      OpUs += R.EndUs - R.StartUs;
      OpSelfUs += Self[I];
    }
  }
  // Each layer's share of traced op time (the op span's own self time is
  // what no layer span covers).
  std::fprintf(stderr, "perfbench: share of traced op time by span\n");
  for (const auto &[Name, Us] : InOpUs)
    std::fprintf(stderr, "  %-32s %7.2f%%\n", Name.c_str(),
                 OpUs > 0.0 ? 100.0 * Us / OpUs : 0.0);
  auto meanMs = [&](const char *N) {
    return Calls[N] ? TotUs[N] / 1000.0 / double(Calls[N]) : 0.0;
  };
  auto nsPer = [&](const char *N) {
    return Work[N] ? TotUs[N] * 1000.0 / double(Work[N]) : 0.0;
  };
  M.add("core.pipeline_build_ms", meanMs("core.pipeline_build"), "ms");
  M.add("core.build_ns_per_iter", nsPer("core.pipeline_build"), "ns");
  M.add("core.compile_ms", meanMs("core.compile"), "ms");
  M.add("core.compile_ns_per_iter", nsPer("core.compile"), "ns");
  M.add("trace.generate_ms", meanMs("trace.generate"), "ms");
  M.add("trace.generate_ns_per_request", nsPer("trace.generate"), "ns");
  M.add("trace.tenant_merge_ms", meanMs("trace.tenant_merge"), "ms");
  M.add("sim.replay_ms", meanMs("sim.replay"), "ms");
  M.add("sim.replay_ns_per_request", nsPer("sim.replay"), "ns");
  // Attribution on minus off, on the same trace and engine.
  double AttribMs = 0.0;
  if (Calls["sim.replay_attrib"])
    AttribMs = meanMs("sim.replay_attrib") - meanMs("sim.replay");
  else if (Calls["sim.sharded_replay_noattr"])
    AttribMs = meanMs("sim.sharded_replay_notl") -
               meanMs("sim.sharded_replay_noattr");
  M.add("sim.attribution_ms", AttribMs, "ms");
  double Serial = meanMs("sim.serial_replay");
  double Sharded = meanMs("sim.sharded_replay");
  M.add("sim.serial_replay_ms", Serial, "ms");
  M.add("sim.sharded_replay_ms", Sharded, "ms");
  M.add("sim.shard_speedup", Sharded > 0.0 ? Serial / Sharded : 0.0, "x");
  M.add("obs.timeline_record_ms",
        Calls["sim.sharded_replay_notl"]
            ? Sharded - meanMs("sim.sharded_replay_notl")
            : 0.0,
        "ms");
  double ExportUs = 0.0;
  uint64_t ExportBytes = 0;
  for (const char *N : {"obs.report_json", "obs.ledger_json",
                        "obs.attrib_json", "obs.timeline_json"}) {
    M.add(std::string(N) + "_ms", meanMs(N), "ms");
    ExportUs += TotUs[N];
    ExportBytes += Work[N];
  }
  uint64_t Ops = Calls["op"];
  M.add("obs.export_mb", Ops ? double(ExportBytes) / 1e6 / double(Ops) : 0.0,
        "MB");
  M.add("obs.export_mb_per_s",
        ExportUs > 0.0 ? double(ExportBytes) / ExportUs : 0.0, "MB/s");
  M.add("frontend.parse_ms", meanMs("frontend.parse"), "ms");
  M.add("serve.stream_parse_ms", meanMs("serve.stream_parse"), "ms");
  M.add("serve.session_run_ms", meanMs("serve.session_run"), "ms");
  M.add("serve.ms_per_tick",
        Work["serve.session_run"]
            ? TotUs["serve.session_run"] / 1000.0 /
                  double(Work["serve.session_run"])
            : 0.0,
        "ms");
  double Covered = OpUs > 0.0 ? 100.0 * (OpUs - OpSelfUs) / OpUs : 0.0;
  M.add("layer_self_coverage_pct", Covered, "%");
  double U = UntracedMs.empty() ? 0.0 : median(UntracedMs);
  double T = TracedMs.empty() ? 0.0 : median(TracedMs);
  M.add("trace_overhead_pct", U > 0.0 ? 100.0 * (T - U) / U : 0.0, "%");
  if (Ops == 0)
    Why = "the traced run completed no op";
  else if (Covered < 90.0)
    Why = "layer spans cover only " + std::to_string(Covered) +
          "% of traced op time";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    usage(("unknown workload '" + O.Workload + "'").c_str());
  std::string Host = fingerprintJson();
  if (SanitizerMacro || std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") ||
      !Optimized || std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a sanitizer or "
                         "unoptimized build: %s\n",
                 Host.c_str());
    return 2;
  }
  std::printf("# host %s\n", Host.c_str());
  std::string RefError;
  std::map<std::string, std::string> Ref = loadReference(O, RefError);
  if (!RefError.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", RefError.c_str());
    return 2;
  }

  Clock::time_point Start = Clock::now();
  std::unique_ptr<Spans> Tr = O.Trace ? std::make_unique<Spans>() : nullptr;
  std::vector<double> SetupS;
  double SetupTotalS = 0.0;
  while (SetupS.empty() ||
         (!O.Digests && SetupS.size() < SetupMaxReps &&
          (SetupS.size() < SetupMinReps || SetupTotalS < SetupMinS))) {
    W = makeWorkload(O.Workload);
    Clock::time_point T0 = Clock::now();
    W->setup(O.Seed, Tr.get());
    SetupS.push_back(msSince(T0) / 1000.0);
    SetupTotalS += SetupS.back();
  }

  RunStats St;
  Metrics M;
  std::mt19937_64 OrderRng(O.Seed);
  std::vector<size_t> Order(W->numOps());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;

  // Untimed warm-up pass: fills caches and lazy state, and records each op
  // kind's export digest, checked against the reference.
  std::map<std::string, uint64_t> Warm;
  OpResult PassSum; // exact work counts and simulated totals of one pass
  std::string Why;
  for (size_t I : Order) {
    OpResult R = W->run(I, nullptr);
    std::string Key = W->opKey(I);
    ++St.Attempted;
    if (std::string F = verdict(R, Key, Warm, Ref); !F.empty()) {
      std::fprintf(stderr, "perfbench: failed op %s\n", F.c_str());
      ++St.Failed;
    }
    Warm[Key] = R.Digest;
    St.KeyRequests[Key] = R.Requests;
    PassSum.Requests += R.Requests;
    PassSum.TraceBytes += R.TraceBytes;
    PassSum.Rounds += R.Rounds;
    PassSum.Ticks += R.Ticks;
    PassSum.AdHoc += R.AdHoc;
    PassSum.EnergyJ += R.EnergyJ;
    PassSum.SimMs += R.SimMs;
  }
  if (!Ref.empty() && Ref.size() != Warm.size())
    Why = "the reference pins " + std::to_string(Ref.size()) +
          " op kinds, the workload has " + std::to_string(Warm.size());

  if (O.Digests) {
    std::printf("{");
    size_t N = 0;
    for (const auto &[Key, D] : Warm)
      std::printf("%s%s: \"%s\"", N++ ? ", " : "", jsonQuote(Key).c_str(),
                  hex64(D).c_str());
    std::printf("}\n");
    return St.Failed == 0 ? 0 : 1;
  }

  auto runPass = [&](Spans *S, std::vector<double> &Into) {
    std::shuffle(Order.begin(), Order.end(), OrderRng);
    for (size_t I : Order) {
      if (S)
        S->setOp(uint32_t(St.Attempted + 1));
      OpResult R = W->run(I, S);
      std::string Key = W->opKey(I);
      ++St.Attempted;
      std::string F = verdict(R, Key, Warm, Ref);
      if (F.empty() && S)
        F = W->probe(I, *S);
      if (!F.empty()) {
        std::fprintf(stderr, "perfbench: failed op %s\n", F.c_str());
        ++St.Failed;
      }
      Into.push_back(R.Ms);
      if (!S)
        St.KeyMs[Key].push_back(R.Ms);
    }
  };

  CpuTicks Ticks0 = cpuTicks();
  Clock::time_point LoopT0 = Clock::now();
  auto elapsedS = [&] { return msSince(LoopT0) / 1000.0; };
  std::string LoadJson;
  double StealPct = 0.0;
  if (!O.Trace) {
    while ((elapsedS() < O.Seconds || St.OpMs.size() < MinTimedOps) &&
           elapsedS() < MaxLoopS)
      runPass(nullptr, St.OpMs);
    LoadJson = loadJson(Ticks0, elapsedS(), StealPct);
    if (St.OpMs.size() < MinTimedOps)
      Why = "only " + std::to_string(St.OpMs.size()) + " timed ops in " +
            std::to_string(MaxLoopS) + " s";
    // Throughput from each op kind's median time, so one stall moves one
    // sample of one kind instead of the whole rate.
    double PassReqs = 0.0, PassMs = 0.0;
    for (const auto &[Key, Ms] : St.KeyMs) {
      PassReqs += double(St.KeyRequests[Key]);
      PassMs += median(Ms);
    }
    M.add("requests_per_s", PassMs > 0.0 ? PassReqs / (PassMs / 1000.0) : 0.0,
          "1/s");
    M.add("op_ms_p50", median(St.OpMs), "ms");
    M.add("op_ms_p90", quantile(St.OpMs, 0.9), "ms");
    M.add("setup_s", median(SetupS), "s");
    M.add("peak_rss_mb", peakRssMb(), "MB");
    M.add("sim_energy_kj", PassSum.EnergyJ / 1000.0, "kJ");
    M.add("sim_time_s", PassSum.SimMs / 1000.0, "sim_s");
    std::fprintf(stderr, "perfbench: %s seed %" PRIu64 ": %zu timed ops "
                         "(op_ms_p90 over %zu samples) in %.1f s\n",
                 O.Workload.c_str(), O.Seed, St.OpMs.size(), St.OpMs.size(),
                 elapsedS());
  } else {
    // Untraced and traced passes alternate so host drift hits both sides
    // of trace_overhead_pct alike; the traced pass also runs the probes.
    std::vector<double> UntracedMs, TracedMs;
    W->Decompose = true;
    while (elapsedS() < O.Seconds) {
      runPass(nullptr, UntracedMs);
      runPass(Tr.get(), TracedMs);
    }
    LoadJson = loadJson(Ticks0, elapsedS(), StealPct);
    layerMetrics(*Tr, UntracedMs, TracedMs, M, Why);
    M.add("sim.requests", double(PassSum.Requests), "count");
    M.add("trace.bytes", double(PassSum.TraceBytes), "bytes");
    M.add("core.scheduler_rounds", double(PassSum.Rounds), "count");
    M.add("serve.ticks", double(PassSum.Ticks), "count");
    M.add("serve.adhoc_requests", double(PassSum.AdHoc), "count");
    writeSpans(O, *Tr, LoadJson);
  }
  // The shared host runs in phases that moved the same code's op times by
  // more than a bound (perfbench/NOTES.md). Steal is the part of a phase
  // the guest can see, so every run records it.
  std::printf("# load %s\n", LoadJson.c_str());
  if (StealPct > StealWarnPct)
    std::fprintf(stderr,
                 "perfbench: warning: the host stole %.1f%% of the busy "
                 "CPU time during the timed loop (above %.0f%%); compare "
                 "these timings only with runs made under similar steal\n",
                 StealPct, StealWarnPct);
  M.print(stderr);
  std::fprintf(stderr, "perfbench: total %.1f s\n", msSince(Start) / 1000.0);
  return finish(St, M, Why);
}
