//===- Tissue.cpp - Reaction-diffusion stepping ---------------------------===//
//
// A 128x128 HodgkinHuxley sheet (dx = 0.01 cm, FTCS diffusion) driven by
// one S1 pulse on an edge, stepped guarded under limpetMLIR(8). The seed
// picks the stimulated edge and the pulse amplitude; the wave must reach
// the opposite edge. At this size the StagePlan stages, the diffusion
// stencil and (threaded) the ThreadPool dispatch dominate, and compile
// plus LUT cost is small.
//
//  * setup_s: cold (empty cache) compile, TissueSimulator construction,
//    preflight and first step at 1 thread; median of repeated set-ups.
//  * warm_setup_s: the same with a disk-tier compile hit in a fresh
//    memory tier.
//  * cell_steps_per_s: nodes x window steps over the median window time,
//    native tier at 1 thread.
//  * vm_cell_steps_per_s: the same on the VM tier.
//
// The end-to-end rates are single-threaded on purpose. On a shared host
// every fork-join of a threaded step waits for the hypervisor to run the
// vCPUs its workers sleep on: with 5-14 % host steal the nproc-thread rate
// of this sheet fell from 11M to 3.6M cell-steps/s while the 1-thread rate
// moved 8 %. A sheet at nproc threads steps to kCheckStep for the
// checksum check, and in the traced pass it gives the threaded per-layer
// figures (sim.thread_speedup and the pool's calls per step among them).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Stats.h"

#include "compiler/CompilerDriver.h"
#include "models/Registry.h"
#include "sim/TissueSimulator.h"
#include "support/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace limpet;

namespace {

constexpr int64_t kSide = 128;
constexpr int64_t kNodes = kSide * kSide;
constexpr int64_t kWindowSteps = 16;
/// Step at which every sheet's checksum is compared.
constexpr int64_t kCheckStep = 256;
/// The wave crosses the sheet in about 1,500 steps; every 1-thread sheet
/// steps at least this far, and the far edge is checked on one of them.
constexpr int64_t kMinSteps = 2400;
constexpr int kSetupReps = 11;
/// Sheets per tier. Each allocates its own state, and the speed of one
/// sheet depends on where its pages land, so the windows of two
/// allocations are pooled.
constexpr int kReplicas = 2;
/// Individually timed threaded steps: 1,000 keep ten beyond the p99.
constexpr int kTimedSteps = 1000;

struct Edge {
  const char *Name;
  std::string Region; ///< stimulus region, 3 nodes deep
  /// Nodes on the opposite edge.
  int64_t FarX0, FarX1, FarY0, FarY1;
};

Edge drawEdge(Rng &R) {
  constexpr int64_t M = kSide - 1;
  switch (R.below(4)) {
  case 0:
    return {"west", "x0=0,x1=2,y0=0,y1=-1", M, M, 0, M};
  case 1:
    return {"east", "x0=125,x1=-1,y0=0,y1=-1", 0, 0, 0, M};
  case 2:
    return {"south", "x0=0,x1=-1,y0=0,y1=2", 0, M, M, M};
  default:
    return {"north", "x0=0,x1=-1,y0=125,y1=-1", 0, M, 0, 0};
  }
}

sim::TissueOptions tissueOptions(const sim::StimulusProtocol &Stim,
                                 unsigned Threads) {
  sim::TissueOptions T;
  T.Grid = {kSide, kSide, 0.01};
  T.Sigma = 0.002;
  T.Method = sim::DiffusionMethod::FTCS;
  T.Stim = Stim;
  T.Sim.NumSteps = kWindowSteps;
  T.Sim.Dt = 0.01;
  T.Sim.NumThreads = Threads;
  T.Sim.Guard.Enabled = true;
  return T;
}

uint64_t poolCalls() {
  return telemetry::Registry::instance().value("pool.parallel_for.calls");
}

/// One sheet stepped in timed windows.
struct Sheet {
  std::unique_ptr<sim::TissueSimulator> S;
  const char *Span = "";
  std::vector<double> Times;
  double ChecksumAtCheck = NAN;

  void window(Pass &P) {
    Times.push_back(timedCall(P.Spans, Span, [&] { S->run(); }));
    if (S->stepsDone() == kCheckStep)
      ChecksumAtCheck = S->stateChecksum();
  }
};

} // namespace

void perfbench::runTissue(Pass &P) {
  Rng R(P.Opts.Seed);
  Edge E = drawEdge(R);
  double Amp = std::round(R.uniform(35, 45) * 100) / 100;
  sim::TissueGrid Grid{kSide, kSide, 0.01};
  Expected<sim::StimulusProtocol> Stim = sim::StimulusProtocol::parse(
      "region:" + E.Region + ",start=1,dur=2,amp=" + std::to_string(Amp),
      Grid);
  P.Ops.check(bool(Stim), "tissue stimulus protocol parses");
  if (!Stim)
    return;
  std::fprintf(stderr, "perfbench: tissue S1 on the %s edge, amp %.2f\n",
               E.Name, Amp);

  const models::ModelEntry *Entry = models::findModel("HodgkinHuxley");
  P.Ops.check(Entry != nullptr, "HodgkinHuxley in the registry");
  if (!Entry)
    return;
  compiler::CompileCache &Cache = compiler::CompileCache::global();
  compiler::DriverOptions DOpts;
  DOpts.Config = exec::EngineConfig::limpetMLIR(8);
  compiler::CompilerDriver Driver(DOpts);
  sim::TissueOptions TOpts = tissueOptions(*Stim, 1);
  std::optional<compiler::CompileResult> Model;
  std::vector<double> Construct, FirstStep, DiskHit;
  CompileLedger Ledger;

  // One set-up: compile, construction, preflight, first step. Returns
  // its seconds, or NAN when the compile failed. The compile result of
  // the first warm set-up is kept in Model for the steady state.
  auto SetUp = [&](bool Cold) {
    Cache.clearMemory();
    std::optional<compiler::CompileResult> Local;
    std::optional<compiler::CompileResult> &C =
        !Cold && !Model ? Model : Local;
    double CompileS =
        timedCall(P.Spans, Cold ? "compiler.compile.cold"
                                : "compiler.compile.disk_hit",
                  [&] { C.emplace(Driver.compileEntry(*Entry)); });
    P.Ops.check(*C && (Cold ? !C->CacheHit : C->DiskHit),
                Cold ? "tissue cold compile"
                     : "tissue warm compile did not hit the disk tier");
    if (!*C)
      return double(NAN);
    if (Cold)
      Ledger.addCold(*C, CompileS);
    else
      DiskHit.push_back(CompileS);
    std::optional<sim::TissueSimulator> S;
    double ConstructS = timedCall(P.Spans, "sim.construct",
                                  [&] { S.emplace(*C->Model, TOpts); });
    Status Pre = Status::success();
    double PreS = timedCall(P.Spans, "sim.preflight",
                            [&] { Pre = S->preflight(); });
    P.Ops.check(bool(Pre), "tissue preflight: " + Pre.message());
    double StepS = timedCall(P.Spans, "sim.first_step", [&] { S->step(); });
    if (Cold) {
      Construct.push_back(ConstructS);
      FirstStep.push_back(StepS);
    }
    return CompileS + ConstructS + PreS + StepS;
  };

  // 1. One set-up repetition: cold, in a fresh and empty cache, then
  //    disk-warm over the cache it filled. The first comes before the
  //    steady state; the others are spread over it (step 3).
  std::vector<double> Cold, Warm;
  auto SetUpRep = [&] {
    Cache.setDiskDir(P.freshDir("cache-" + std::to_string(Cold.size())));
    {
      ScopedSpan Span(P.Spans, "bench.bringup.cold");
      Ledger.beginRep();
      Cold.push_back(SetUp(true));
    }
    if (std::isnan(Cold.back()))
      return false;
    ScopedSpan Span(P.Spans, "bench.bringup.warm");
    Warm.push_back(SetUp(false));
    return !std::isnan(Warm.back());
  };
  if (!SetUpRep())
    return;
  const exec::CompiledModel &M = *Model->Model;

  // 2. The native tier, untimed for the end-to-end metrics.
  Cache.setDiskDir(P.freshDir("cache-native"));
  compiler::DriverOptions NOpts = DOpts;
  NOpts.Tier = exec::EngineTier::Native;
  std::optional<compiler::CompileResult> Native;
  double NativeCc = timedCall(P.Spans, "compiler.compile.native", [&] {
    Native.emplace(compiler::CompilerDriver(NOpts).compileEntry(*Entry));
  });
  P.Ops.check(*Native && Native->NativeAttached,
              "native tier for HodgkinHuxley: " +
                  Native->NativeErr.message());
  if (!*Native || !Native->NativeAttached)
    return;

  // The sheet at nproc threads steps to kCheckStep for the checksum check.
  unsigned Threads = P.Opts.Threads;
  Sheet Threaded;
  Threaded.S = std::make_unique<sim::TissueSimulator>(
      M, tissueOptions(*Stim, Threads));
  Threaded.Span = "sim.run.threaded";
  {
    ScopedSpan Span(P.Spans, "bench.threaded");
    while (Threaded.S->stepsDone() < kCheckStep)
      Threaded.window(P);
  }

  // 3. Steady state at 1 thread: every sheet of both tiers steps one
  //    window per round, so a burst of host noise lands on all of them
  //    alike, until the budget is spent, every sheet has stepped
  //    kMinSteps and every set-up repetition ran. The set-up repetitions
  //    are spread evenly over the budget, so that their medians, like the
  //    windows', stand for the whole run rather than its first second.
  //    Rounds stop at 3x the budget plus 10 s even short of that: the
  //    checks then fail instead of the run overrunning. Every round runs
  //    on the next CPU (CpuRotation), so the windows sample every CPU
  //    alike.
  std::vector<Sheet> Sheets;
  for (bool IsNative : {true, false})
    for (int I = 0; I != kReplicas; ++I) {
      Sheet Sh;
      Sh.S = std::make_unique<sim::TissueSimulator>(
          IsNative ? *Native->Model : M, TOpts);
      Sh.Span = IsNative ? "sim.run.native" : "sim.run.vm";
      Sheets.push_back(std::move(Sh));
    }
  sim::TissueSimulator &Vm = *Sheets.back().S;
  Vm.enableActivationMap();
  double Budget = 0.75 * P.Opts.Seconds;
  auto Unfinished = [&] {
    for (const Sheet &Sh : Sheets)
      if (Sh.S->stepsDone() < kMinSteps)
        return true;
    return Cold.size() < size_t(kSetupReps);
  };
  {
    ScopedSpan Span(P.Spans, "bench.throughput");
    Clock::time_point T0 = Clock::now();
    CpuRotation Cpus;
    while ((Unfinished() || secondsSince(T0) < Budget) &&
           secondsSince(T0) < 3 * Budget + 10) {
      Cpus.next();
      if (Cold.size() < size_t(kSetupReps) &&
          secondsSince(T0) >= double(Cold.size()) * Budget / kSetupReps &&
          !SetUpRep())
        return;
      for (Sheet &Sh : Sheets)
        Sh.window(P);
    }
  }
  P.Out.EndToEnd["setup_s"] = median(Cold);
  P.Out.EndToEnd["warm_setup_s"] = median(Warm);

  std::vector<double> Times[2];
  for (size_t I = 0; I != Sheets.size(); ++I) {
    const Sheet &Sh = Sheets[I];
    P.Ops.check(Sh.S->report().FaultEvents == 0, "guarded tissue run faulted");
    P.Ops.check(!std::isnan(Sh.ChecksumAtCheck) &&
                    Sh.ChecksumAtCheck == Threaded.ChecksumAtCheck,
                std::string(Sh.Span) + " sheet checksum differs from the " +
                    std::to_string(Threads) + "-thread sheet's at step " +
                    std::to_string(kCheckStep));
    std::vector<double> &Pool = Times[I / kReplicas];
    Pool.insert(Pool.end(), Sh.Times.begin(), Sh.Times.end());
  }
  P.Ops.check(Threaded.S->report().FaultEvents == 0,
              "guarded threaded tissue run faulted");
  double NativeRate = double(kNodes * kWindowSteps) / median(Times[0]);
  double VmRate = double(kNodes * kWindowSteps) / median(Times[1]);
  P.Out.EndToEnd["cell_steps_per_s"] = NativeRate;
  P.Out.EndToEnd["vm_cell_steps_per_s"] = VmRate;
  P.Out.Diagnostics["windows"] = double(Sheets.front().Times.size());
  P.Out.Diagnostics["setup_reps"] = kSetupReps;

  bool FarEdge = true;
  for (int64_t Y = E.FarY0; Y <= E.FarY1; ++Y)
    for (int64_t X = E.FarX0; X <= E.FarX1; ++X)
      FarEdge = FarEdge && !std::isnan(Vm.activationTime(Grid.nodeAt(X, Y)));
  P.Ops.check(FarEdge, std::string("wave from the ") + E.Name +
                           " edge did not activate the far edge");

  // The per-layer probes below must not count towards the peak.
  P.Out.EndToEnd["peak_rss_mb"] = peakRssMiB();
  if (!P.traced()) {
    Cache.setDiskDir("");
    return;
  }
  MetricMap &L = P.Out.PerLayer;
  MetricMap &Diag = P.Out.Diagnostics;
  Ledger.emit(L);
  L["compiler.disk_hit_s"] = median(DiskHit);
  L["compiler.native_cc_s"] = NativeCc;
  L["sim.construct_s"] = median(Construct);
  L["sim.first_step_s"] = median(FirstStep);

  // The threaded sheet: windows for a share of the budget, then
  // individually timed steps.
  sim::TissueSimulator &S = *Threaded.S;
  Threaded.Times.clear();
  uint64_t Calls0 = poolCalls();
  int64_t Steps0 = S.stepsDone();
  double Cpu0 = processCpuSeconds();
  Clock::time_point Wall0 = Clock::now();
  {
    ScopedSpan Span(P.Spans, "bench.threaded");
    while (secondsSince(Wall0) < 0.15 * P.Opts.Seconds ||
           Threaded.Times.size() < 8)
      Threaded.window(P);
  }
  L["sim.thread_utilization"] =
      (processCpuSeconds() - Cpu0) / (secondsSince(Wall0) * Threads);
  Diag["runtime.pool.calls_per_step"] =
      double(poolCalls() - Calls0) / double(S.stepsDone() - Steps0);
  Diag["sim.thread_speedup"] =
      double(kNodes * kWindowSteps) / median(Threaded.Times) / VmRate;
  L["runtime.pool.dispatch_s"] = probeDispatchS(P, Threads);
  std::vector<double> StepTimes;
  {
    ScopedSpan Span(P.Spans, "bench.steps");
    for (int I = 0; I != kTimedSteps; ++I)
      StepTimes.push_back(timedCall(P.Spans, "sim.step", [&] { S.step(); }));
  }
  emitStepPercentiles(P, StepTimes, L);
  L["sim.health_scan_s_per_step"] =
      medianCall(P, "sim.scan", 99, [&] { (void)Vm.scanIsHealthy(); }) /
      double(Vm.options().Guard.ScanInterval);
  probeCheckpoint(P, Vm, P.freshDir("ckpt-probe"), L);

  // The stencil on its own, over a same-size field: two FTCS half-steps
  // per Strang step.
  sim::DiffusionOperator Diff(Grid, TOpts.Sigma, sim::DiffusionMethod::FTCS);
  std::vector<double> Field(static_cast<size_t>(kNodes));
  for (int64_t I = 0; I != kNodes; ++I)
    Field[size_t(I)] = -80.0 + double(I % kSide);
  double Half = medianCall(P, "sim.diffusion.step", 199, [&] {
    Diff.step(Field.data(), 0.5 * TOpts.Sim.Dt);
  });
  Diag["sim.stencil.s_per_step"] = 2 * Half;
  Diag["sim.stencil.computed_gbps"] =
      double(Diff.bytesLoadedPerStep() + Diff.bytesStoredPerStep()) / Half /
      1e9;

  // The ionic kernel over the whole sheet at one thread, on both tiers.
  L["exec.lut_build_s"] = probeLutBuildS(P, M, 5);
  L["exec.vm.ns_per_cell_step"] =
      probeKernelNs(P, M, kNodes, TOpts.Sim.Dt, 29);
  L["exec.native.ns_per_cell_step"] =
      probeKernelNs(P, *Native->Model, kNodes, TOpts.Sim.Dt, 29);
  L["exec.computed_bytes_per_cell_step"] = computedBytesPerCellStep(M, kNodes);
  Cache.setDiskDir("");
}
