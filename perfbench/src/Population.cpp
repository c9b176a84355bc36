//===- Population.cpp - Model bring-up and kernel throughput --------------===//
//
// The paper's Fig. 2 protocol on three models, one per size class
// (Pathmanathan, LuoRudy91, TenTusscherPanfilov). The seed draws the
// stimulus and the order the models run in. Each model gets
//
//  1. repeated cold bring-ups (empty compile cache, VM tier): compile,
//     Simulator construction, first step — summed over the models, the
//     median is setup_s;
//  2. repeated disk-warm bring-ups (fresh memory tier over the disk tier
//     the cold bring-ups just filled) — the median is warm_setup_s. A
//     warm compile that misses the disk tier is a failed operation;
//  3. an untimed native-tier build (emit + cc + dlopen);
//  4. a guarded 8,192-cell single-thread run under limpetMLIR(8) AoSoA on
//     the native tier and again on the VM tier, stepped in equal windows
//     for a share of --seconds; the median window time per model gives
//     cell_steps_per_s and vm_cell_steps_per_s over the three models.
//
// One cold-then-warm repetition runs before step 3; the others are spread
// over step 4.
//
// Checks: native and VM checksums are bit-identical at step kCheckStep,
// the warm first-step checksum equals the cold one, Vm has an upstroke
// above 0 mV, and the guarded runs never fault and keep Vm finite.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Stats.h"

#include "compiler/CompilerDriver.h"
#include "models/Registry.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace limpet;

namespace {

constexpr int64_t kCells = 8192;
/// Step at which the native and VM states are compared; every pooled
/// model has its upstroke before it.
constexpr int64_t kCheckStep = 512;
/// Steps one simulation runs before it is built afresh (see Stepper).
constexpr int64_t kHorizon = 2048;
constexpr int kSetupReps = 9;
/// Simulations per model and tier. Each allocates its own state, and the
/// speed of one population depends on where its pages land in the
/// caches, so the windows of two allocations are pooled.
constexpr int kReplicas = 2;

/// One classic or suite model per size class, each with an upstroke
/// above 0 mV before kCheckStep. The model set is fixed: a seeded draw
/// across the registry moves every throughput figure by more than any
/// regression bound, so the seed varies the stimulus and the bring-up
/// order instead.
struct ClassModel {
  const char *Name;
  /// Steps per timed window (~50-150 ms per window); divides kCheckStep
  /// and kHorizon.
  int64_t WindowSteps;
};
const std::array<ClassModel, 3> kModels = {{
    {"Pathmanathan", 256},
    {"LuoRudy91", 64},
    {"TenTusscherPanfilov", 32},
}};

/// The seeded stimulus every population simulation uses.
struct Stimulus {
  double Strength = 30;
  double Duration = 2;
};

/// One model of the run and what its phases leave behind.
struct RunModel {
  const models::ModelEntry *Entry = nullptr;
  /// The VM-tier model of the last warm bring-up (runs the VM windows).
  std::optional<compiler::CompileResult> Vm;
  /// The native-tier model.
  std::optional<compiler::CompileResult> Native;
  int64_t WindowSteps = 8;
  Stimulus Stim;
  /// Checksum after the first step of the first cold bring-up.
  double ColdChecksum = 0;
};

sim::SimOptions populationOptions(const Stimulus &Stim, int64_t WindowSteps) {
  sim::SimOptions O;
  O.StimStrength = Stim.Strength;
  O.StimDuration = Stim.Duration;
  O.NumCells = kCells;
  O.NumSteps = WindowSteps;
  O.NumThreads = 1;
  O.Guard.Enabled = true;
  O.RecordTrace = true;
  O.TraceCell = 0;
  return O;
}

compiler::DriverOptions driverOptions(exec::EngineTier Tier) {
  compiler::DriverOptions D;
  D.Config = exec::EngineConfig::limpetMLIR(8);
  D.Tier = Tier;
  return D;
}

/// The seconds of one bring-up.
struct BringUp {
  double CompileS = 0, ConstructS = 0, FirstStepS = 0;
  double total() const { return CompileS + ConstructS + FirstStepS; }
};

/// One bring-up: compile, construct, first step. Leaves the compile
/// result in \p R and the first-step checksum in \p Checksum.
BringUp bringUp(Pass &P, const RunModel &D, const char *Kind,
                std::optional<compiler::CompileResult> &R, double &Checksum) {
  BringUp B;
  compiler::CompilerDriver Driver(driverOptions(exec::EngineTier::VM));
  B.CompileS = timedCall(P.Spans, std::string("compiler.compile.") + Kind,
                         [&] { R.emplace(Driver.compileEntry(*D.Entry)); });
  if (!*R)
    return B;
  std::optional<sim::Simulator> S;
  sim::SimOptions O = populationOptions(D.Stim, 1);
  B.ConstructS =
      timedCall(P.Spans, "sim.construct", [&] { S.emplace(*R->Model, O); });
  B.FirstStepS = timedCall(P.Spans, "sim.first_step", [&] { S->step(); });
  Checksum = S->stateChecksum();
  return B;
}

/// One guarded population stepped in timed windows on one tier.
///
/// A simulation steps at most kHorizon steps and is then built afresh:
/// some suite models trip the health scan later in the action potential
/// (TenTusscherPanfilov near step 2,700, Pathmanathan near step 4,900),
/// and no timed window may include the guard's recovery ladder.
struct Stepper {
  const RunModel *D = nullptr;
  const exec::CompiledModel *M = nullptr;
  const char *Span = "";
  std::unique_ptr<sim::Simulator> S;
  std::vector<double> Times;
  double ChecksumAtCheck = NAN;
  /// Vm rose above 0 mV by kCheckStep.
  bool Upstroke = false;
  /// Every simulation so far stayed healthy with a finite Vm.
  bool Healthy = true;

  Stepper(const RunModel &Model, const exec::CompiledModel &Compiled,
          bool IsNative)
      : D(&Model), M(&Compiled),
        Span(IsNative ? "sim.run.native" : "sim.run.vm") {
    start();
  }

  void window(Pass &P) {
    if (S->stepsDone() >= kHorizon) {
      finish();
      start();
    }
    Times.push_back(timedCall(P.Spans, Span, [&] { S->run(); }));
    if (S->stepsDone() == kCheckStep && std::isnan(ChecksumAtCheck)) {
      ChecksumAtCheck = S->stateChecksum();
      for (double V : S->trace())
        Upstroke = Upstroke || V > 0;
    }
  }

  /// Folds the current simulation's health into Healthy.
  void finish() {
    Healthy = Healthy && S->report().FaultEvents == 0;
    for (double V : S->trace())
      Healthy = Healthy && std::isfinite(V);
  }

private:
  void start() {
    S.reset();
    S = std::make_unique<sim::Simulator>(
        *M, populationOptions(D->Stim, D->WindowSteps));
    S->run(); // first window untimed: page faults, caches
  }
};

/// Individually timed steps per model: three models give the 1,000
/// samples a p99 needs.
constexpr int kTimedSteps = 334;

/// Per-layer probes of one model (traced pass only).
void probeLayers(Pass &P, const RunModel &D, MetricMap &Acc,
                 std::vector<double> &Steps) {
  const exec::CompiledModel &Vm = *D.Vm->Model;
  Acc["exec.lut_build_s"] += probeLutBuildS(P, Vm, 3);
  Acc["exec.native.ns_per_cell_step"] +=
      probeKernelNs(P, *D.Native->Model, kCells, 0.01, 9);
  Acc["exec.vm.ns_per_cell_step"] += probeKernelNs(P, Vm, kCells, 0.01, 9);
  Acc["exec.computed_bytes_per_cell_step"] +=
      computedBytesPerCellStep(Vm, kCells);

  sim::Simulator S(Vm, populationOptions(D.Stim, D.WindowSteps));
  S.run();
  double Scan = medianCall(P, "sim.scan", 9, [&] { (void)S.scanIsHealthy(); });
  Acc["sim.health_scan_s_per_step"] +=
      Scan / double(S.options().Guard.ScanInterval);
  for (int I = 0; I != kTimedSteps; ++I)
    Steps.push_back(timedCall(P.Spans, "sim.step", [&] { S.step(); }));
  probeCheckpoint(P, S, P.freshDir("ckpt-" + D.Entry->Name), Acc);
}

} // namespace

void perfbench::runPopulation(Pass &P) {
  // The seed draws the stimulus and the order the models are brought up
  // and stepped in.
  Rng R(P.Opts.Seed);
  Stimulus Stim;
  Stim.Strength = std::round(R.uniform(30, 40) * 100) / 100;
  Stim.Duration = std::round(R.uniform(1.5, 2.5) * 100) / 100;
  std::vector<RunModel> Models;
  for (const ClassModel &C : kModels) {
    RunModel D;
    D.Entry = models::findModel(C.Name);
    D.WindowSteps = C.WindowSteps;
    D.Stim = Stim;
    P.Ops.check(D.Entry != nullptr,
                std::string("model ") + C.Name + " is in the registry");
    if (!D.Entry)
      return;
    Models.push_back(std::move(D));
  }
  for (size_t I = Models.size() - 1; I > 0; --I)
    std::swap(Models[I], Models[R.below(I + 1)]);
  std::string Names;
  for (const RunModel &D : Models)
    Names += (Names.empty() ? "" : ",") + D.Entry->Name;
  std::fprintf(stderr, "perfbench: population order %s, stimulus %.2f for %.2f ms\n",
               Names.c_str(), Stim.Strength, Stim.Duration);

  compiler::CompileCache &Cache = compiler::CompileCache::global();
  MetricMap &L = P.Out.PerLayer;

  // 1. One set-up repetition: cold bring-ups of every model in a fresh,
  //    empty cache, then disk-warm bring-ups over the disk tier they
  //    filled. The first repetition comes before the steady state (its
  //    warm compile results run the VM windows); the others are spread
  //    over it (step 4).
  std::vector<double> Cold, Construct, FirstStep, Warm, DiskHit;
  CompileLedger Ledger;
  auto SetUpRep = [&] {
    bool First = Cold.empty();
    Cache.setDiskDir(P.freshDir("cache-" + std::to_string(Cold.size())));
    BringUp Sum;
    {
      ScopedSpan Span(P.Spans, "bench.bringup.cold");
      Ledger.beginRep();
      for (RunModel &D : Models) {
        Cache.clearMemory();
        std::optional<compiler::CompileResult> C;
        double Checksum = 0;
        BringUp B = bringUp(P, D, "cold", C, Checksum);
        P.Ops.check(C && *C && !C->CacheHit,
                    "cold compile of " + D.Entry->Name +
                        (C && !*C ? ": " + C->Err.message() : ""));
        if (!C || !*C)
          return false;
        if (First)
          D.ColdChecksum = Checksum;
        Ledger.addCold(*C, B.CompileS);
        Sum.CompileS += B.CompileS;
        Sum.ConstructS += B.ConstructS;
        Sum.FirstStepS += B.FirstStepS;
      }
    }
    Cold.push_back(Sum.total());
    Construct.push_back(Sum.ConstructS);
    FirstStep.push_back(Sum.FirstStepS);

    ScopedSpan Span(P.Spans, "bench.bringup.warm");
    double WarmSum = 0, HitSum = 0;
    for (RunModel &D : Models) {
      Cache.clearMemory();
      std::optional<compiler::CompileResult> Local;
      std::optional<compiler::CompileResult> &C = First ? D.Vm : Local;
      double Checksum = 0;
      BringUp B = bringUp(P, D, "disk_hit", C, Checksum);
      P.Ops.check(*C && C->DiskHit, "warm compile of " + D.Entry->Name +
                                        " did not hit the disk tier");
      if (!*C)
        return false;
      P.Ops.check(Checksum == D.ColdChecksum,
                  "warm first-step checksum of " + D.Entry->Name +
                      " differs from the cold one");
      WarmSum += B.total();
      HitSum += B.CompileS;
    }
    Warm.push_back(WarmSum);
    DiskHit.push_back(HitSum);
    return true;
  };
  if (!SetUpRep())
    return;

  // 3. Native tier, untimed for the end-to-end metrics.
  Cache.setDiskDir(P.freshDir("cache-native"));
  double NativeCc = 0;
  for (RunModel &D : Models) {
    compiler::CompilerDriver Driver(driverOptions(exec::EngineTier::Native));
    NativeCc += timedCall(P.Spans, "compiler.compile.native",
                          [&] { D.Native.emplace(Driver.compileEntry(*D.Entry)); });
    P.Ops.check(*D.Native && D.Native->NativeAttached,
                "native tier for " + D.Entry->Name + ": " +
                    D.Native->NativeErr.message());
    if (!*D.Native || !D.Native->NativeAttached)
      return;
  }

  // 4. Steady-state throughput. Every model on both tiers steps one
  //    window per round, so a burst of host noise lands on all of them
  //    alike, until the budget is spent, every run passed kCheckStep and
  //    every set-up repetition ran. The set-up repetitions are spread
  //    evenly over the budget, so that their medians, like the windows',
  //    stand for the whole run rather than its first seconds. Rounds stop
  //    at 3x the budget plus 10 s even short of that: the checks then fail
  //    instead of the run overrunning its time limit. Every round runs on
//    the next CPU (CpuRotation), so the windows sample every CPU alike.
  std::vector<Stepper> Steppers;
  for (RunModel &D : Models)
    for (bool Native : {true, false})
      for (int I = 0; I != kReplicas; ++I)
        Steppers.emplace_back(D, Native ? *D.Native->Model : *D.Vm->Model,
                              Native);
  double Budget = 0.8 * P.Opts.Seconds;
  auto Unfinished = [&] {
    for (const Stepper &St : Steppers)
      if (std::isnan(St.ChecksumAtCheck) || St.Times.size() < 8)
        return true;
    return Cold.size() < size_t(kSetupReps);
  };
  double Utilization = 0;
  {
    ScopedSpan Span(P.Spans, "bench.throughput");
    Clock::time_point T0 = Clock::now();
    double Cpu0 = processCpuSeconds();
    CpuRotation Cpus;
    while ((Unfinished() || secondsSince(T0) < Budget) &&
           secondsSince(T0) < 3 * Budget + 10) {
      Cpus.next();
      if (Cold.size() < size_t(kSetupReps) &&
          secondsSince(T0) >= double(Cold.size()) * Budget / kSetupReps &&
          !SetUpRep())
        return;
      for (Stepper &St : Steppers)
        St.window(P);
    }
    Utilization = (processCpuSeconds() - Cpu0) / secondsSince(T0);
  }
  for (Stepper &St : Steppers)
    St.finish();
  // Seconds of one step of every model, from the median windows.
  double NativeStepS = 0, VmStepS = 0;
  for (size_t I = 0; I != Steppers.size(); I += 2 * kReplicas) {
    const RunModel &D = *Steppers[I].D;
    std::vector<double> Times[2];
    for (int J = 0; J != 2 * kReplicas; ++J) {
      const Stepper &St = Steppers[I + size_t(J)];
      P.Ops.check(!std::isnan(St.ChecksumAtCheck) &&
                      St.ChecksumAtCheck == Steppers[I].ChecksumAtCheck,
                  "native and VM checksums of " + D.Entry->Name +
                      " differ at step " + std::to_string(kCheckStep));
      P.Ops.check(St.Upstroke,
                  "Vm of " + D.Entry->Name + " has no upstroke above 0 mV");
      P.Ops.check(St.Healthy, "guarded run of " + D.Entry->Name +
                                  " faulted or left Vm non-finite");
      std::vector<double> &Pool = Times[J / kReplicas];
      Pool.insert(Pool.end(), St.Times.begin(), St.Times.end());
    }
    NativeStepS += median(Times[0]) / double(D.WindowSteps);
    VmStepS += median(Times[1]) / double(D.WindowSteps);
  }
  P.Out.Diagnostics["windows"] = double(Steppers.front().Times.size());
  P.Out.EndToEnd["setup_s"] = median(Cold);
  P.Out.EndToEnd["warm_setup_s"] = median(Warm);

  // The rate of stepping every model once.
  double ModelCells = double(kCells) * double(Models.size());
  P.Out.EndToEnd["cell_steps_per_s"] = ModelCells / NativeStepS;
  P.Out.EndToEnd["vm_cell_steps_per_s"] = ModelCells / VmStepS;
  P.Out.Diagnostics["setup_reps"] = kSetupReps;

  // The per-layer probes below must not count towards the peak.
  P.Out.EndToEnd["peak_rss_mb"] = peakRssMiB();
  if (P.traced()) {
    Ledger.emit(L);
    L["compiler.disk_hit_s"] = median(DiskHit);
    L["compiler.native_cc_s"] = NativeCc;
    L["sim.construct_s"] = median(Construct);
    L["sim.first_step_s"] = median(FirstStep);
    L["sim.thread_utilization"] = Utilization;
    L["runtime.pool.dispatch_s"] = probeDispatchS(P, 1);
    MetricMap Acc;
    std::vector<double> Steps;
    for (const RunModel &D : Models)
      probeLayers(P, D, Acc, Steps);
    emitStepPercentiles(P, Steps, L);
    double N = double(Models.size());
    // Per-cell-step figures are means over the models (the end-to-end
    // rate steps each model once); per-call figures are sums.
    for (const auto &[Name, V] : Acc)
      L[Name] = Name.find("per_cell_step") != std::string::npos ? V / N : V;
  }
  Cache.setDiskDir("");
}
