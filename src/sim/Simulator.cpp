//===- Simulator.cpp ------------------------------------------------------===//

#include "sim/Simulator.h"

#include "compiler/Serialize.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace limpet;
using namespace limpet::sim;
using namespace limpet::exec;

namespace {
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double quietNaN() { return std::numeric_limits<double>::quiet_NaN(); }

// Sanitize user-reachable knobs instead of corrupting memory or dividing
// by zero downstream. Runs before the scheduler/state-buffer members are
// constructed, so they see the sanitized values.
SimOptions sanitizeOptions(SimOptions Opts) {
  if (Opts.NumCells < 1)
    Opts.NumCells = 1;
  if (Opts.NumSteps < 0)
    Opts.NumSteps = 0;
  if (!std::isfinite(Opts.Dt) || Opts.Dt <= 0)
    Opts.Dt = 0.01;
  if (Opts.TraceCell < 0 || Opts.TraceCell >= Opts.NumCells)
    Opts.TraceCell = 0;
  if (Opts.Guard.ScanInterval < 1)
    Opts.Guard.ScanInterval = 1;
  if (Opts.Guard.MaxRetries < 0)
    Opts.Guard.MaxRetries = 0;
  if (Opts.Checkpoint.EveryN < 0)
    Opts.Checkpoint.EveryN = 0;
  if (Opts.Checkpoint.Retain < 1)
    Opts.Checkpoint.Retain = 1;
  if (Opts.ProgressEvery < 0)
    Opts.ProgressEvery = 0;
  return Opts;
}
} // namespace

Simulator::Simulator(const CompiledModel &ModelIn, const SimOptions &OptsIn)
    : Model(ModelIn), Opts(sanitizeOptions(OptsIn)),
      Sched(Opts.NumCells, Opts.NumThreads,
            std::max(Model.config().Width, 1u)),
      Buf(Model, Opts.NumCells, &Sched) {
  Params = Model.defaultParams();
  SimLuts = Model.sharedLuts();
  telemetry::counter("sim.lut.shared").add(1);
  const easyml::ModelInfo &Info = Model.info();
  VmIdx = Info.externalIndex("Vm");
  IionIdx = Info.externalIndex("Iion");
  if (Opts.RecordTrace)
    Trace.reserve(size_t(Opts.NumSteps));

  // The one compute stage of a single-population run. The state and
  // parameter pointers are stable for the simulator's lifetime (Buf
  // restores snapshots in place, setParam writes Params in place); the
  // table pointer follows setLuts.
  KernelStage Stage;
  Stage.Model = &Model;
  Stage.State = Buf.state();
  Stage.Exts = Buf.extPointers();
  Stage.Params = Params.data();
  Stage.Luts = SimLuts.get();
  Stages.push_back(std::move(Stage));
}

void Simulator::computeStage(double Dt) { Sched.step(Stages, Dt, T); }

void Simulator::voltageStage(double Dt) {
  if (!hasVoltageCoupling())
    return;
  // Stimulus window (repeating when StimPeriod > 0).
  double Phase = T;
  if (Opts.StimPeriod > 0)
    Phase = std::fmod(T, Opts.StimPeriod);
  double Stim = (Phase >= Opts.StimStart &&
                 Phase < Opts.StimStart + Opts.StimDuration)
                    ? Opts.StimStrength
                    : 0.0;
  Sched.voltageStep(Buf.ext(size_t(VmIdx)), Buf.ext(size_t(IionIdx)), Stim,
                    Dt);
}

void Simulator::advance(double Dt) {
  bool HasFallback = Report.CellsDegraded > 0;
  if (HasFallback)
    runScalarFallback(Dt, /*Gather=*/true);
  computeStage(Dt);
  if (HasFallback)
    runScalarFallback(Dt, /*Gather=*/false);
  voltageStage(Dt);
  T += Dt;
}

void Simulator::finishStep() {
  ++StepCount;
  if (Injector)
    Injector(*this);
  if (!Frozen.empty())
    restoreFrozenCells();
  if (Opts.RecordTrace)
    Trace.push_back(VmIdx >= 0
                        ? Buf.readExt(size_t(VmIdx), Opts.TraceCell)
                        : stateOf(Opts.TraceCell, 0));
}

void Simulator::step() {
  advance(Opts.Dt);
  finishStep();
}

void Simulator::runWindow(int64_t Steps, int Substeps) {
  double SubDt = Opts.Dt / Substeps;
  for (int64_t I = 0; I != Steps; ++I) {
    for (int S = 0; S != Substeps; ++S)
      advance(SubDt);
    if (Substeps > 1)
      Report.Substeps += Substeps - 1;
    finishStep();
  }
}

void Simulator::run() {
  telemetry::TraceSpan Span("sim.run:" + Model.info().Name, "sim");
  RunReport Before = Report;
  telemetry::RuntimeCounters RtBefore = telemetry::runtimeCounters();
  auto T0 = Clock::now();
  Interrupted = false;
  LastStop = StopReason::None;
  if (!Durable && !Opts.Checkpoint.Dir.empty()) {
    Durable = std::make_unique<CheckpointStore>(Opts.Checkpoint.Dir,
                                                Opts.Checkpoint.Retain);
    // Callers wanting the unwritable-directory error *before* stepping
    // (limpetc does) call prepare() themselves; here a failure just means
    // every later write counts a sim.checkpoint.errors tick.
    if (Status S = Durable->prepare(); !S)
      telemetry::counter("sim.checkpoint.errors").add(1);
  }
  LastDurableStep = StepCount;
  RunStartStep = StepCount;
  // A resumed run chases the same total step target the interrupted run
  // had, so it ends on the same step — the precondition for the resumed
  // final state being bit-identical to the uninterrupted one.
  int64_t Target = Resumed ? Opts.NumSteps : StepCount + Opts.NumSteps;
  RunTarget = Target;
  LastProgressStep = StepCount;
  if (!Opts.Guard.Enabled) {
    while (StepCount < Target) {
      step();
      if (durableTick())
        break;
    }
  } else {
    runGuarded(Target);
  }
  Report.StepsTaken += StepCount - RunStartStep;
  RunStartStep = StepCount;
  Report.RunSeconds += secondsSince(T0);
  foldReportIntoTelemetry(Before);
  // Modeled memory traffic of this run (roofline numerator): the delta of
  // the per-chunk byte counters the backends accumulated.
  telemetry::RuntimeCounters RtAfter = telemetry::runtimeCounters();
  if (RtAfter.BytesLoaded > RtBefore.BytesLoaded)
    telemetry::counter("sim.bytes.loaded")
        .add(RtAfter.BytesLoaded - RtBefore.BytesLoaded);
  if (RtAfter.BytesStored > RtBefore.BytesStored)
    telemetry::counter("sim.bytes.stored")
        .add(RtAfter.BytesStored - RtBefore.BytesStored);
  if (Opts.Stats)
    std::fputs(telemetry::summaryReport().c_str(), stdout);
}

/// Mirrors what this run() added to the RunReport into the global counter
/// registry, so guard-rail activity shows up next to the compile and
/// kernel counters in --stats output and bench NDJSON records.
void Simulator::foldReportIntoTelemetry(const RunReport &Before) {
  auto Add = [](const char *Path, int64_t Delta) {
    if (Delta > 0)
      telemetry::counter(Path).add(uint64_t(Delta));
  };
  Add("sim.steps", Report.StepsTaken - Before.StepsTaken);
  Add("sim.health.scans", Report.HealthScans - Before.HealthScans);
  Add("sim.health.fault_events", Report.FaultEvents - Before.FaultEvents);
  Add("sim.health.faulty_cells", Report.FaultyCells - Before.FaultyCells);
  Add("sim.recovery.retries", Report.Retries - Before.Retries);
  Add("sim.recovery.substeps", Report.Substeps - Before.Substeps);
  Add("sim.recovery.cells_degraded",
      Report.CellsDegraded - Before.CellsDegraded);
  Add("sim.recovery.cells_frozen", Report.CellsFrozen - Before.CellsFrozen);
  Add("sim.health.scan.ns",
      int64_t((Report.ScanSeconds - Before.ScanSeconds) * 1e9));
  Add("sim.recovery.ns",
      int64_t((Report.RecoverySeconds - Before.RecoverySeconds) * 1e9));
  Add("sim.run.ns", int64_t((Report.RunSeconds - Before.RunSeconds) * 1e9));
}

void Simulator::runGuarded(int64_t Target) {
  int64_t Interval = Opts.Guard.ScanInterval;
  takeCheckpoint();
  while (StepCount < Target) {
    int64_t Window = std::min(Interval, Target - StepCount);
    runWindow(Window, 1);
    if (timedScan())
      takeCheckpoint();
    else
      recoverWindow(Window);
    // Durable checkpoints land only on healthy scan boundaries (the
    // in-memory checkpoint was just refreshed either way), so a resumed
    // guarded run rebuilds the identical rollback point.
    if (durableTick())
      break;
  }
}

bool Simulator::durableTick() {
  // Stop sources in precedence order: the process-wide shutdown flag
  // (SIGINT/SIGTERM — the whole process is going away), then this run's
  // cancel token (explicit cancel or wall-clock deadline). All of them
  // stop at this boundary — after the scheduler's shard barrier — with
  // one final durable checkpoint, so every early stop is resumable.
  StopReason Stop = StopReason::None;
  if (shutdownRequested())
    Stop = StopReason::Shutdown;
  else if (Opts.Cancel)
    Stop = Opts.Cancel->stopRequested();
  if (Stop != StopReason::None) {
    if (Durable && StepCount > LastDurableStep)
      writeDurableCheckpoint();
    Interrupted = true;
    LastStop = Stop;
    return true;
  }
  if (Durable && Opts.Checkpoint.EveryN > 0 &&
      StepCount - LastDurableStep >= Opts.Checkpoint.EveryN)
    writeDurableCheckpoint();
  if (Opts.ProgressEvery > 0 && Opts.Progress &&
      StepCount - LastProgressStep >= Opts.ProgressEvery) {
    LastProgressStep = StepCount;
    Opts.Progress(StepCount, RunTarget);
  }
  return false;
}

void Simulator::writeDurableCheckpoint() {
  auto T0 = Clock::now();
  CheckpointData C = captureCheckpoint();
  std::string Bytes = serializeCheckpoint(C);
  Status S =
      compiler::writeFileAtomic(Bytes, Durable->pathForStep(C.StepCount));
  if (S) {
    Durable->prune();
    LastDurableStep = StepCount;
    telemetry::counter("sim.checkpoint.count").add(1);
    telemetry::counter("sim.checkpoint.bytes").add(Bytes.size());
  } else {
    // A full disk mid-run degrades durability, not the simulation: keep
    // stepping, count the failure, and let older checkpoints stand.
    telemetry::counter("sim.checkpoint.errors").add(1);
  }
  telemetry::counter("sim.checkpoint.ns")
      .add(uint64_t(secondsSince(T0) * 1e9));
}

bool Simulator::timedScan() {
  telemetry::TraceSpan Span("health-scan", "sim");
  auto T0 = Clock::now();
  bool Healthy = scanIsHealthy();
  ++Report.HealthScans;
  Report.ScanSeconds += secondsSince(T0);
  return Healthy;
}

void Simulator::recoverWindow(int64_t Window) {
  telemetry::TraceSpan Span("recovery", "sim");
  if (telemetry::TraceRecorder *R = telemetry::TraceRecorder::active())
    R->instant("fault-detected", "sim");
  auto T0 = Clock::now();
  double ScanSecondsAtEntry = Report.ScanSeconds;
  const GuardRailOptions &G = Opts.Guard;
  ++Report.FaultEvents;
  std::vector<int64_t> Bad = faultyCells();
  Report.FaultyCells += int64_t(Bad.size());

  // A corrupted lookup table cannot be healed by re-integration — every
  // retry would read the same poisoned rows — so skip the dt ladder and
  // go straight to the scalar-exact fallback.
  bool TablesBroken = !SimLuts->allFinite();

  // Rung 1: roll back and re-integrate the window with halved dt
  // (exponential backoff: retry k runs at dt / 2^k).
  bool Healed = false;
  for (int Retry = 1; !TablesBroken && !Healed && Retry <= G.MaxRetries;
       ++Retry) {
    rollback();
    ++Report.Retries;
    runWindow(Window, 1 << Retry);
    Healed = timedScan();
  }

  // Rung 2: degrade the faulty cells to the exact scalar kernel (no LUTs,
  // libm) and re-run the window at nominal dt, so healthy cells stay
  // bit-identical to an undisturbed run.
  if (!Healed && G.AllowScalarFallback && ensureRecoveryModel()) {
    rollback();
    for (int64_t C : Bad)
      degradeToScalar(C);
    runWindow(Window, 1);
    Healed = timedScan();
  }

  // Rung 3: freeze whatever still faults to its last healthy checkpoint
  // value. A couple of rounds cover injectors that shift targets between
  // re-runs.
  for (int Round = 0; !Healed && G.AllowFreeze && Round != 4; ++Round) {
    std::vector<int64_t> Still = faultyCells();
    rollback();
    for (int64_t C : Still)
      freezeCell(C);
    runWindow(Window, 1);
    Healed = timedScan();
  }

  if (!Healed) {
    // Last resort (freeze disabled or a nondeterministic fault): pin every
    // faulty cell to its checkpoint snapshot in place, which cleans the
    // population by construction.
    for (int64_t C : faultyCells())
      freezeCell(C);
    restoreFrozenCells();
  }
  takeCheckpoint();
  double ScanPortion = Report.ScanSeconds - ScanSecondsAtEntry;
  Report.RecoverySeconds += secondsSince(T0) - ScanPortion;
}

bool Simulator::scanIsHealthy() const {
  const HealthPolicy &P = Opts.Guard.Policy;
  if (!allWithinMagnitude(Buf.state(), Buf.stateSize(), P.StateMagLimit))
    return false;
  for (size_t J = 0; J != Buf.numExternals(); ++J) {
    const double *E = Buf.ext(J);
    bool Ok = int(J) == VmIdx
                  ? allWithinRange(E, size_t(Opts.NumCells), P.VmLo, P.VmHi)
                  : allWithinMagnitude(E, size_t(Opts.NumCells),
                                       P.StateMagLimit);
    if (!Ok)
      return false;
  }
  return true;
}

std::vector<int64_t> Simulator::faultyCells() const {
  const HealthPolicy &P = Opts.Guard.Policy;
  std::vector<int64_t> Bad;
  unsigned NumSv = Model.program().NumSv;
  for (int64_t C = 0; C != Opts.NumCells; ++C) {
    bool CellBad = false;
    for (unsigned Sv = 0; Sv != NumSv && !CellBad; ++Sv)
      CellBad = !(std::fabs(stateOf(C, Sv)) <= P.StateMagLimit);
    for (size_t J = 0; J != Buf.numExternals() && !CellBad; ++J) {
      double V = Buf.readExt(J, C);
      CellBad = int(J) == VmIdx ? !(V >= P.VmLo && V <= P.VmHi)
                                : !(std::fabs(V) <= P.StateMagLimit);
    }
    if (CellBad)
      Bad.push_back(C);
  }
  return Bad;
}

void Simulator::takeCheckpoint() {
  Buf.save(Ck.Snap);
  Ck.T = T;
  Ck.StepCount = StepCount;
  Ck.TraceLen = Trace.size();
  Ck.Valid = true;
}

void Simulator::rollback() {
  Buf.restore(Ck.Snap);
  T = Ck.T;
  StepCount = Ck.StepCount;
  Trace.resize(Ck.TraceLen);
}

bool Simulator::ensureRecoveryModel() {
  if (RecoveryModel)
    return true;
  if (RecoveryCompileFailed)
    return false;
  std::string Error;
  auto M = CompiledModel::compile(Model.info(), EngineConfig::recovery(),
                                  &Error);
  if (!M) {
    RecoveryCompileFailed = true;
    return false;
  }
  RecoveryModel = std::make_unique<CompiledModel>(std::move(*M));
  return true;
}

void Simulator::runScalarFallback(double Dt, bool Gather) {
  unsigned NumSv = Model.program().NumSv;
  size_t PerCell = NumSv + Buf.numExternals();
  if (Gather) {
    // Integrate each degraded cell with the exact scalar kernel from its
    // pre-step state; the results are scattered over whatever the fast
    // path produced for those lanes once it has run.
    FallbackCells.clear();
    for (int64_t C = 0; C != Opts.NumCells; ++C)
      if (cellMode(C) == CellMode::ScalarExact)
        FallbackCells.push_back(C);
    FallbackBuf.resize(FallbackCells.size() * PerCell);
    KernelArgs Args;
    Args.Params = Params.data();
    Args.Start = 0;
    Args.End = 1;
    Args.NumCells = 1;
    Args.Dt = Dt;
    Args.Exts.resize(Buf.numExternals());
    for (size_t I = 0; I != FallbackCells.size(); ++I) {
      int64_t C = FallbackCells[I];
      double *Sv = &FallbackBuf[I * PerCell];
      double *Ext = Sv + NumSv;
      Buf.gatherCell(C, Sv, Ext);
      for (size_t J = 0; J != Buf.numExternals(); ++J)
        Args.Exts[J] = &Ext[J];
      Args.State = Sv;
      Args.T = T;
      RecoveryModel->computeStep(Args);
    }
    return;
  }
  for (size_t I = 0; I != FallbackCells.size(); ++I) {
    const double *Sv = &FallbackBuf[I * PerCell];
    Buf.scatterCell(FallbackCells[I], Sv, Sv + NumSv);
  }
}

void Simulator::degradeToScalar(int64_t Cell) {
  if (Cell < 0 || Cell >= Opts.NumCells)
    return;
  if (Modes.empty())
    Modes.assign(size_t(Opts.NumCells), CellMode::Normal);
  if (Modes[size_t(Cell)] != CellMode::Normal)
    return;
  Modes[size_t(Cell)] = CellMode::ScalarExact;
  ++Report.CellsDegraded;
}

void Simulator::freezeCell(int64_t Cell) {
  if (Cell < 0 || Cell >= Opts.NumCells)
    return;
  if (Modes.empty())
    Modes.assign(size_t(Opts.NumCells), CellMode::Normal);
  CellMode &M = Modes[size_t(Cell)];
  if (M == CellMode::Frozen)
    return;
  if (M == CellMode::ScalarExact)
    --Report.CellsDegraded;
  M = CellMode::Frozen;
  ++Report.CellsFrozen;

  // Snapshot from the last healthy checkpoint when one exists; the
  // current values otherwise.
  FrozenSnapshot Snap;
  unsigned NumSv = Model.program().NumSv;
  Snap.Sv.resize(NumSv);
  for (unsigned S = 0; S != NumSv; ++S)
    Snap.Sv[S] = Ck.Valid ? Buf.snapshotState(Ck.Snap, Cell, S)
                          : Buf.readState(Cell, S);
  Snap.Ext.resize(Buf.numExternals());
  for (size_t J = 0; J != Buf.numExternals(); ++J)
    Snap.Ext[J] =
        Ck.Valid ? Ck.Snap.Exts[J][size_t(Cell)] : Buf.readExt(J, Cell);
  Frozen[Cell] = std::move(Snap);
}

void Simulator::restoreFrozenCells() {
  unsigned NumSv = Model.program().NumSv;
  for (const auto &[Cell, Snap] : Frozen) {
    for (unsigned S = 0; S != NumSv; ++S)
      Buf.writeState(Cell, S, Snap.Sv[S]);
    for (size_t J = 0; J != Buf.numExternals(); ++J)
      Buf.writeExt(J, Cell, Snap.Ext[J]);
  }
}

CellMode Simulator::cellMode(int64_t Cell) const {
  if (Modes.empty() || Cell < 0 || Cell >= Opts.NumCells)
    return CellMode::Normal;
  return Modes[size_t(Cell)];
}

double Simulator::stateOf(int64_t Cell, int64_t Sv) const {
  if (Cell < 0 || Cell >= Opts.NumCells || Sv < 0 ||
      Sv >= int64_t(Buf.numSv()))
    return quietNaN();
  return Buf.readState(Cell, Sv);
}

double Simulator::externalOf(int64_t Cell, size_t ExtIdx) const {
  if (Cell < 0 || Cell >= Opts.NumCells || ExtIdx >= Buf.numExternals())
    return quietNaN();
  return Buf.readExt(ExtIdx, Cell);
}

double Simulator::vm(int64_t Cell) const {
  return tryVm(Cell).valueOr(quietNaN());
}

Expected<double> Simulator::tryVm(int64_t Cell) const {
  if (VmIdx < 0)
    return Status::error("model '" + Model.info().Name +
                         "' has no Vm external");
  if (Cell < 0 || Cell >= Opts.NumCells)
    return Status::error("cell index " + std::to_string(Cell) +
                         " out of range [0, " +
                         std::to_string(Opts.NumCells) + ")");
  return Buf.readExt(size_t(VmIdx), Cell);
}

void Simulator::pokeState(int64_t Cell, int64_t Sv, double Value) {
  if (Cell < 0 || Cell >= Opts.NumCells || Sv < 0 ||
      Sv >= int64_t(Buf.numSv()))
    return;
  Buf.writeState(Cell, Sv, Value);
}

void Simulator::pokeExternal(size_t ExtIdx, int64_t Cell, double Value) {
  if (Cell < 0 || Cell >= Opts.NumCells || ExtIdx >= Buf.numExternals())
    return;
  Buf.writeExt(ExtIdx, Cell, Value);
}

void Simulator::setFaultInjector(std::function<void(Simulator &)> F) {
  Injector = std::move(F);
}

Status Simulator::setParam(std::string_view Name, double Value) {
  int Idx = Model.info().paramIndex(Name);
  if (Idx < 0)
    return Status::error("unknown parameter '" + std::string(Name) +
                         "' for model '" + Model.info().Name + "'");
  if (!std::isfinite(Value))
    return Status::error("non-finite value for parameter '" +
                         std::string(Name) + "'");
  std::vector<double> BuiltAt = Params;
  Params[size_t(Idx)] = Value;
  refreshLuts(BuiltAt);
  return Status::success();
}

void Simulator::setLuts(std::shared_ptr<const runtime::LutTableSet> L) {
  SimLuts = std::move(L);
  for (KernelStage &S : Stages)
    S.Luts = SimLuts.get();
}

void Simulator::refreshLuts(const std::vector<double> &BuiltAt) {
  if (DetachedLuts) {
    // Detached tables may have been edited; derive from the model's clean
    // defaults instead.
    DetachedLuts.reset();
    std::vector<double> Defaults = Model.defaultParams();
    setLuts(Model.derivedLuts(Model.sharedLuts(), Defaults.data(),
                              Params.data()));
    return;
  }
  setLuts(Model.derivedLuts(SimLuts, BuiltAt.data(), Params.data()));
}

runtime::LutTableSet &Simulator::mutableLuts() {
  if (!DetachedLuts) {
    DetachedLuts = std::make_shared<runtime::LutTableSet>(*SimLuts);
    setLuts(DetachedLuts);
  }
  return *DetachedLuts;
}

double Simulator::param(std::string_view Name) const {
  return tryParam(Name).valueOr(quietNaN());
}

Expected<double> Simulator::tryParam(std::string_view Name) const {
  int Idx = Model.info().paramIndex(Name);
  if (Idx < 0)
    return Status::error("unknown parameter '" + std::string(Name) +
                         "' for model '" + Model.info().Name + "'");
  return Params[size_t(Idx)];
}

double Simulator::stateChecksum() const { return Buf.checksum(); }

//===----------------------------------------------------------------------===//
// Durable checkpoint / resume
//===----------------------------------------------------------------------===//

CheckpointData Simulator::captureCheckpoint() const {
  CheckpointData C;
  C.ModelName = Model.info().Name;
  C.SourceHash = Opts.Checkpoint.SourceHash;
  C.Config = Model.config();

  C.NumCells = Opts.NumCells;
  C.NumSv = Buf.numSv();
  C.NumExts = uint32_t(Buf.numExternals());
  C.Layout = uint8_t(Buf.layout());
  C.BlockW = Buf.blockWidth();

  C.StepCount = StepCount;
  C.T = T;
  C.Dt = Opts.Dt;

  // Pad lanes included: a restore is a straight memcpy and bit-exact.
  C.State.assign(Buf.state(), Buf.state() + Buf.stateSize());
  C.Exts.resize(Buf.numExternals());
  for (size_t J = 0; J != Buf.numExternals(); ++J)
    C.Exts[J].assign(Buf.ext(J), Buf.ext(J) + Opts.NumCells);

  C.Params = Params;
  C.Trace = Trace;
  C.Report = Report;
  // The steps of the run in flight are only folded into the report when
  // run() returns; a checkpoint captured mid-run counts them itself.
  C.Report.StepsTaken += StepCount - RunStartStep;

  if (!Modes.empty()) {
    C.Modes.resize(Modes.size());
    for (size_t I = 0; I != Modes.size(); ++I)
      C.Modes[I] = uint8_t(Modes[I]);
  }
  // Sorted by cell so the serialized form is deterministic (the map is
  // unordered).
  std::vector<int64_t> FrozenCells;
  FrozenCells.reserve(Frozen.size());
  for (const auto &[Cell, Snap] : Frozen)
    FrozenCells.push_back(Cell);
  std::sort(FrozenCells.begin(), FrozenCells.end());
  for (int64_t Cell : FrozenCells) {
    const FrozenSnapshot &Snap = Frozen.at(Cell);
    CheckpointData::FrozenCell F;
    F.Cell = Cell;
    F.Sv = Snap.Sv;
    F.Ext = Snap.Ext;
    C.Frozen.push_back(std::move(F));
  }
  annotateCheckpoint(C);
  return C;
}

Status Simulator::resumeFrom(const CheckpointData &C) {
  if (C.ModelName != Model.info().Name)
    return Status::error("cannot resume: checkpoint is of model '" +
                         C.ModelName + "', this simulator runs '" +
                         Model.info().Name + "'");
  if (C.SourceHash != 0 && Opts.Checkpoint.SourceHash != 0 &&
      C.SourceHash != Opts.Checkpoint.SourceHash)
    return Status::error(
        "cannot resume: model source changed since the checkpoint of '" +
        C.ModelName + "' was written (source hash mismatch)");
  if (!(C.Config == Model.config()))
    return Status::error(
        "cannot resume: checkpoint was captured under engine '" +
        engineConfigName(C.Config) + "', this simulator runs '" +
        engineConfigName(Model.config()) + "'");
  if (C.NumCells != Opts.NumCells || C.NumSv != Buf.numSv() ||
      C.NumExts != Buf.numExternals() ||
      C.Layout != uint8_t(Buf.layout()) || C.BlockW != Buf.blockWidth())
    return Status::error("cannot resume: population shape mismatch "
                         "(cells/state-variables/layout differ)");
  if (C.State.size() != Buf.stateSize() ||
      C.Params.size() != Params.size())
    return Status::error("cannot resume: array sizes do not match the "
                         "compiled model");
  if (!C.Modes.empty() && int64_t(C.Modes.size()) != Opts.NumCells)
    return Status::error("cannot resume: degradation-mode array does not "
                         "match the population");
  if (Status S = validateResume(C); !S)
    return S;

  std::memcpy(Buf.state(), C.State.data(),
              C.State.size() * sizeof(double));
  for (size_t J = 0; J != Buf.numExternals(); ++J)
    std::memcpy(Buf.ext(J), C.Exts[J].data(),
                size_t(Opts.NumCells) * sizeof(double));

  std::vector<double> BuiltAt = Params;
  std::copy(C.Params.begin(), C.Params.end(), Params.begin());
  refreshLuts(BuiltAt);
  T = C.T;
  StepCount = C.StepCount;
  RunStartStep = StepCount;
  Trace = C.Trace;
  Report = C.Report;

  Modes.clear();
  if (!C.Modes.empty()) {
    Modes.resize(C.Modes.size());
    for (size_t I = 0; I != C.Modes.size(); ++I)
      Modes[I] = CellMode(C.Modes[I]);
  }
  Frozen.clear();
  for (const CheckpointData::FrozenCell &F : C.Frozen)
    Frozen[F.Cell] = FrozenSnapshot{F.Sv, F.Ext};

  // The in-memory guard-rail checkpoint does not survive the process;
  // runGuarded retakes it from the restored population immediately.
  Ck.Valid = false;
  Resumed = true;
  Interrupted = false;
  applyResume(C);
  return Status::success();
}
