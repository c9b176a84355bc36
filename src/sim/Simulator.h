//===- Simulator.h - Single-cell-population simulation driver ---*- C++-*-===//
//
// The analogue of openCARP's `bench` program, as a client of the layered
// runtime: the population lives in a StateBuffer (layout-aware state +
// external arrays), every compute step runs through the Scheduler's
// sharded stepping loop (static schedule, persistent shard-to-thread
// assignment), and the driver adds the minimal "solver stage" surrogate:
// a transmembrane-voltage update Vm += dt*(Istim - Iion) plus a periodic
// stimulus, enough to drive action potentials through the kernels.
//
// Guard rails (optional, SimOptions::Guard): run() periodically scans the
// population for NaN/Inf/out-of-range values. On a fault it rolls the
// population back to the last healthy checkpoint and walks a degradation
// ladder — re-integrate the window with halved dt (bounded retries,
// exponential backoff), fall faulty cells back to the exact scalar kernel,
// and as a last resort freeze-and-flag them so they cannot poison the rest
// of the population. The outcome is summarized in a RunReport. See
// docs/ROBUSTNESS.md.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_SIMULATOR_H
#define LIMPET_SIM_SIMULATOR_H

#include "exec/CompiledModel.h"
#include "sim/CancelToken.h"
#include "sim/Checkpoint.h"
#include "sim/Health.h"
#include "sim/Scheduler.h"
#include "sim/StateBuffer.h"
#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace limpet {
namespace sim {

/// Fault-tolerance knobs for Simulator::run().
struct GuardRailOptions {
  /// Master switch; off preserves the raw stepping loop bit-for-bit.
  bool Enabled = false;
  /// Health-scan (and checkpoint) cadence in steps. Each scan is one
  /// vectorized pass over the state and external arrays.
  int64_t ScanInterval = 8;
  /// Rollback + dt-halving retries per faulty window (retry k re-runs the
  /// window at dt / 2^k).
  int MaxRetries = 3;
  /// Numerical bounds a healthy population must satisfy.
  HealthPolicy Policy;
  /// Allow degrading persistently faulty cells to the exact scalar
  /// (no-LUT, libm) kernel.
  bool AllowScalarFallback = true;
  /// Allow freezing cells that fault even on the scalar-exact path.
  bool AllowFreeze = true;
};

/// Durable checkpoint/resume knobs for Simulator::run().
struct CheckpointOptions {
  /// Directory the rotated ckpt-<step>.lmpc files live in; empty disables
  /// durable checkpointing entirely.
  std::string Dir;
  /// Checkpoint cadence in steps (0 = only the final shutdown
  /// checkpoint). In guarded runs checkpoints land on the next healthy
  /// scan boundary at or after the cadence.
  int64_t EveryN = 0;
  /// How many rotated checkpoint files to keep.
  int Retain = 3;
  /// FNV-1a 64 of the model source, stamped into every checkpoint so a
  /// resume against a different model is refused (0 = unknown).
  uint64_t SourceHash = 0;
};

/// Simulation protocol options. The paper's protocol is 100,000 steps of
/// 0.01 ms (1 s) over 8,192 cells; benches scale this down.
struct SimOptions {
  int64_t NumCells = 4096;
  int64_t NumSteps = 1000;
  double Dt = 0.01; ///< ms
  unsigned NumThreads = 1;

  // Stimulus: a current pulse of StimStrength applied during
  // [StimStart, StimStart+StimDuration), repeating every StimPeriod ms
  // (0 = single pulse).
  double StimStart = 1.0;
  double StimDuration = 2.0;
  double StimStrength = 30.0;
  double StimPeriod = 0.0;

  /// Record Vm of TraceCell each step (for AP plots and golden tests).
  bool RecordTrace = false;
  int64_t TraceCell = 0;

  /// Print the telemetry summary (runtime counters + registry) to stdout
  /// when run() finishes. A no-op note in telemetry-off builds.
  bool Stats = false;

  /// Numerical guard rails (health scan, checkpoint/retry, degradation).
  GuardRailOptions Guard;

  /// Durable checkpoint/resume (periodic on-disk snapshots, graceful
  /// shutdown). Independent of Guard: the in-memory guard-rail
  /// checkpoint is for rollback, this one survives the process.
  CheckpointOptions Checkpoint;

  /// Optional cooperative cancel token (explicit cancel / wall-clock
  /// deadline), polled at the same step/window boundaries as the
  /// shutdown flag. Not owned; must outlive run(). A stop through the
  /// token writes the same final durable checkpoint as a shutdown, so
  /// the run stays resumable.
  const CancelToken *Cancel = nullptr;

  /// Progress streaming: when ProgressEvery > 0, Progress(stepsDone,
  /// stepTarget) is invoked at step/window boundaries every
  /// ProgressEvery steps (after the scheduler's shard barrier — never
  /// from inside the stepping hot path). Used by limpetd to stream
  /// NDJSON progress events.
  int64_t ProgressEvery = 0;
  std::function<void(int64_t StepsDone, int64_t StepTarget)> Progress;
};

/// Drives one compiled model over a population of cells.
///
/// The stepping core is an extension point: advance() — one integration
/// substep — is virtual, and everything around it (the guarded run loop,
/// rollback/retry ladder, durable checkpoints, cancellation, resume) is
/// inherited machinery. TissueSimulator overrides advance() with the
/// operator-split diffusion pipeline and hooks captureCheckpoint /
/// resumeFrom through annotateCheckpoint / validateResume.
class Simulator {
public:
  Simulator(const exec::CompiledModel &Model, const SimOptions &Opts);
  virtual ~Simulator() = default;
  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;

  /// Advances one time step (compute stage + voltage update). Guard-rail
  /// scanning only happens inside run(); manual stepping is unguarded.
  void step();

  /// Runs Opts.NumSteps steps, with fault-tolerant stepping when
  /// Opts.Guard.Enabled is set. After resumeFrom, Opts.NumSteps is the
  /// *total* step target, so an interrupted run resumed mid-flight lands
  /// on the same final step as an uninterrupted one. Writes durable
  /// checkpoints on the Opts.Checkpoint cadence and stops cleanly (one
  /// final checkpoint, interrupted() set) when a shutdown was requested.
  void run();

  //===--------------------------------------------------------------------===//
  // Durable checkpoint / resume
  //===--------------------------------------------------------------------===//

  /// Snapshots the full simulation state — population, progress,
  /// parameters, trace, guard-rail accumulators and degradation modes —
  /// into a serializable CheckpointData.
  CheckpointData captureCheckpoint() const;

  /// Restores this simulator from \p C. Refuses (recoverable error,
  /// state untouched) a checkpoint whose model name, source hash, engine
  /// configuration or population shape does not match this simulator.
  /// On success the next run() continues bit-identically to the run that
  /// captured \p C.
  Status resumeFrom(const CheckpointData &C);

  /// True when the last run() stopped early on a shutdown request,
  /// cancellation or deadline expiry (after writing its final
  /// checkpoint).
  bool interrupted() const { return Interrupted; }

  /// Why the last run() stopped early (None when it ran to the target).
  StopReason stopReason() const { return LastStop; }

  double time() const { return T; }
  int64_t stepsDone() const { return StepCount; }

  const exec::CompiledModel &model() const { return Model; }
  const SimOptions &options() const { return Opts; }
  /// The population container and the sharded stepping loop this driver
  /// runs through.
  const StateBuffer &stateBuffer() const { return Buf; }
  const Scheduler &scheduler() const { return Sched; }

  /// State variable value of one cell (layout-aware). Out-of-range
  /// cell/sv indices return NaN instead of reading out of bounds.
  double stateOf(int64_t Cell, int64_t Sv) const;
  /// External variable value of one cell (NaN when out of range).
  double externalOf(int64_t Cell, size_t ExtIdx) const;
  /// Membrane voltage of a cell; NaN when the model has no Vm external
  /// or the cell index is out of range. See tryVm for the checked form.
  double vm(int64_t Cell) const;
  /// Checked membrane-voltage access.
  Expected<double> tryVm(int64_t Cell) const;

  /// The recorded Vm trace (one entry per step when RecordTrace is set).
  const std::vector<double> &trace() const { return Trace; }

  /// Sets a parameter and refills the LUT tables that read it (none when
  /// no table column reads the parameter). Unknown names and non-finite
  /// values are recoverable errors (the simulation state is left
  /// untouched).
  Status setParam(std::string_view Name, double Value);
  /// Parameter value; NaN for unknown names (see tryParam).
  double param(std::string_view Name) const;
  /// Checked parameter access.
  Expected<double> tryParam(std::string_view Name) const;

  /// Order-independent digest of the full simulation state, used by
  /// engine-equivalence tests.
  double stateChecksum() const;

  /// Whether the model exposes the Vm/Iion convention the voltage update
  /// needs.
  bool hasVoltageCoupling() const { return VmIdx >= 0 && IionIdx >= 0; }

  //===--------------------------------------------------------------------===//
  // Guard-rail introspection and fault injection
  //===--------------------------------------------------------------------===//

  /// What the last (or ongoing) run() did: faults, retries, substeps,
  /// degraded cells, scan overhead.
  const RunReport &report() const { return Report; }

  /// Where a cell sits on the degradation ladder.
  CellMode cellMode(int64_t Cell) const;

  /// One bulk health scan of the current population (also used by the
  /// fault-injection harness to verify detection). Virtual: the ensemble
  /// runner scans member slices so quarantined members stop counting
  /// against population health.
  virtual bool scanIsHealthy() const;

  /// Cells currently violating the health policy.
  std::vector<int64_t> faultyCells() const;

  /// Layout-aware direct write into the population (fault injection and
  /// scenario setup). Out-of-range indices are ignored.
  void pokeState(int64_t Cell, int64_t Sv, double Value);
  void pokeExternal(size_t ExtIdx, int64_t Cell, double Value);

  /// The LUT tables this simulation steps against: the model's shared
  /// default set until a parameter change or mutableLuts() gives it a
  /// private one.
  const runtime::LutTableSet &luts() const { return *SimLuts; }

  /// Mutable access to this simulation's LUT tables (fault injection:
  /// corrupt rows to exercise the scalar-exact fallback). Detaches to a
  /// private copy first, so the model's shared tables — and every other
  /// simulator stepping against them — are never touched.
  runtime::LutTableSet &mutableLuts();

  /// Callback invoked after every completed nominal step (including steps
  /// re-run during recovery): a persistent-fault injector for tests and
  /// the faultinject tool.
  void setFaultInjector(std::function<void(Simulator &)> Injector);

protected:
  struct Checkpoint {
    StateBuffer::Snapshot Snap;
    double T = 0;
    int64_t StepCount = 0;
    size_t TraceLen = 0;
    bool Valid = false;
  };
  struct FrozenSnapshot {
    std::vector<double> Sv;
    std::vector<double> Ext;
  };

  void computeStage(double Dt);
  void voltageStage(double Dt);
  /// One integration substep of size Dt (scalar-fallback cells
  /// included). The virtual stepping core: the guarded run loop, the
  /// dt-halving recovery ladder and the durable-checkpoint machinery all
  /// drive whatever pipeline an override installs here.
  virtual void advance(double Dt);
  /// Hook for subclasses to stamp extra sections (tissue geometry) into
  /// a captured checkpoint.
  virtual void annotateCheckpoint(CheckpointData &C) const { (void)C; }
  /// Extra resume validation a subclass needs (e.g. tissue geometry
  /// cross-checks); runs after the base shape checks, before any state
  /// is touched. The base refuses tissue checkpoints — a diffusion-coupled
  /// field must not silently continue as an uncoupled population — and
  /// ensemble checkpoints, whose per-member status only an EnsembleRunner
  /// can restore.
  virtual Status validateResume(const CheckpointData &C) const {
    if (C.TissueNX > 0)
      return Status::error(
          "cannot resume: checkpoint is a tissue run (" +
          std::to_string(C.TissueNX) + "x" + std::to_string(C.TissueNY) +
          " grid); resume it with a tissue simulator");
    if (C.EnsembleMembers > 0)
      return Status::error(
          "cannot resume: checkpoint is an ensemble run (" +
          std::to_string(C.EnsembleMembers) +
          " members); resume it with an ensemble runner");
    return Status::success();
  }
  /// Hook invoked at the very end of a successful resumeFrom, after all
  /// base state is restored: subclasses re-derive whatever they keep
  /// outside the base arrays (per-member ensemble status, ...).
  virtual void applyResume(const CheckpointData &C) { (void)C; }
  /// Bookkeeping after the physics of one nominal step: injector hook,
  /// frozen-cell restore, step count, trace.
  void finishStep();
  /// Runs \p Steps nominal steps, each split into \p Substeps kernel
  /// steps of Dt/Substeps.
  void runWindow(int64_t Steps, int Substeps);
  void runGuarded(int64_t Target);
  /// Durable-checkpoint cadence + shutdown poll, called at step/window
  /// boundaries (after the scheduler's shard barrier). Returns true when
  /// the run should stop (shutdown requested; final checkpoint written).
  bool durableTick();
  /// Writes one durable checkpoint (timed, counted in telemetry).
  void writeDurableCheckpoint();
  /// Walks the degradation ladder for the window that just failed its
  /// health scan. Virtual: the ensemble runner replaces the
  /// population-wide ladder with a member-local one.
  virtual void recoverWindow(int64_t Window);
  /// scanIsHealthy plus scan-count/scan-time accounting.
  bool timedScan();
  /// Mirrors this run()'s RunReport deltas into the telemetry registry.
  void foldReportIntoTelemetry(const RunReport &Before);

  void takeCheckpoint();
  void rollback();
  bool ensureRecoveryModel();
  void runScalarFallback(double Dt, bool Gather);
  void degradeToScalar(int64_t Cell);
  /// Freezes \p Cell to its value in the last healthy checkpoint.
  void freezeCell(int64_t Cell);
  void restoreFrozenCells();

  /// Swaps in a new table set and repoints every stage at it.
  void setLuts(std::shared_ptr<const runtime::LutTableSet> L);
  /// Brings SimLuts up to date with Params, given the parameter vector
  /// \p BuiltAt the current tables were built for: refills only the
  /// tables that read a changed parameter.
  void refreshLuts(const std::vector<double> &BuiltAt);

  const exec::CompiledModel &Model;
  /// The tables the stages step against: the model's shared default set,
  /// or a private set after a parameter change or mutableLuts().
  std::shared_ptr<const runtime::LutTableSet> SimLuts;
  /// Non-null once mutableLuts() detached a private, writable copy (the
  /// same set as SimLuts); its contents no longer follow Params.
  std::shared_ptr<runtime::LutTableSet> DetachedLuts;
  SimOptions Opts;
  /// The one stepping loop (persistent shard plan); constructed before
  /// Buf so the population can be first-touch initialized per shard.
  Scheduler Sched;
  /// The population: state array in the compiled layout + externals.
  StateBuffer Buf;
  std::vector<double> Params;
  /// The single compute stage this driver runs each step (pointers into
  /// Buf and Params, stable for the simulator's lifetime, and into the
  /// current table set, which setLuts repoints on every swap).
  std::vector<KernelStage> Stages;
  int VmIdx = -1, IionIdx = -1;
  double T = 0;
  int64_t StepCount = 0;
  std::vector<double> Trace;

  // Guard-rail state.
  RunReport Report;
  Checkpoint Ck;
  /// Per-cell degradation mode; empty until a cell first degrades.
  std::vector<CellMode> Modes;
  std::unordered_map<int64_t, FrozenSnapshot> Frozen;
  /// Lazily compiled exact scalar model for the fallback path.
  std::unique_ptr<exec::CompiledModel> RecoveryModel;
  bool RecoveryCompileFailed = false;
  /// Scratch for the per-cell scalar fallback (cell-major: NumSv svs then
  /// one slot per external, per degraded cell).
  std::vector<double> FallbackBuf;
  std::vector<int64_t> FallbackCells;
  std::function<void(Simulator &)> Injector;

  // Durable checkpoint state.
  std::unique_ptr<CheckpointStore> Durable;
  int64_t LastDurableStep = 0;
  /// StepCount when the current run() started. Report.StepsTaken is only
  /// folded in when run() returns; captureCheckpoint adds the in-flight
  /// delta so mid-run checkpoints carry an accurate count.
  int64_t RunStartStep = 0;
  bool Resumed = false;
  bool Interrupted = false;
  StopReason LastStop = StopReason::None;
  /// Step target of the run() in flight (for progress callbacks).
  int64_t RunTarget = 0;
  int64_t LastProgressStep = 0;
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_SIMULATOR_H
