//===- JobRunner.h - One job, admission to terminal state -------*- C++-*-===//
//
// Executes a single accepted job end to end: resolve the model, compile
// it through the CompilerDriver (content-addressed cache, so repeat jobs
// skip codegen), probe and prepare the job's checkpoint directory, build
// the simulation through buildJobSimulation (the run path limpetc --run
// shares), run it with the job's cancel token and progress stream, and
// map the outcome to a terminal JobState with its journal record, NDJSON
// event, and on-disk result file.
//
// Fault isolation is the point: every failure mode — unknown model,
// compile error, invalid config, unwritable state dir — lands in a
// structured Failed record for *this* job, and a guarded run that froze
// cells still Finishes with the degradation counts attached. Nothing a
// job does can take down the daemon or its neighbours.
//
// A shutdown-interrupted job is the one non-terminal outcome: the runner
// leaves no terminal journal record, so the next daemon start replays
// the job from its newest valid checkpoint (bit-identical continuation,
// same guarantee as limpetc --resume).
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_DAEMON_JOBRUNNER_H
#define LIMPET_DAEMON_JOBRUNNER_H

#include "compiler/CompilerDriver.h"
#include "daemon/JobQueue.h"
#include "daemon/Journal.h"
#include "sim/Ensemble.h"
#include "sim/TissueSimulator.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace limpet {
namespace daemon {

/// A simulation built from a JobSpec. The lowered sweep model sits on
/// the heap (its address survives moves of this owner) and is declared
/// before Sim, so it outlives the EnsembleRunner that references it.
struct JobSimulation {
  std::unique_ptr<sim::EnsembleModel> Ensemble; ///< sweeps only
  std::unique_ptr<sim::Simulator> Sim;
  sim::TissueSimulator *Tissue = nullptr; ///< Sim, for a tissue spec
  sim::EnsembleRunner *Runner = nullptr;  ///< Sim, for a sweep
  /// Why a sweep asking for a native tier steps on the VM; ok otherwise.
  Status NativeErr;
};

/// The one path from a JobSpec to a runnable simulation, shared by
/// JobRunner::execute and `limpetc --run`. The spec's protocol fields are
/// written over \p Opts, which carries what a spec does not say (threads,
/// checkpoint directory, the cadence a spec of -1 takes, cancel token,
/// progress hook). A tissue spec gets a preflighted TissueSimulator; a
/// sweep (Spec.EnsembleSweep, or the explicit \p Members list) lowers R's
/// model from \p Source once under R's config and, off the VM tier,
/// attaches the lowered kernel's native twin; anything else a Simulator.
Expected<JobSimulation>
buildJobSimulation(const JobSpec &Spec, const compiler::CompileResult &R,
                   std::string_view Source, sim::SimOptions Opts,
                   std::optional<sim::EnsembleSpec> Members = std::nullopt);

class JobRunner {
public:
  struct Config {
    /// Daemon state directory; each job gets StateDir/job-<id>/ with its
    /// rotated checkpoints and result file.
    std::string StateDir;
    /// Worker threads each simulation steps with (they share the global
    /// ThreadPool; concurrent fork-joins serialize at its submit lock).
    unsigned SimThreads = 2;
    /// Durable checkpoint cadence for jobs that do not specify one.
    int64_t DefaultCheckpointEvery = 10000;
  };

  JobRunner(Config C, Journal &J) : Cfg(std::move(C)), Jrnl(J) {}

  /// Runs \p J to a terminal state (journal + result file + terminal
  /// event pushed to its ring), or to shutdown-interruption (no terminal
  /// record; the job replays on restart). Returns the state the job
  /// ended in — Queued when interrupted by shutdown.
  JobState execute(Job &J);

  /// The per-job state directory ("<state>/job-<id>").
  std::string jobDir(uint64_t Id) const;

private:
  JobState finish(Job &J, JobState S);
  JobState fail(Job &J, std::string Error);

  Config Cfg;
  Journal &Jrnl;
};

} // namespace daemon
} // namespace limpet

#endif // LIMPET_DAEMON_JOBRUNNER_H
