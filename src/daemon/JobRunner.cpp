//===- JobRunner.cpp ------------------------------------------------------===//

#include "daemon/JobRunner.h"

#include "compiler/Artifact.h"
#include "compiler/KernelEmitter.h"
#include "compiler/Serialize.h"
#include "easyml/Sema.h"
#include "models/Registry.h"
#include "support/Telemetry.h"

#include <chrono>
#include <thread>

using namespace limpet;
using namespace limpet::daemon;

std::string JobRunner::jobDir(uint64_t Id) const {
  return Cfg.StateDir + "/job-" + std::to_string(Id);
}

static Journal::Kind journalKind(JobState S) {
  switch (S) {
  case JobState::Finished:
    return Journal::Kind::Finished;
  case JobState::Failed:
    return Journal::Kind::Failed;
  case JobState::Cancelled:
    return Journal::Kind::Cancelled;
  case JobState::Expired:
    return Journal::Kind::Expired;
  case JobState::Shed:
    return Journal::Kind::Shed;
  default:
    return Journal::Kind::Started;
  }
}

/// Terminal events must not be lost to a momentarily full ring the way
/// progress samples may be; retry briefly, but never block the runner on
/// a dead client (the result file and journal carry the truth anyway).
static void pushTerminal(Job &J, const std::string &Line) {
  if (!J.Ring)
    return;
  for (int Attempt = 0; Attempt != 500; ++Attempt) {
    if (J.Ring->tryPush(Line) || J.Ring->closed())
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

JobState JobRunner::finish(Job &J, JobState S) {
  std::string Event =
      terminalEvent(S, J.Spec.Id, J.StepsDone, J.Checksum, J.Degraded,
                    J.Frozen, J.Error, J.Replayed, J.MembersOk,
                    J.MembersQuarantined);
  // Journal first (the durable truth), then the result file (what the
  // smoke harness and late status queries read), then the live stream.
  Jrnl.append(journalKind(S), J.Spec.Id, J.Error);
  compiler::writeFileAtomic(Event + "\n", jobDir(J.Spec.Id) + "/result.json");
  J.State.store(S, std::memory_order_release);
  pushTerminal(J, Event);
  telemetry::counter(std::string("daemon.jobs.") +
                     std::string(jobStateName(S)))
      .add();
  telemetry::counter("daemon.tenant." + J.Spec.Tenant + "." +
                     std::string(jobStateName(S)))
      .add();
  return S;
}

JobState JobRunner::fail(Job &J, std::string Error) {
  J.Error = std::move(Error);
  return finish(J, JobState::Failed);
}

JobState JobRunner::execute(Job &J) {
  Jrnl.append(Journal::Kind::Started, J.Spec.Id);
  telemetry::counter("daemon.jobs.started").add();
  if (J.Replayed)
    telemetry::counter("daemon.jobs.replayed").add();

  const models::ModelEntry *Entry = models::findModel(J.Spec.Model);
  if (!Entry)
    return fail(J, "unknown model '" + J.Spec.Model + "'");

  // Compile through the driver: the content-addressed cache makes repeat
  // jobs (and replays) warm starts that skip every codegen stage.
  compiler::DriverOptions DOpts;
  DOpts.Config = J.Spec.Config;
  DOpts.Tier = J.Spec.Tier;
  DOpts.Autotune = J.Spec.Autotune;
  compiler::CompilerDriver Driver(DOpts);
  compiler::CompileResult R = Driver.compileEntry(*Entry);
  if (!R)
    return fail(J, "compile failed: " + R.Err.message());

  std::string Dir = jobDir(J.Spec.Id);
  sim::SimOptions Opts;
  Opts.NumThreads = Cfg.SimThreads;
  Opts.Checkpoint.Dir = Dir + "/ckpt";
  // The cadence of a spec that leaves it unspecified (-1): the daemon's
  // default keeps jobs resumable without every client opting in; an
  // explicit 0 means final-checkpoint only (the interrupt path still
  // writes one).
  Opts.Checkpoint.EveryN = Cfg.DefaultCheckpointEvery;
  Opts.Cancel = &J.Token;
  if (J.Spec.ProgressEvery > 0 && J.Ring) {
    Opts.ProgressEvery = J.Spec.ProgressEvery;
    EventRing *Ring = J.Ring.get();
    uint64_t Id = J.Spec.Id;
    // tryPush only: a stalled client drops progress samples, it never
    // slows the stepping loop.
    Opts.Progress = [Ring, Id](int64_t Steps, int64_t Target) {
      Ring->tryPush(progressEvent(Id, Steps, Target));
    };
  }

  // The journal carries every spec field, so a replayed job rebuilds an
  // identical driver and its checkpoint's tissue/ensemble section
  // matches. Admission already validated the sweep grammar; building
  // re-parses it, which keeps replay safe against a hand-edited journal.
  Expected<JobSimulation> Built =
      buildJobSimulation(J.Spec, R, Entry->Source, Opts);
  if (!Built)
    return fail(J, Built.status().message());
  sim::Simulator &S = *Built->Sim;
  if (Built->Tissue)
    telemetry::counter("daemon.jobs.tissue").add();
  if (Built->Runner)
    telemetry::counter("daemon.jobs.ensemble").add();
  // The native tier degrades, never fails: a job asking for it on a box
  // without a toolchain runs on the VM (bit-identical results), and the
  // fallback is visible in telemetry rather than the job outcome. Counted
  // on the kernel that steps: a sweep's lowered model, not the base one.
  if (J.Spec.Tier != exec::EngineTier::VM) {
    telemetry::counter(S.model().usingNativeTier()
                           ? "daemon.jobs.native"
                           : "daemon.jobs.native_fallback")
        .add();
  }

  // Replay path: continue from the newest valid checkpoint. A job that
  // has none (killed before its first checkpoint) starts over — same
  // spec, same result.
  if (J.Replayed) {
    sim::CheckpointStore Store(Opts.Checkpoint.Dir);
    if (Expected<sim::CheckpointData> C = Store.loadNewestValid()) {
      if (Status St = S.resumeFrom(*C); !St)
        telemetry::counter("daemon.jobs.resume_failed").add();
    }
  }

  if (J.Spec.TimeoutSec > 0)
    J.Token.setDeadlineAfter(J.Spec.TimeoutSec);

  S.run();

  J.StepsDone = S.stepsDone();
  // The interruption check MUST come before any terminal accounting —
  // ensemble quarantines included. A member that hit its dt-floor while
  // the daemon was shutting down is a *non-terminal* outcome: the final
  // checkpoint's ensemble section already pins its quarantine, and the
  // journal's Accepted-without-terminal shape replays the job, which
  // resumes with that member still quarantined. Writing a terminal
  // record here instead would turn a routine restart into a lost sweep.
  if (S.interrupted()) {
    switch (S.stopReason()) {
    case sim::StopReason::Cancelled:
      return finish(J, JobState::Cancelled);
    case sim::StopReason::DeadlineExpired:
      return finish(J, JobState::Expired);
    default:
      // Process shutdown: deliberately no terminal record. The journal's
      // Accepted-without-terminal shape marks this job for replay, and
      // its final checkpoint is already on disk.
      J.State.store(JobState::Queued, std::memory_order_release);
      telemetry::counter("daemon.jobs.interrupted").add();
      return JobState::Queued;
    }
  }

  J.Checksum = S.stateChecksum();
  J.Degraded = S.report().CellsDegraded;
  J.Frozen = S.report().CellsFrozen;
  if (const sim::EnsembleRunner *ER = Built->Runner) {
    // Partial-result delivery: the sweep finishes with every member
    // accounted for; quarantined members are reported, never fatal.
    J.MembersOk = ER->membersOk();
    J.MembersQuarantined = ER->membersQuarantined();
    compiler::writeFileAtomic(ER->memberStatsNdjson(),
                              Dir + "/members.ndjson");
  }
  return finish(J, JobState::Finished);
}

Expected<JobSimulation>
daemon::buildJobSimulation(const JobSpec &Spec,
                           const compiler::CompileResult &R,
                           std::string_view Source, sim::SimOptions Opts,
                           std::optional<sim::EnsembleSpec> Members) {
  Opts.NumCells = Spec.NumCells;
  Opts.NumSteps = Spec.NumSteps;
  Opts.Dt = Spec.Dt;
  Opts.StimPeriod = 100.0;
  Opts.Guard.Enabled = Spec.Guard;
  if (Spec.CheckpointEveryN >= 0)
    Opts.Checkpoint.EveryN = Spec.CheckpointEveryN;
  Opts.Checkpoint.SourceHash = R.SourceHash;
  if (!Opts.Checkpoint.Dir.empty()) {
    // Probe up front: an unwritable directory is one clear failure before
    // the run, not a crash at its first checkpoint.
    sim::CheckpointStore Store(Opts.Checkpoint.Dir, Opts.Checkpoint.Retain);
    if (Status St = Store.prepare(); !St)
      return Status::error("checkpoint dir: " + St.message());
  }

  JobSimulation JS;
  if (Spec.TissueNX > 0) {
    if (Members)
      return Status::error("an ensemble cannot combine with a tissue grid");
    // Reaction-diffusion over the spec's grid; its node count replaces
    // NumCells.
    sim::TissueOptions TO;
    TO.Grid = {Spec.TissueNX, Spec.TissueNY, Spec.TissueDx};
    TO.Sigma = Spec.TissueSigma;
    TO.Method = sim::DiffusionMethod(Spec.TissueMethod);
    if (!Spec.TissueStim.empty()) {
      Expected<sim::StimulusProtocol> P =
          sim::StimulusProtocol::parse(Spec.TissueStim, TO.Grid);
      if (!P)
        return Status::error("tissue stimulus: " + P.status().message());
      TO.Stim = *P;
    }
    TO.Sim = Opts;
    auto TS = std::make_unique<sim::TissueSimulator>(*R.Model, TO);
    if (Status St = TS->preflight(); !St)
      return Status::error("tissue preflight: " + St.message());
    JS.Tissue = TS.get();
    JS.Sim = std::move(TS);
    return JS;
  }

  if (!Members && !Spec.EnsembleSweep.empty()) {
    Expected<sim::EnsembleSpec> E = sim::EnsembleSpec::fromSweep(
        Spec.EnsembleSweep, Spec.EnsembleCellsPer);
    if (!E)
      return E.status();
    Members = std::move(*E);
  }
  if (!Members) {
    JS.Sim = std::make_unique<sim::Simulator>(*R.Model, Opts);
    return JS;
  }

  // One kernel for the whole sweep: the swept parameters lower to
  // per-cell externals and the lowered model compiles once under the
  // configuration the driver already resolved (so width "auto" applies
  // to the whole population). Unknown parameter names fail here.
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(R.ModelName, Source, Diags);
  if (!Info)
    return Status::error("ensemble frontend: " + Diags.str());
  Expected<sim::EnsembleModel> EM =
      sim::buildEnsembleModel(*Info, std::move(*Members), R.Model->config());
  if (!EM)
    return Status::error("ensemble: " + EM.status().message());
  JS.Ensemble = std::make_unique<sim::EnsembleModel>(std::move(*EM));
  if (Spec.Tier != exec::EngineTier::VM) {
    // The base model's cached .so must never serve the lowered program,
    // so the key extends the base compile key with the lowering.
    uint64_t Key = compiler::fnv1a64("ensemble", R.CacheKey);
    for (const std::string &P : JS.Ensemble->Swept)
      Key = compiler::fnv1a64(P, Key);
    compiler::NativeAttachResult N = compiler::getOrEmitNativeKernel(
        *JS.Ensemble->Model, Key, R.ModelName + "_ensemble");
    if (N)
      JS.Ensemble->Model->attachNative(std::move(N.Kernel));
    else
      JS.NativeErr = N.Err;
  }
  auto ER = std::make_unique<sim::EnsembleRunner>(*JS.Ensemble, Opts);
  JS.Runner = ER.get();
  JS.Sim = std::move(ER);
  return JS;
}
