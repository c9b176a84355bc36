//===- Protocol.cpp -------------------------------------------------------===//

#include "daemon/Protocol.h"

#include "codegen/KernelSpec.h"
#include "sim/Diffusion.h"
#include "sim/Ensemble.h"
#include "sim/Stimulus.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

using namespace limpet;
using namespace limpet::daemon;

std::string_view daemon::jobStateName(JobState S) {
  switch (S) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Finished:
    return "finished";
  case JobState::Failed:
    return "failed";
  case JobState::Cancelled:
    return "cancelled";
  case JobState::Expired:
    return "expired";
  case JobState::Shed:
    return "shed";
  }
  return "unknown";
}

bool daemon::jobStateTerminal(JobState S) {
  return S != JobState::Queued && S != JobState::Running;
}

//===----------------------------------------------------------------------===//
// JobSpec <-> JSON
//===----------------------------------------------------------------------===//

static Status parseConfig(const JsonValue &Body, exec::EngineConfig &Cfg) {
  const JsonValue *C = Body.find("config");
  if (!C)
    return Status::success(); // baseline default
  if (!C->isObject())
    return Status::error("'config' must be an object");
  // A "preset" picks one of the paper's configurations; individual fields
  // then override it.
  std::string Preset = C->stringOr("preset", "baseline");
  // "width" is a number, or the string "auto" to defer the width/layout
  // choice to the tuning record / autotuner / capability heuristic.
  unsigned W = 0;
  bool WidthAuto = false;
  if (const JsonValue *WV = C->find("width")) {
    if (WV->isString()) {
      if (WV->asString() != "auto")
        return Status::error("'width' must be a number or \"auto\"");
      WidthAuto = true;
    } else {
      Expected<int64_t> WI = C->intField("width", 0, 0, 1024);
      if (!WI)
        return WI.status();
      W = unsigned(*WI);
    }
  }
  if (Preset == "baseline")
    Cfg = WidthAuto ? exec::EngineConfig::autoTuned()
                    : exec::EngineConfig::baseline();
  else if (Preset == "limpetmlir")
    Cfg = exec::EngineConfig::limpetMLIR(W ? W : 4);
  else if (Preset == "autovec")
    Cfg = exec::EngineConfig::autoVecLike(W ? W : 4);
  else if (Preset == "recovery")
    Cfg = exec::EngineConfig::recovery();
  else
    return Status::error("unknown config preset '" + Preset + "'");
  if (W)
    Cfg.Width = W;
  else if (WidthAuto)
    Cfg.Width = exec::EngineConfig::kWidthAuto;
  if (const JsonValue *L = C->find("layout")) {
    if (!L->isString())
      return Status::error("'layout' must be a string");
    std::optional<codegen::StateLayout> Layout =
        codegen::stateLayoutFromName(L->asString());
    if (!Layout)
      return Status::error("unknown layout '" + L->asString() + "'");
    Cfg.Layout = *Layout;
  }
  Cfg.FastMath = C->boolOr("fastmath", Cfg.FastMath);
  Cfg.EnableLuts = C->boolOr("luts", Cfg.EnableLuts);
  Cfg.CubicLut = C->boolOr("cubic", Cfg.CubicLut);
  Cfg.PassPipeline = C->stringOr("passes", Cfg.PassPipeline);
  return Status::success();
}

Expected<JobSpec> daemon::parseJobSpec(const JsonValue &Body) {
  if (!Body.isObject())
    return Status::error("job spec must be a JSON object");
  JobSpec Spec;
  // Integer fields go through the checked read: a number no integer type
  // holds is an error here, never an undefined cast. Value rules (signs,
  // cross-field constraints) are validateJobSpec's.
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  Status Err;
  auto readInt = [&](const char *Key, auto &Field, int64_t Lo, int64_t Hi) {
    Expected<int64_t> V = Body.intField(Key, int64_t(Field), Lo, Hi);
    if (!V && Err.isOk())
      Err = V.status();
    Field = std::remove_reference_t<decltype(Field)>(V.valueOr(0));
  };
  readInt("id", Spec.Id, 0, Max);
  readInt("priority", Spec.Priority, std::numeric_limits<int>::min(),
          std::numeric_limits<int>::max());
  readInt("cells", Spec.NumCells, Min, Max);
  readInt("steps", Spec.NumSteps, Min, Max);
  readInt("checkpoint_every", Spec.CheckpointEveryN, Min, Max);
  readInt("progress_every", Spec.ProgressEvery, Min, Max);
  readInt("tissue_nx", Spec.TissueNX, Min, Max);
  readInt("tissue_ny", Spec.TissueNY, Min, Max);
  readInt("ensemble_cells_per", Spec.EnsembleCellsPer, Min, Max);
  if (!Err)
    return Err;
  Spec.Tenant = Body.stringOr("tenant", Spec.Tenant);
  Spec.Model = Body.stringOr("model", "");
  Spec.Dt = Body.numberOr("dt", Spec.Dt);
  Spec.Guard = Body.boolOr("guard", Spec.Guard);
  Spec.Autotune = Body.boolOr("autotune", Spec.Autotune);
  Spec.TimeoutSec = Body.numberOr("timeout_sec", 0);
  // Any cadence below -1 means "unspecified", like an omitted field.
  if (Spec.CheckpointEveryN < -1)
    Spec.CheckpointEveryN = -1;
  Spec.TissueDx = Body.numberOr("tissue_dx", Spec.TissueDx);
  Spec.TissueSigma = Body.numberOr("tissue_sigma", Spec.TissueSigma);
  if (const JsonValue *DM = Body.find("tissue_method")) {
    if (!DM->isString())
      return Status::error("'tissue_method' must be a string");
    Expected<sim::DiffusionMethod> D =
        sim::parseDiffusionMethod(DM->asString());
    if (!D)
      return D.status();
    Spec.TissueMethod = uint8_t(*D);
  }
  Spec.TissueStim = Body.stringOr("tissue_stim", "");
  Spec.EnsembleSweep = Body.stringOr("ensemble_sweep", "");
  if (const JsonValue *E = Body.find("engine")) {
    if (!E->isString())
      return Status::error("'engine' must be a string");
    std::optional<exec::EngineTier> T =
        exec::engineTierFromName(E->asString());
    if (!T)
      return Status::error("unknown engine '" + E->asString() +
                           "' (vm, native, auto)");
    Spec.Tier = *T;
  }
  if (Status S = parseConfig(Body, Spec.Config); !S)
    return S;
  if (Status S = validateJobSpec(Spec); !S)
    return S;
  return Spec;
}

Status daemon::validateJobSpec(const JobSpec &Spec) {
  if (Spec.Tenant.empty())
    return Status::error("'tenant' must be non-empty");
  if (Spec.Model.empty())
    return Status::error("'model' is required");
  if (Spec.NumCells <= 0 || Spec.NumSteps <= 0)
    return Status::error("'cells' and 'steps' must be positive");
  if (!(Spec.Dt > 0) || !std::isfinite(Spec.Dt))
    return Status::error("'dt' must be positive");
  if (!(Spec.TimeoutSec >= 0) || !std::isfinite(Spec.TimeoutSec))
    return Status::error("'timeout_sec' must be non-negative");
  if (Spec.CheckpointEveryN < -1)
    return Status::error("'checkpoint_every' must be >= -1");
  if (Spec.TissueNX < 0 || Spec.TissueNY < 1)
    return Status::error("'tissue_nx' must be >= 0, 'tissue_ny' >= 1");
  int64_t Nodes = 0;
  if (__builtin_mul_overflow(Spec.TissueNX, Spec.TissueNY, &Nodes))
    return Status::error("'tissue_nx' x 'tissue_ny' overflows");
  if (!(Spec.TissueDx > 0) || !std::isfinite(Spec.TissueDx))
    return Status::error("'tissue_dx' must be positive");
  if (!(Spec.TissueSigma >= 0) || !std::isfinite(Spec.TissueSigma))
    return Status::error("'tissue_sigma' must be non-negative");
  if (!Spec.TissueStim.empty()) {
    // Reject a malformed protocol at submit time, not when the job runs.
    sim::TissueGrid G{Spec.TissueNX > 0 ? Spec.TissueNX : 1, Spec.TissueNY,
                      Spec.TissueDx};
    Expected<sim::StimulusProtocol> P =
        sim::StimulusProtocol::parse(Spec.TissueStim, G);
    if (!P)
      return P.status();
  }
  if (Spec.EnsembleCellsPer < 1)
    return Status::error("'ensemble_cells_per' must be >= 1");
  if (!Spec.EnsembleSweep.empty()) {
    if (Spec.TissueNX > 0)
      return Status::error(
          "'ensemble_sweep' and 'tissue_nx' are mutually exclusive");
    // Reject a malformed sweep at submit time, not when the job runs; the
    // model-specific checks (unknown parameter names) stay with the
    // runner, which owns the compiled model.
    Expected<sim::EnsembleSpec> E = sim::EnsembleSpec::fromSweep(
        Spec.EnsembleSweep, Spec.EnsembleCellsPer);
    if (!E)
      return E.status();
  }
  return Spec.Config.validate();
}

JsonValue daemon::jobSpecToJson(const JobSpec &Spec) {
  JsonValue Cfg = JsonValue::object();
  Cfg.set("preset", JsonValue::string("baseline"));
  if (Spec.Config.isAutoWidth())
    Cfg.set("width", JsonValue::string("auto"));
  else
    Cfg.set("width", JsonValue::number(int64_t(Spec.Config.Width)));
  Cfg.set("layout",
          JsonValue::string(codegen::stateLayoutName(Spec.Config.Layout)));
  Cfg.set("fastmath", JsonValue::boolean(Spec.Config.FastMath));
  Cfg.set("luts", JsonValue::boolean(Spec.Config.EnableLuts));
  Cfg.set("cubic", JsonValue::boolean(Spec.Config.CubicLut));
  if (!Spec.Config.PassPipeline.empty())
    Cfg.set("passes", JsonValue::string(Spec.Config.PassPipeline));

  JsonValue J = JsonValue::object();
  J.set("id", JsonValue::number(Spec.Id));
  J.set("tenant", JsonValue::string(Spec.Tenant));
  J.set("priority", JsonValue::number(int64_t(Spec.Priority)));
  J.set("model", JsonValue::string(Spec.Model));
  J.set("cells", JsonValue::number(Spec.NumCells));
  J.set("steps", JsonValue::number(Spec.NumSteps));
  J.set("dt", JsonValue::number(Spec.Dt));
  J.set("guard", JsonValue::boolean(Spec.Guard));
  J.set("autotune", JsonValue::boolean(Spec.Autotune));
  J.set("timeout_sec", JsonValue::number(Spec.TimeoutSec));
  J.set("checkpoint_every", JsonValue::number(Spec.CheckpointEveryN));
  J.set("progress_every", JsonValue::number(Spec.ProgressEvery));
  if (Spec.TissueNX > 0) {
    J.set("tissue_nx", JsonValue::number(Spec.TissueNX));
    J.set("tissue_ny", JsonValue::number(Spec.TissueNY));
    J.set("tissue_dx", JsonValue::number(Spec.TissueDx));
    J.set("tissue_sigma", JsonValue::number(Spec.TissueSigma));
    J.set("tissue_method",
          JsonValue::string(sim::diffusionMethodName(
              sim::DiffusionMethod(Spec.TissueMethod))));
    if (!Spec.TissueStim.empty())
      J.set("tissue_stim", JsonValue::string(Spec.TissueStim));
  }
  if (!Spec.EnsembleSweep.empty()) {
    J.set("ensemble_sweep", JsonValue::string(Spec.EnsembleSweep));
    J.set("ensemble_cells_per", JsonValue::number(Spec.EnsembleCellsPer));
  }
  J.set("engine", JsonValue::string(exec::engineTierName(Spec.Tier)));
  J.set("config", std::move(Cfg));
  return J;
}

//===----------------------------------------------------------------------===//
// Event lines
//===----------------------------------------------------------------------===//

std::string daemon::acceptedEvent(uint64_t Id, size_t QueueDepth) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("accepted"));
  J.set("id", JsonValue::number(Id));
  J.set("queue_depth", JsonValue::number(uint64_t(QueueDepth)));
  return J.str();
}

std::string daemon::rejectedEvent(std::string_view Reason,
                                  std::string_view Detail) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("rejected"));
  J.set("reason", JsonValue::string(Reason));
  if (!Detail.empty())
    J.set("detail", JsonValue::string(Detail));
  return J.str();
}

std::string daemon::progressEvent(uint64_t Id, int64_t Steps, int64_t Target) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("progress"));
  J.set("id", JsonValue::number(Id));
  J.set("steps", JsonValue::number(Steps));
  J.set("target", JsonValue::number(Target));
  return J.str();
}

std::string daemon::terminalEvent(JobState S, uint64_t Id, int64_t Steps,
                                  double Checksum, int64_t Degraded,
                                  int64_t Frozen, std::string_view Error,
                                  bool Replayed, int64_t MembersOk,
                                  int64_t MembersQuarantined) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string(jobStateName(S)));
  J.set("id", JsonValue::number(Id));
  J.set("steps", JsonValue::number(Steps));
  if (S == JobState::Finished) {
    // The checksum travels as a string: %.17g round-trips the double
    // exactly and the smoke test compares it textually.
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Checksum);
    J.set("checksum", JsonValue::string(Buf));
    J.set("degraded", JsonValue::number(Degraded));
    J.set("frozen", JsonValue::number(Frozen));
    if (MembersOk >= 0) {
      J.set("members_ok", JsonValue::number(MembersOk));
      J.set("members_quarantined", JsonValue::number(MembersQuarantined));
    }
  }
  if (!Error.empty())
    J.set("error", JsonValue::string(Error));
  if (Replayed)
    J.set("replayed", JsonValue::boolean(true));
  return J.str();
}

std::string daemon::okEvent(std::string_view Detail) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("ok"));
  if (!Detail.empty())
    J.set("detail", JsonValue::string(Detail));
  return J.str();
}

std::string daemon::errorEvent(std::string_view Error) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("error"));
  J.set("error", JsonValue::string(Error));
  return J.str();
}
