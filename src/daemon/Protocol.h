//===- Protocol.h - limpetd wire protocol and job model ---------*- C++-*-===//
//
// The daemon's control protocol is newline-delimited JSON over a Unix
// domain socket: one request object per line in, one response or event
// object per line out (docs/DAEMON.md has the full verb table). This
// header defines the parsed forms — the JobSpec a `submit` carries, the
// job lifecycle states — and the (de)serialization both the wire and the
// job journal share: a journaled job is exactly its submit spec, so a
// recovered daemon re-admits jobs through the same code path a live
// client uses.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_DAEMON_PROTOCOL_H
#define LIMPET_DAEMON_PROTOCOL_H

#include "daemon/Json.h"
#include "exec/CompiledModel.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace limpet {
namespace daemon {

/// Where a job sits in its lifecycle. Queued/Running are live;
/// everything after is terminal. Shutdown-interrupted jobs never reach a
/// terminal state in the journal — that absence is what marks them for
/// replay on restart.
enum class JobState : uint8_t {
  Queued = 0,
  Running,
  Finished,  ///< ran to its step target
  Failed,    ///< compile error, bad spec, unwritable state dir, ...
  Cancelled, ///< explicit cancel verb
  Expired,   ///< per-job wall-clock deadline passed
  Shed,      ///< evicted from a full queue by a higher-priority submit
};

std::string_view jobStateName(JobState S);
bool jobStateTerminal(JobState S);

/// Everything a `submit` request specifies about one simulation job.
/// Serialized verbatim into the journal's Accepted record, so a replayed
/// job re-runs under exactly the spec its client submitted.
struct JobSpec {
  uint64_t Id = 0; ///< assigned by the daemon at admission
  std::string Tenant = "default";
  /// Larger runs first among a tenant's queued jobs, and only a
  /// higher-priority submit may shed a queued lower-priority job.
  int Priority = 0;
  std::string Model; ///< registry model name

  // Simulation protocol (Simulator defaults when omitted on the wire).
  int64_t NumCells = 256;
  int64_t NumSteps = 1000;
  double Dt = 0.01;
  bool Guard = true;

  /// Wall-clock execution budget in seconds (0 = none). Measures run
  /// time, not queue wait: a job that waits out a burst is not punished
  /// for the daemon's backlog.
  double TimeoutSec = 0;
  /// Durable checkpoint cadence in steps: >0 is an explicit cadence,
  /// 0 opts out of periodic checkpoints (final checkpoint only), and -1
  /// (the omitted-on-the-wire default) takes the daemon's default
  /// cadence — jobs are resumable by default.
  int64_t CheckpointEveryN = -1;
  /// Progress event cadence in steps (0 = no progress streaming).
  int64_t ProgressEvery = 0;

  // Tissue protocol ("tissue_nx" > 0 engages the reaction-diffusion
  // driver; the grid's node count then replaces NumCells). Serialized
  // into the journal like every other field, so a replayed tissue job
  // resumes against a checkpoint carrying the identical geometry.
  int64_t TissueNX = 0; ///< 0 = plain uncoupled population
  int64_t TissueNY = 1;
  double TissueDx = 0.025;    ///< node spacing, cm
  double TissueSigma = 0.001; ///< effective diffusivity, cm^2/ms
  uint8_t TissueMethod = 0;   ///< sim::DiffusionMethod
  std::string TissueStim;     ///< --stim grammar; "" = default edge train

  // Ensemble protocol (a non-empty "ensemble_sweep" engages the
  // fault-isolated parameter-sweep runner; the sweep's member count then
  // replaces NumCells). Admission validates the grid grammar against
  // sim::EnsembleSpec::fromSweep, so a malformed sweep is rejected at
  // submit, and the journal carries the same string so a replayed sweep
  // resumes against a checkpoint with the identical spec hash.
  std::string EnsembleSweep;    ///< sim::EnsembleSpec::fromSweep grammar
  int64_t EnsembleCellsPer = 1; ///< cells each member simulates

  exec::EngineConfig Config; ///< engine configuration (baseline default)
  /// With "width": "auto" and no persisted tuning record: run the width
  /// autotuner (benchmark every registry point, persist the winner)
  /// instead of falling back to the capability heuristic.
  bool Autotune = false;
  /// Execution tier ("engine" on the wire: vm/native/auto, default vm).
  /// Native/auto jobs attach a specialized dlopen'd kernel when the box
  /// has a toolchain and fall back to the VM when it doesn't — a submit
  /// never fails because the daemon host lacks a compiler.
  exec::EngineTier Tier = exec::EngineTier::VM;
};

/// Parses the body of a `submit` request (also the journal payload) and
/// validates it with validateJobSpec. Unknown fields are ignored; a
/// field of the wrong type, an integer field holding a non-integral or
/// out-of-range number, and every spec validateJobSpec refuses are
/// recoverable errors.
Expected<JobSpec> parseJobSpec(const JsonValue &Body);

/// The value rules every run spec obeys, whichever client filled it
/// (a `submit` body, a journal payload, `limpetc --run`'s flags):
/// positive counts and dt, finite non-negative deadline, a tissue grid
/// whose node count fits int64_t, a stimulus protocol and sweep grammar
/// that parse, sweep and tissue not combined, and a valid engine config.
Status validateJobSpec(const JobSpec &Spec);

/// The spec as a JSON object — the journal payload and the `status`
/// verb's job rendering both use it.
JsonValue jobSpecToJson(const JobSpec &Spec);

//===----------------------------------------------------------------------===//
// Event lines (daemon -> client)
//===----------------------------------------------------------------------===//

/// {"event":"accepted","id":N,"queue_depth":D}
std::string acceptedEvent(uint64_t Id, size_t QueueDepth);
/// {"event":"rejected","reason":R[,"detail":D]}
std::string rejectedEvent(std::string_view Reason, std::string_view Detail);
/// {"event":"progress","id":N,"steps":S,"target":T}
std::string progressEvent(uint64_t Id, int64_t Steps, int64_t Target);
/// Terminal event: {"event":<state>,"id":N,"steps":S,...}. Finished jobs
/// carry the state checksum (printf %.17g, round-trippable) and the
/// degraded/frozen cell counts; failed jobs carry the error text.
/// Finished ensemble jobs additionally carry "members_ok" and
/// "members_quarantined" (partial-result delivery: a sweep with
/// quarantined members still finishes); MembersOk < 0 marks a
/// non-ensemble job and omits both fields.
std::string terminalEvent(JobState S, uint64_t Id, int64_t Steps,
                          double Checksum, int64_t Degraded, int64_t Frozen,
                          std::string_view Error, bool Replayed,
                          int64_t MembersOk = -1,
                          int64_t MembersQuarantined = -1);
/// {"event":"ok"[,"detail":D]}
std::string okEvent(std::string_view Detail = {});
/// {"event":"error","error":E}
std::string errorEvent(std::string_view Error);

} // namespace daemon
} // namespace limpet

#endif // LIMPET_DAEMON_PROTOCOL_H
