//===- Jobs.cpp - Daemon job latency --------------------------------------===//
//
// An in-process daemon::Server (2 runners, 1 sim thread each, a fresh
// state dir, fsync as shipped) serves two closed-loop clients over its
// Unix socket, one per tenant:
//
//  * "lut": guarded Courtemanche population jobs with checkpoint_every,
//    so checkpoint writes run beside compute and every job rebuilds its
//    LUTs in the Simulator constructor;
//  * "sweep": small HodgkinHuxley ensemble_sweep jobs.
//
// Each client submits its next job only after the previous one reached a
// terminal event. The seed draws the sweep values and the submission
// order of four job variants per tenant.
//
//  * setup_s: Server::start on a fresh state dir and an empty compile
//    cache, then one 1-step job per tenant, each submitted when the one
//    before ended: the time to the first completed step of every job
//    model. Median of repetitions.
//  * warm_setup_s: the same over a copy of the journal the traffic left
//    (replay and compaction) and the traffic's disk compile cache, with
//    an empty memory tier.
//  * cell_steps_per_s: cell-steps of the finished jobs per second of
//    traffic, at least 100 jobs.
//  * vm_cell_steps_per_s: the two job models stepped in-process at the
//    jobs' 64 cells (VM tier, 1 thread, guarded, no daemon): twice 64
//    over the summed median per-step times of their windows.
//
// The traffic runs in segments against one daemon and state dir. Between
// two segments the daemon is down: a cold set-up runs, the models step
// in-process, and the daemon's restart is the warm set-up; so set-ups and
// windows are spread over the whole run.
//
// Submit-to-terminal latency (median and p90) and the daemon phases are
// diagnostics. Checks: every job finishes with members_ok == members, and
// its checksum equals an untimed in-process JobRunner run of the same spec.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Stats.h"

#include "compiler/CompilerDriver.h"
#include "daemon/JobRunner.h"
#include "daemon/Json.h"
#include "daemon/Protocol.h"
#include "daemon/Server.h"
#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Checkpoint.h"
#include "sim/Ensemble.h"
#include "sim/Simulator.h"
#include "support/Diagnostics.h"
#include "support/Signals.h"
#include "support/Telemetry.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>

#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace perfbench;
using namespace limpet;

namespace {

constexpr unsigned kRunners = 2;
constexpr int kSetupReps = 9;
/// Individually timed steps per job model in the traced pass.
constexpr int kTimedSteps = 500;
/// Cells of every job (population jobs, and 16 members x 4 cells).
constexpr int64_t kJobCells = 64;
/// Steps per in-process window, and before an in-process simulation is
/// built afresh (a guarded Courtemanche run trips later in its action
/// potential, and no timed window may include the recovery ladder).
constexpr int64_t kStepWindow = 1024;
constexpr int64_t kHorizon = 4096;
/// In-process simulations per job model.
constexpr int kReplicas = 2;
constexpr size_t kMinJobs = 100;
constexpr int kVariants = 4;
/// A job that has not ended after this long counts as failed.
constexpr double kJobTimeoutS = 60;
const double kInf = std::numeric_limits<double>::infinity();

/// One NDJSON connection to the daemon.
class Client {
public:
  Client() = default;
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to \p Path, retrying for up to \p TimeoutS seconds.
  bool connect(const std::string &Path, double TimeoutS) {
    Clock::time_point T0 = Clock::now();
    do {
      Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (Fd < 0)
        return false;
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
          0)
        return true;
      ::close(Fd);
      Fd = -1;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    } while (secondsSince(T0) < TimeoutS);
    return false;
  }

  bool send(const std::string &Line) {
    std::string Framed = Line + "\n";
    size_t Off = 0;
    while (Off < Framed.size()) {
      ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += size_t(N);
    }
    return true;
  }

  /// Reads one event line; null on timeout, EOF or unparseable input.
  std::optional<daemon::JsonValue> read(double TimeoutS) {
    Clock::time_point T0 = Clock::now();
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        Expected<daemon::JsonValue> J = daemon::JsonValue::parse(Line);
        if (!J)
          return std::nullopt;
        return std::move(*J);
      }
      double Left = TimeoutS - secondsSince(T0);
      if (Left <= 0)
        return std::nullopt;
      pollfd P{Fd, POLLIN, 0};
      int R = ::poll(&P, 1, int(std::min(Left, 1.0) * 1000) + 1);
      if (R < 0 && errno == EINTR)
        continue;
      if (R < 0)
        return std::nullopt;
      if (R == 0)
        continue;
      char Tmp[4096];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0)
        return std::nullopt;
      Buf.append(Tmp, size_t(N));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// One job variant: the submit body and the members it must finish with.
struct Variant {
  std::string Tenant;
  daemon::JsonValue Body;
  int64_t Members = -1; ///< -1 for population jobs
  int64_t CellSteps = 0;
  double Checksum = NAN; ///< from the in-process reference run
};

/// Every job runs the paper's limpetMLIR configuration at width 8, as the
/// other workloads do.
daemon::JsonValue limpetMlirConfig() {
  daemon::JsonValue C = daemon::JsonValue::object();
  C.set("preset", daemon::JsonValue::string("limpetmlir"));
  C.set("width", daemon::JsonValue::number(int64_t(8)));
  return C;
}

std::vector<Variant> drawVariants(Rng &R) {
  std::vector<Variant> V;
  for (int I = 0; I != kVariants; ++I) {
    // Population jobs: LUT-heavy, guarded, four checkpoints each.
    int64_t Steps = 1000 + 40 * I;
    daemon::JsonValue B = daemon::JsonValue::object();
    B.set("tenant", daemon::JsonValue::string("lut"));
    B.set("model", daemon::JsonValue::string("Courtemanche"));
    B.set("cells", daemon::JsonValue::number(int64_t(64)));
    B.set("steps", daemon::JsonValue::number(Steps));
    B.set("guard", daemon::JsonValue::boolean(true));
    B.set("config", limpetMlirConfig());
    B.set("checkpoint_every", daemon::JsonValue::number(Steps / 4));
    V.push_back({"lut", std::move(B), -1, 64 * Steps, NAN});
  }
  for (int I = 0; I != kVariants; ++I) {
    // Sweep jobs: 8 gK values x 2 gNa values, 4 cells per member.
    char Sweep[128];
    double Lo = std::round(R.uniform(30, 34) * 10) / 10;
    double Hi = std::round(R.uniform(38, 42) * 10) / 10;
    double Na = std::round(R.uniform(110, 130) * 10) / 10;
    std::snprintf(Sweep, sizeof(Sweep), "gK=%g:%g:8;gNa=%g,120", Lo, Hi, Na);
    daemon::JsonValue B = daemon::JsonValue::object();
    B.set("tenant", daemon::JsonValue::string("sweep"));
    B.set("model", daemon::JsonValue::string("HodgkinHuxley"));
    int64_t Steps = 4000 + 100 * I;
    B.set("steps", daemon::JsonValue::number(Steps));
    B.set("guard", daemon::JsonValue::boolean(true));
    B.set("config", limpetMlirConfig());
    B.set("ensemble_sweep", daemon::JsonValue::string(Sweep));
    B.set("ensemble_cells_per", daemon::JsonValue::number(int64_t(4)));
    V.push_back({"sweep", std::move(B), 16, 16 * 4 * Steps, NAN});
  }
  return V;
}

/// What one job looked like from its client.
struct JobRecord {
  int Variant = 0;
  uint64_t Id = 0;
  Clock::time_point Submit, Accepted, Terminal;
  bool Rejected = false;
  bool Finished = false;
  double Checksum = NAN;
  int64_t MembersOk = -1;
  std::string Why; ///< failure detail
};

/// Submits one job and waits for its terminal event.
JobRecord runJob(Client &C, const Variant &V, int Index) {
  JobRecord J;
  J.Variant = Index;
  daemon::JsonValue Req = V.Body;
  Req.set("verb", daemon::JsonValue::string("submit"));
  J.Submit = Clock::now();
  if (!C.send(Req.str())) {
    J.Why = "submit failed: connection lost";
    return J;
  }
  for (;;) {
    std::optional<daemon::JsonValue> E = C.read(kJobTimeoutS);
    if (!E) {
      J.Why = "no answer to submit";
      return J;
    }
    std::string Ev = E->stringOr("event", "");
    if (Ev == "accepted") {
      J.Accepted = Clock::now();
      J.Id = uint64_t(E->numberOr("id", 0));
      break;
    }
    if (Ev == "rejected" || Ev == "error") {
      J.Rejected = true;
      J.Why = "rejected: " + E->stringOr("reason", E->stringOr("error", ""));
      return J;
    }
  }
  for (;;) {
    std::optional<daemon::JsonValue> E = C.read(kJobTimeoutS);
    if (!E) {
      J.Why = "job " + std::to_string(J.Id) + " never ended";
      return J;
    }
    if (uint64_t(E->numberOr("id", 0)) != J.Id)
      continue;
    std::string Ev = E->stringOr("event", "");
    if (Ev == "progress")
      continue;
    J.Terminal = Clock::now();
    J.Finished = Ev == "finished";
    J.Checksum = std::strtod(E->stringOr("checksum", "nan").c_str(), nullptr);
    J.MembersOk = E->intOr("members_ok", -1);
    if (!J.Finished)
      J.Why = "job " + std::to_string(J.Id) + " ended " + Ev + " " +
              E->stringOr("error", "");
    return J;
  }
}

/// A server with its accept loop on a thread; shut down on destruction.
struct RunningServer {
  daemon::Server Srv;
  std::thread Loop;
  std::string Socket;

  explicit RunningServer(daemon::Server::Options O)
      : Srv(O), Socket(O.SocketPath) {}
  Status start() {
    Status S = Srv.start();
    if (S)
      Loop = std::thread([this] { Srv.serve(); });
    return S;
  }
  ~RunningServer() {
    if (!Loop.joinable())
      return;
    Client C;
    if (C.connect(Socket, 5) && C.send(R"({"verb":"shutdown"})"))
      (void)C.read(5);
    else
      support::requestShutdown(); // serve() polls this flag too
    Loop.join();
    // serve() raises the process-wide shutdown flag while draining; clear
    // it so later simulations in this process run to their step targets.
    support::clearShutdownRequest();
  }
};

daemon::Server::Options serverOptions(const std::string &Dir) {
  daemon::Server::Options O;
  O.SocketPath = Dir + "/d.sock";
  O.StateDir = Dir + "/state";
  O.Runners = kRunners;
  O.SimThreads = 1;
  return O;
}

/// Per-layer probes on the models and shapes the jobs run (traced pass
/// only): the population jobs' Courtemanche and the sweeps' HodgkinHuxley,
/// each at the jobs' 64 cells, in a cache of their own.
void probeLayers(Pass &P, const std::vector<Variant> &Vars) {
  MetricMap &L = P.Out.PerLayer;
  Expected<daemon::JobSpec> Specs[2] = {daemon::parseJobSpec(Vars.front().Body),
                                        daemon::parseJobSpec(Vars.back().Body)};
  P.Ops.check(Specs[0] && Specs[1], "job specs parse");
  if (!Specs[0] || !Specs[1])
    return;
  const models::ModelEntry *Entries[2];
  compiler::DriverOptions Opts[2];
  for (int I = 0; I != 2; ++I) {
    Entries[I] = models::findModel(Specs[I]->Model);
    P.Ops.check(Entries[I] != nullptr, Specs[I]->Model + " in the registry");
    if (!Entries[I])
      return;
    Opts[I].Config = Specs[I]->Config;
  }
  constexpr int64_t Cells = 64;
  constexpr int Reps = 5;

  // Cold compiles (each repetition in a fresh, empty cache), then
  // disk-tier hits over the last one, then the native tier.
  compiler::CompileCache &Cache = compiler::CompileCache::global();
  CompileLedger Ledger;
  std::optional<compiler::CompileResult> Vm[2];
  for (int Rep = 0; Rep != Reps; ++Rep) {
    Cache.setDiskDir(P.freshDir("probe-cache-" + std::to_string(Rep)));
    Ledger.beginRep();
    for (int I = 0; I != 2; ++I) {
      Cache.clearMemory();
      double S = timedCall(P.Spans, "compiler.compile.cold", [&] {
        Vm[I].emplace(compiler::CompilerDriver(Opts[I]).compileEntry(*Entries[I]));
      });
      P.Ops.check(*Vm[I] && !Vm[I]->CacheHit,
                  "cold compile of " + Entries[I]->Name);
      if (!*Vm[I])
        return;
      Ledger.addCold(*Vm[I], S);
    }
  }
  Ledger.emit(L);
  std::vector<double> DiskHit;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    double Sum = 0;
    for (int I = 0; I != 2; ++I) {
      Cache.clearMemory();
      Sum += timedCall(P.Spans, "compiler.compile.disk_hit", [&] {
        Vm[I].emplace(compiler::CompilerDriver(Opts[I]).compileEntry(*Entries[I]));
      });
      P.Ops.check(*Vm[I] && Vm[I]->DiskHit,
                  "warm compile of " + Entries[I]->Name +
                      " did not hit the disk tier");
      if (!*Vm[I])
        return;
    }
    DiskHit.push_back(Sum);
  }
  L["compiler.disk_hit_s"] = median(DiskHit);

  MetricMap Acc;
  std::vector<double> Steps;
  for (int I = 0; I != 2; ++I) {
    const exec::CompiledModel &M = *Vm[I]->Model;
    compiler::DriverOptions N = Opts[I];
    N.Tier = exec::EngineTier::Native;
    std::optional<compiler::CompileResult> Native;
    Acc["compiler.native_cc_s"] +=
        timedCall(P.Spans, "compiler.compile.native", [&] {
          Native.emplace(compiler::CompilerDriver(N).compileEntry(*Entries[I]));
        });
    P.Ops.check(*Native && Native->NativeAttached,
                "native tier for " + Entries[I]->Name + ": " +
                    Native->NativeErr.message());
    if (!*Native || !Native->NativeAttached)
      return;
    Acc["exec.lut_build_s"] += probeLutBuildS(P, M, Reps);
    Acc["exec.native.ns_per_cell_step"] +=
        probeKernelNs(P, *Native->Model, Cells, 0.01, 99) / 2;
    Acc["exec.vm.ns_per_cell_step"] += probeKernelNs(P, M, Cells, 0.01, 99) / 2;
    Acc["exec.computed_bytes_per_cell_step"] +=
        computedBytesPerCellStep(M, Cells) / 2;

    sim::SimOptions O;
    O.NumCells = Cells;
    O.NumSteps = Specs[I]->NumSteps;
    O.NumThreads = 1;
    O.Guard.Enabled = true;
    std::vector<double> Construct, FirstStep;
    for (int Rep = 0; Rep != Reps; ++Rep) {
      std::optional<sim::Simulator> S;
      Construct.push_back(
          timedCall(P.Spans, "sim.construct", [&] { S.emplace(M, O); }));
      FirstStep.push_back(
          timedCall(P.Spans, "sim.first_step", [&] { S->step(); }));
    }
    Acc["sim.construct_s"] += median(Construct);
    Acc["sim.first_step_s"] += median(FirstStep);

    sim::Simulator S(M, O);
    for (int J = 0; J != kTimedSteps; ++J)
      Steps.push_back(timedCall(P.Spans, "sim.step", [&] { S.step(); }));
    Acc["sim.health_scan_s_per_step"] +=
        medianCall(P, "sim.scan", 99, [&] { (void)S.scanIsHealthy(); }) /
        double(S.options().Guard.ScanInterval);
    // One checkpoint write as a population job makes one.
    if (I == 0)
      probeCheckpoint(P, S, P.freshDir("ckpt-probe"), Acc);
  }
  Cache.setDiskDir("");
  L.insert(Acc.begin(), Acc.end());
  emitStepPercentiles(P, Steps, L);
  L["runtime.pool.dispatch_s"] = probeDispatchS(P, 1);

  DiagnosticEngine Diags;
  const models::ModelEntry *HH = Entries[1];
  auto Info = easyml::compileModelInfo(HH->Name, HH->Source, Diags);
  P.Ops.check(bool(Info), "model info of " + HH->Name);
  if (!Info)
    return;
  P.Out.Diagnostics["sim.ensemble.build_s"] =
      medianCall(P, "sim.ensemble.build", Reps, [&] {
        Expected<sim::EnsembleSpec> E = sim::EnsembleSpec::fromSweep(
            Specs[1]->EnsembleSweep, Specs[1]->EnsembleCellsPer);
        if (E)
          (void)sim::buildEnsembleModel(*Info, std::move(*E), Specs[1]->Config);
      });
}

/// The set-up jobs: each tenant's first variant cut to one step.
std::vector<Variant> firstStepJobs(const std::vector<Variant> &Vars) {
  std::vector<Variant> Jobs;
  for (size_t I = 0; I < Vars.size(); I += kVariants) {
    Variant V = Vars[I];
    V.Body.set("steps", daemon::JsonValue::number(int64_t(1)));
    daemon::JsonValue Body = daemon::JsonValue::object();
    for (const auto &[Key, Value] : V.Body.members())
      if (Key != "checkpoint_every")
        Body.set(Key, Value);
    V.Body = std::move(Body);
    Jobs.push_back(std::move(V));
  }
  return Jobs;
}

uint64_t counter(const char *Name) {
  return telemetry::Registry::instance().value(Name);
}

} // namespace

void perfbench::runJobs(Pass &P) {
  // The daemon compiles through the process-wide cache.
  compiler::CompileCache &Cache = compiler::CompileCache::global();
  Rng R(P.Opts.Seed);
  std::vector<Variant> Vars = drawVariants(R);
  // Submission order: each tenant cycles through a seeded shuffle of its
  // variants, so every seed runs the same mix of work.
  std::vector<int> Order[2];
  for (int T = 0; T != 2; ++T) {
    for (int I = 0; I != kVariants; ++I)
      Order[T].push_back(T * kVariants + I);
    for (int I = kVariants - 1; I > 0; --I)
      std::swap(Order[T][size_t(I)], Order[T][R.below(uint64_t(I) + 1)]);
  }

  // Set-up: Server::start of \p Srv, then the first-step jobs one after
  // another on one connection. Returns its seconds, or NAN on failure.
  std::vector<Variant> SetUpJobs = firstStepJobs(Vars);
  std::vector<double> Start;
  auto SetUp = [&](RunningServer &Srv, const char *Span) {
    ScopedSpan S(P.Spans, Span);
    Clock::time_point T0 = Clock::now();
    Status St = Status::success();
    Start.push_back(
        timedCall(P.Spans, "daemon.start", [&] { St = Srv.start(); }));
    P.Ops.check(bool(St), "daemon start: " + St.message());
    if (!St)
      return double(NAN);
    Client C;
    bool Ok = C.connect(Srv.Socket, 10);
    P.Ops.check(Ok, "connection to a started daemon");
    for (size_t I = 0; Ok && I != SetUpJobs.size(); ++I) {
      JobRecord J = runJob(C, SetUpJobs[I], int(I));
      Ok = J.Finished && (SetUpJobs[I].Members < 0 ||
                          J.MembersOk == SetUpJobs[I].Members);
      P.Ops.check(Ok, "set-up job: " + J.Why);
    }
    return Ok ? secondsSince(T0) : double(NAN);
  };

  // Closed-loop traffic: one client per tenant against \p Srv for
  // \p Seconds, or until kMinJobs jobs ran over all segments. Each client
  // resumes its tenant's submission order where the last segment left it.
  std::vector<JobRecord> Records[2];
  size_t Next[2] = {0, 0};
  std::mutex RunningMu;
  std::map<uint64_t, Clock::time_point> Running;
  double TrafficS = 0, TrafficCpu = 0;
  auto Traffic = [&](RunningServer &Srv, double Seconds, bool Last) {
    ScopedSpan Span(P.Spans, "bench.traffic");
    std::atomic<bool> Stop{false};
    std::atomic<size_t> Done{Records[0].size() + Records[1].size()};
    // The traced pass watches the job table for the moment each job
    // starts running; the wire protocol has no event for it.
    std::thread Monitor;
    if (P.traced())
      Monitor = std::thread([&] {
        while (!Stop.load()) {
          for (const daemon::JobPtr &J : Srv.Srv.queue().all()) {
            if (J->State.load() == daemon::JobState::Queued)
              continue;
            std::lock_guard<std::mutex> Lock(RunningMu);
            Running.try_emplace(J->Spec.Id, Clock::now());
          }
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
    Clock::time_point T0 = Clock::now();
    double Cpu0 = processCpuSeconds();
    std::thread Clients[2];
    for (int T = 0; T != 2; ++T)
      Clients[T] = std::thread([&, T] {
        Client C;
        if (!C.connect(Srv.Socket, 10))
          return;
        while (!Stop.load()) {
          int V = Order[T][Next[T]++ % Order[T].size()];
          Records[T].push_back(runJob(C, Vars[size_t(V)], V));
          ++Done;
          if (!Records[T].back().Id && !Records[T].back().Rejected)
            return; // connection trouble: this client is done
        }
      });
    while ((secondsSince(T0) < Seconds || (Last && Done.load() < kMinJobs)) &&
           secondsSince(T0) < Seconds + 120)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Stop.store(true);
    for (std::thread &C : Clients)
      C.join();
    TrafficS += secondsSince(T0);
    TrafficCpu += processCpuSeconds() - Cpu0;
    if (Monitor.joinable())
      Monitor.join();
  };

  // The job models stepped in-process (VM tier, 1 thread, no daemon), one
  // window each per round.
  // Every simulation is built afresh after kHorizon steps, from a model
  // fetched afresh from the compile cache: the speed of one simulation
  // depends on where its model and state land in memory, and the windows
  // of many placements are pooled.
  struct Stepper {
    const models::ModelEntry *Entry = nullptr;
    compiler::DriverOptions D;
    sim::SimOptions O;
    std::optional<compiler::CompileResult> Model;
    std::unique_ptr<sim::Simulator> S;
    std::vector<double> Times;
    bool Healthy = true;
    void window(Pass &P) {
      if (!S || S->stepsDone() >= kHorizon) {
        finish();
        S.reset();
        Model.emplace(compiler::CompilerDriver(D).compileEntry(*Entry));
        if (!*Model) {
          Healthy = false;
          return;
        }
        S = std::make_unique<sim::Simulator>(*Model->Model, O);
        S->run(); // first window untimed: page faults, caches
      }
      Times.push_back(timedCall(P.Spans, "sim.run.vm", [&] { S->run(); }));
    }
    void finish() {
      Healthy = Healthy && (!S || S->report().FaultEvents == 0);
    }
  };
  std::vector<Stepper> Steppers;
  auto Step = [&](double Seconds) {
    ScopedSpan Span(P.Spans, "bench.in_process");
    CpuRotation Cpus;
    Clock::time_point T0 = Clock::now();
    while (secondsSince(T0) < Seconds) {
      Cpus.next();
      for (Stepper &St : Steppers)
        St.window(P);
    }
  };

  // 1. Segments of traffic against one daemon over one state dir and one
  //    compile cache. Before every segment but the first a cold set-up
  //    runs (a daemon of its own over a fresh state dir and an empty
  //    cache), the job models step in-process for a while, and the
  //    traffic's daemon restarts over its state dir and the traffic's disk
  //    cache with an empty memory tier: that restart is the warm set-up.
  //    One more gap follows the last segment. The set-ups and the
  //    in-process windows are so spread over the whole run.
  //    Every phase starts with the freed heap returned to the system
  //    (malloc_trim), so that the peak resident set reflects the phases
  //    rather than the fragmentation the benchmark's own restarts leave in
  //    the allocator's per-thread arenas.
  std::string CacheDir = P.freshDir("cache");
  std::string MainDir = P.freshDir("main");
  std::vector<double> Setup, Warm;
  double Budget = 0.45 * P.Opts.Seconds;
  double StepBudget = 0.3 * P.Opts.Seconds;
  for (int Seg = 0; Seg <= kSetupReps; ++Seg) {
    if (Seg > 0) {
      std::string Rep = std::to_string(Seg - 1);
      Cache.setDiskDir(P.freshDir("setup-cache-" + Rep));
      Cache.clearMemory();
      ::malloc_trim(0);
      uint64_t Miss0 = counter("compile.cache.miss");
      {
        RunningServer Srv(serverOptions(P.freshDir("setup-" + Rep)));
        Setup.push_back(SetUp(Srv, "bench.bringup.cold"));
      }
      if (std::isnan(Setup.back()))
        return;
      P.Ops.check(counter("compile.cache.miss") - Miss0 >= SetUpJobs.size(),
                  "cold daemon set-up compiled every job model afresh");
      ::malloc_trim(0);
      Step(StepBudget / kSetupReps);
    }
    Cache.setDiskDir(CacheDir);
    Cache.clearMemory();
    ::malloc_trim(0);
    RunningServer Main(serverOptions(MainDir));
    if (Seg == 0) {
      Status St = Main.start();
      P.Ops.check(bool(St), "daemon start: " + St.message());
      if (!St)
        return;
    } else {
      uint64_t Hit0 = counter("compile.cache.disk_hit");
      Warm.push_back(SetUp(Main, "bench.bringup.warm"));
      if (std::isnan(Warm.back()))
        return;
      P.Ops.check(counter("compile.cache.disk_hit") - Hit0 >=
                      SetUpJobs.size(),
                  "warm daemon set-up did not hit the disk tier");
    }
    if (Seg == kSetupReps)
      break;
    Traffic(Main, Budget / kSetupReps, Seg + 1 == kSetupReps);
    if (Seg != 0)
      continue;
    // The steppers compile through the cache the traffic fills.
    for (const Variant &V : {Vars.front(), Vars.back()}) {
      Expected<daemon::JobSpec> Spec = daemon::parseJobSpec(V.Body);
      P.Ops.check(bool(Spec), "job spec parses");
      if (!Spec)
        return;
      for (int I = 0; I != kReplicas; ++I) {
        Stepper St;
        St.Entry = models::findModel(Spec->Model);
        St.D.Config = Spec->Config;
        St.O.NumCells = kJobCells;
        St.O.NumSteps = kStepWindow;
        St.O.NumThreads = 1;
        St.O.Guard.Enabled = true;
        Steppers.push_back(std::move(St));
      }
    }
  }
  P.Out.EndToEnd["setup_s"] = median(Setup);
  P.Out.EndToEnd["warm_setup_s"] = median(Warm);
  P.Out.Diagnostics["daemon.start_s"] = median(Start);
  P.Out.Diagnostics["setup_reps"] = kSetupReps;

  // Seconds of one step of both models, from the median windows of each
  // model's replicas.
  double StepS = 0;
  for (size_t I = 0; I < Steppers.size(); I += kReplicas) {
    std::vector<double> Pool;
    for (size_t J = I; J != I + kReplicas; ++J) {
      Steppers[J].finish();
      P.Ops.check(Steppers[J].Healthy, "in-process guarded run faulted or "
                                       "its model did not compile");
      Pool.insert(Pool.end(), Steppers[J].Times.begin(),
                  Steppers[J].Times.end());
    }
    StepS += median(Pool) / double(kStepWindow);
  }
  P.Out.EndToEnd["vm_cell_steps_per_s"] =
      double(kJobCells) * double(Steppers.size() / kReplicas) / StepS;
  P.Out.Diagnostics["in_process_windows"] = double(Steppers.front().Times.size());

  // 2. Untimed references: each variant run in-process by a JobRunner.
  {
    std::string Dir = P.freshDir("reference");
    daemon::Journal Jrnl(Dir + "/journal.lmpj");
    (void)Jrnl.open();
    daemon::JobRunner Runner({Dir, 1, 10000}, Jrnl);
    uint64_t Id = 1;
    for (Variant &V : Vars) {
      Expected<daemon::JobSpec> Spec = daemon::parseJobSpec(V.Body);
      P.Ops.check(bool(Spec), "job spec parses");
      if (!Spec)
        return;
      daemon::Job J;
      J.Spec = *Spec;
      J.Spec.Id = Id++;
      ScopedSpan Span(P.Spans, "daemon.execute");
      Runner.execute(J);
      V.Checksum = J.Checksum;
    }
  }

  // 3. Throughput, latencies and checks. A job that did not finish counts
  //    as missing every latency limit and adds no cell-steps.
  std::vector<double> Latency, Admit, Wait, Run;
  int64_t Rejected = 0;
  double CellSteps = 0;
  for (const std::vector<JobRecord> &Rs : Records)
    for (const JobRecord &J : Rs) {
      const Variant &V = Vars[size_t(J.Variant)];
      bool Ok = J.Finished && J.Checksum == V.Checksum &&
                (V.Members < 0 || J.MembersOk == V.Members);
      std::string Why = J.Why;
      if (J.Finished && J.Checksum != V.Checksum)
        Why = "job " + std::to_string(J.Id) +
              " checksum differs from the in-process run";
      else if (J.Finished && V.Members >= 0 && J.MembersOk != V.Members)
        Why = "job " + std::to_string(J.Id) + " finished " +
              std::to_string(J.MembersOk) + " of " +
              std::to_string(V.Members) + " members";
      P.Ops.check(Ok, Why);
      Rejected += J.Rejected;
      double Lat = std::chrono::duration<double>(J.Terminal - J.Submit).count();
      Latency.push_back(J.Finished ? Lat : kInf);
      if (!J.Finished)
        continue;
      CellSteps += double(V.CellSteps);
      uint64_t Span = P.Spans.record("bench.job", J.Submit, J.Terminal, 0, J.Id);
      P.Spans.record("daemon.admit", J.Submit, J.Accepted, Span, J.Id);
      Admit.push_back(
          std::chrono::duration<double>(J.Accepted - J.Submit).count());
      auto It = Running.find(J.Id);
      if (It == Running.end())
        continue;
      Clock::time_point Began = std::max(It->second, J.Accepted);
      P.Spans.record("daemon.queue_wait", J.Accepted, Began, Span, J.Id);
      P.Spans.record("daemon.run", Began, J.Terminal, Span, J.Id);
      Wait.push_back(std::chrono::duration<double>(Began - J.Accepted).count());
      Run.push_back(std::chrono::duration<double>(J.Terminal - Began).count());
    }
  P.Ops.check(Latency.size() >= kMinJobs,
              "only " + std::to_string(Latency.size()) + " jobs ran (need " +
                  std::to_string(kMinJobs) + ")");
  P.Out.EndToEnd["cell_steps_per_s"] = CellSteps / TrafficS;
  // Each runner steps its jobs with one sim thread.
  double Utilization = TrafficCpu / (TrafficS * kRunners);
  MetricMap &Diag = P.Out.Diagnostics;
  Diag["job_latency_s"] = median(Latency);
  Diag["job_latency_s.p90"] = tailPercentile(Latency, 90).value_or(NAN);
  Diag["jobs"] = double(Latency.size());
  Diag["daemon.rejected"] = double(Rejected);
  for (int T = 0; T != 2; ++T) {
    std::vector<double> Own;
    for (const JobRecord &J : Records[T])
      Own.push_back(std::chrono::duration<double>(J.Terminal - J.Submit).count());
    std::string Tenant = Vars[size_t(T * kVariants)].Tenant;
    Diag["jobs." + Tenant] = double(Own.size());
    Diag["latency_s." + Tenant] = median(Own);
  }

  // The per-layer probes below must not count towards the peak.
  P.Out.EndToEnd["peak_rss_mb"] = peakRssMiB();
  if (P.traced()) {
    MetricMap &L = P.Out.PerLayer;
    Diag["daemon.admit_s"] = median(Admit);
    Diag["daemon.queue_wait_s"] = median(Wait);
    Diag["daemon.run_s"] = median(Run);
    L["sim.thread_utilization"] = Utilization;
    probeLayers(P, Vars);
  }
  Cache.setDiskDir("");
}
