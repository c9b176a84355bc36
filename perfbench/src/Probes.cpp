//===- Probes.cpp - Per-layer probes shared by the workloads --------------===//
//
// Every workload reports every per-layer metric, each measured on the
// workload's own models and shapes (see Bench.h).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "compiler/CompilerDriver.h"
#include "runtime/ThreadPool.h"
#include "sim/Checkpoint.h"
#include "sim/Simulator.h"
#include "sim/StateBuffer.h"

#include <cmath>
#include <filesystem>
#include <map>

using namespace perfbench;
using namespace limpet;

void CompileLedger::addCold(const compiler::CompileResult &R, double WallS) {
  MetricMap &M = Reps.back();
  M["compiler.cold_s"] += WallS;
  double StageSum = 0;
  for (unsigned I = 0; I != compiler::kNumStages; ++I)
    M["compiler.stage." +
      std::string(compiler::stageName(compiler::Stage(I))) + "_s"] += 0;
  for (const compiler::StageRecord &S : R.Stages) {
    M["compiler.stage." + std::string(compiler::stageName(S.S)) + "_s"] +=
        S.Ns * 1e-9;
    StageSum += S.Ns * 1e-9;
  }
  M["compiler.unattributed_s"] += WallS - StageSum;
}

void CompileLedger::emit(MetricMap &L) const {
  std::map<std::string, std::vector<double>> Pooled;
  for (const MetricMap &Rep : Reps)
    for (const auto &[Name, S] : Rep)
      Pooled[Name].push_back(S);
  for (const auto &[Name, Samples] : Pooled)
    L[Name] = median(Samples);
}

double perfbench::probeLutBuildS(Pass &P, const exec::CompiledModel &M,
                                 int Reps) {
  std::vector<double> Params = M.defaultParams();
  return medianCall(P, "exec.buildLuts", Reps, [&] {
    runtime::LutTableSet T = M.buildLuts(Params.data());
    (void)T;
  });
}

double perfbench::probeKernelNs(Pass &P, const exec::CompiledModel &M,
                                int64_t Cells, double Dt, int Reps) {
  std::vector<double> Params = M.defaultParams();
  sim::StateBuffer Buf(M, Cells);
  runtime::LutTableSet Luts = M.buildLuts(Params.data());
  exec::KernelArgs Args;
  Args.State = Buf.state();
  Args.Exts = Buf.extPointers();
  Args.Params = Params.data();
  Args.Start = 0;
  Args.End = Cells;
  Args.NumCells = Cells;
  Args.Dt = Dt;
  Args.Luts = &Luts;
  return medianCall(P, "exec.computeStep", Reps,
                    [&] { M.computeStep(Args); }) *
         1e9 / double(Cells);
}

double perfbench::computedBytesPerCellStep(const exec::CompiledModel &M,
                                           int64_t Cells) {
  sim::StateBuffer Buf(M, Cells);
  // Every state variable and external is loaded and stored once.
  return 2.0 * 8.0 *
         double(Buf.stateSize() + Buf.numExternals() * size_t(Cells)) /
         double(Cells);
}

double perfbench::probeDispatchS(Pass &P, unsigned Threads) {
  runtime::ThreadPool &Pool = runtime::globalThreadPool();
  runtime::RangeFn Noop = [](int64_t, int64_t) {};
  // Batches of round trips, so that one inline call (1 thread) still spans
  // many clock ticks.
  constexpr int Batch = 16;
  return medianCall(P, "runtime.parallelFor", 200, [&] {
           for (int I = 0; I != Batch; ++I)
             Pool.parallelFor(0, Threads, Threads, Noop);
         }) /
         Batch;
}

void perfbench::probeCheckpoint(Pass &P, const sim::Simulator &S,
                                const std::string &Dir, MetricMap &L) {
  sim::CheckpointStore Store(Dir);
  L["sim.checkpoint.s_per_write"] += medianCall(P, "sim.checkpoint", 9, [&] {
    sim::CheckpointData C = S.captureCheckpoint();
    (void)Store.write(C);
  });
  std::error_code Ec;
  uintmax_t Bytes =
      std::filesystem::file_size(Store.pathForStep(S.stepsDone()), Ec);
  P.Ops.check(!Ec, "checkpoint probe wrote " + Store.pathForStep(S.stepsDone()));
  L["sim.checkpoint.bytes_per_write"] += Ec ? 0.0 : double(Bytes);
}

void perfbench::emitStepPercentiles(Pass &P, const std::vector<double> &Steps,
                                    MetricMap &L) {
  std::optional<double> P99 = tailPercentile(Steps, 99);
  P.Ops.check(P99.has_value(), "too few individually timed steps for a p99");
  L["sim.step_s.p50"] = median(Steps);
  L["sim.step_s.p99"] = P99.value_or(NAN);
}
