//===- Bench.h - Shared pieces of the benchmark workloads -------*- C++-*-===//
//
// One run of the benchmark is one workload at one seed: one untraced
// pass, or with --trace 1 a traced pass plus an untraced twin run (a
// child process) that states the tracing overhead. A pass measures its
// end-to-end metrics and, when traced, its per-layer metrics; every
// correctness check and every job is an operation counted in the run's
// Outcome. Every workload reports every metric of the catalogue
// (Metrics.h); a layer the workload does not step through on its own is
// probed on the workload's own models and shapes in the traced pass.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Spans.h"
#include "Stats.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace limpet {
namespace compiler {
struct CompileResult;
}
namespace exec {
class CompiledModel;
}
namespace sim {
class Simulator;
}
} // namespace limpet

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 1;
  /// Measurement budget of one pass, in seconds.
  double Seconds = 10;
  /// Stepping threads and connections a workload may use (nproc).
  unsigned Threads = 1;
};

/// Operations attempted and failed over a run. Thread-safe.
class Outcome {
public:
  /// Counts one operation; a false \p Ok counts it as failed and keeps
  /// \p What for the report.
  void check(bool Ok, const std::string &What);
  int64_t attempted() const;
  int64_t failed() const;
  std::vector<std::string> failures() const;

private:
  mutable std::mutex Mu;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Failures;
};

/// Metric name -> value.
using MetricMap = std::map<std::string, double>;

/// Everything one pass of a workload hands back.
struct PassResult {
  MetricMap EndToEnd;
  /// Filled by traced passes only.
  MetricMap PerLayer;
  /// Sample counts, the figures of layers only this workload exercises,
  /// and other context: printed but never gated.
  MetricMap Diagnostics;
};

/// The state a workload pass runs against.
struct Pass {
  const RunOptions &Opts;
  SpanRecorder &Spans;
  Outcome &Ops;
  PassResult &Out;
  /// A fresh, empty directory owned by this pass.
  std::string Dir;

  bool traced() const { return Spans.enabled(); }
  /// Creates (empty) and returns Dir/<Name>.
  std::string freshDir(const std::string &Name) const;
};

/// Median seconds of \p Reps calls of \p F (after one warm-up call),
/// each in a span named \p Name.
template <class Fn>
double medianCall(Pass &P, const char *Name, int Reps, Fn &&F) {
  F();
  std::vector<double> Times;
  for (int I = 0; I != Reps; ++I)
    Times.push_back(timedCall(P.Spans, Name, F));
  return median(Times);
}

//===----------------------------------------------------------------------===//
// Per-layer probes (Probes.cpp), for traced passes
//===----------------------------------------------------------------------===//

/// The compiler.* figures of repeated cold compiles. A repetition sums
/// the compiles added to it; emit() reports the median repetition of
/// compiler.cold_s, compiler.stage.<stage>_s and compiler.unattributed_s.
class CompileLedger {
public:
  void beginRep() { Reps.emplace_back(); }
  void addCold(const limpet::compiler::CompileResult &R, double WallS);
  void emit(MetricMap &L) const;

private:
  std::vector<MetricMap> Reps;
};

/// Median seconds of CompiledModel::buildLuts at default parameters.
double probeLutBuildS(Pass &P, const limpet::exec::CompiledModel &M, int Reps);
/// Median nanoseconds per cell-step of computeStep over \p Cells cells.
double probeKernelNs(Pass &P, const limpet::exec::CompiledModel &M,
                     int64_t Cells, double Dt, int Reps);
/// Bytes a cell-step loads and stores, computed from the array sizes.
double computedBytesPerCellStep(const limpet::exec::CompiledModel &M,
                                int64_t Cells);
/// Median round trip of an empty parallelFor at \p Threads threads.
double probeDispatchS(Pass &P, unsigned Threads);
/// Adds one checkpoint write of \p S (capture plus a durable store into
/// \p Dir) to sim.checkpoint.s_per_write and .bytes_per_write in \p L.
void probeCheckpoint(Pass &P, const limpet::sim::Simulator &S,
                     const std::string &Dir, MetricMap &L);
/// sim.step_s.p50 and .p99 of individually timed steps (>= 1,000).
void emitStepPercentiles(Pass &P, const std::vector<double> &Steps,
                         MetricMap &L);

void runPopulation(Pass &P);
void runTissue(Pass &P);
void runJobs(Pass &P);

/// Deterministic generator for the workload inputs (splitmix64), so one
/// seed gives the same inputs on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  /// Uniform in [Lo, Hi).
  double uniform(double Lo, double Hi);

private:
  uint64_t State;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
