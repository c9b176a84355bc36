//===- Metrics.cpp --------------------------------------------------------===//

#include "Metrics.h"

#include <algorithm>
#include <string>

using namespace perfbench;

static std::vector<MetricInfo> buildCatalogue() {
  const std::string All = "population,tissue,jobs";
  std::vector<MetricInfo> C;
  auto E2E = [&](std::string Name, std::string Unit, std::string Means) {
    C.push_back({std::move(Name), std::move(Unit), MetricKind::EndToEnd,
                 "end-to-end", All, std::move(Means)});
  };
  auto Layer = [&](std::string Name, std::string Unit, std::string L,
                   std::string Moves) {
    C.push_back({std::move(Name), std::move(Unit), MetricKind::PerLayer,
                 std::move(L), All, std::move(Moves)});
  };
  auto Diag = [&](std::string Name, std::string Unit, std::string L,
                  std::string Workload, std::string Moves) {
    C.push_back({std::move(Name), std::move(Unit), MetricKind::Diagnostic,
                 std::move(L), std::move(Workload), std::move(Moves)});
  };

  // End-to-end metrics, from the untraced pass; README.md defines each on
  // each workload.
  E2E("setup_s", "s",
      "cold set-up to the first completed step (population: empty-cache "
      "bring-up of the three models; tissue: empty-cache compile, "
      "TissueSimulator, preflight, first step; jobs: Server::start on a "
      "fresh state dir to the first answered ping); median of repetitions");
  E2E("warm_setup_s", "s",
      "warm set-up (population, tissue: disk-tier compile hit in a fresh "
      "memory tier through the first step; jobs: Server::start over the "
      "journal the traffic left to the first answered ping); median of "
      "repetitions");
  E2E("cell_steps_per_s", "1/s",
      "steady-state cell-steps/s (population, tissue: native tier, 1 "
      "thread; jobs: cell-steps of finished jobs per second of "
      "closed-loop daemon traffic)");
  E2E("vm_cell_steps_per_s", "1/s",
      "cell-steps/s on the VM tier at 1 thread (population, tissue: as "
      "cell_steps_per_s; jobs: the same job specs run in-process by a "
      "JobRunner, no daemon)");
  E2E("peak_rss_mb", "MiB",
      "peak resident set of the run's process (VmHWM, i.e. getrusage max "
      "RSS without the exec'ing parent's)");

  // compiler
  Layer("compiler.cold_s", "s", "compiler", "setup_s");
  for (const char *Stage :
       {"frontend", "preprocess", "integrator", "lut-analysis", "emit-ir",
        "opt", "vectorize", "emit-bytecode"})
    Layer(std::string("compiler.stage.") + Stage + "_s", "s", "compiler",
          "setup_s@population,tissue");
  Layer("compiler.unattributed_s", "s", "compiler",
        "setup_s@population,tissue (cold compile wall minus its stages)");
  Layer("compiler.disk_hit_s", "s", "compiler",
        "warm_setup_s@population,tissue");
  Layer("compiler.native_cc_s", "s", "compiler",
        "none: untimed native build, so work moved into it shows");
  Layer("compiler.cache_hit_ratio", "ratio", "compiler",
        "cell_steps_per_s,vm_cell_steps_per_s@jobs (hits of any tier over "
        "all lookups in the traced pass)");

  // exec
  Layer("exec.lut_build_s", "s", "exec",
        "setup_s,warm_setup_s@population; cell_steps_per_s@jobs; flat on "
        "tissue");
  Layer("exec.native.ns_per_cell_step", "ns", "exec",
        "cell_steps_per_s@population,tissue");
  Layer("exec.vm.ns_per_cell_step", "ns", "exec", "vm_cell_steps_per_s");
  Layer("exec.computed_bytes_per_cell_step", "B", "exec",
        "cell_steps_per_s (computed from array sizes, not measured)");

  // runtime
  Layer("runtime.pool.dispatch_s", "s", "runtime",
        "sim.thread_speedup@tissue (empty parallelFor at nproc threads on "
        "tissue; at 1 thread, an inline call, elsewhere)");

  // sim
  Layer("sim.construct_s", "s", "sim",
        "setup_s,warm_setup_s@population,tissue; cell_steps_per_s@jobs");
  Layer("sim.first_step_s", "s", "sim", "setup_s@population,tissue");
  Layer("sim.health_scan_s_per_step", "s", "sim",
        "cell_steps_per_s@population,tissue");
  Layer("sim.step_s.p50", "s", "sim",
        "sim.thread_speedup@tissue (the nproc-thread sheet); "
        "cell_steps_per_s elsewhere");
  Layer("sim.step_s.p99", "s", "sim",
        "sim.thread_speedup@tissue (the nproc-thread sheet); "
        "cell_steps_per_s elsewhere");
  Layer("sim.thread_utilization", "ratio", "sim",
        "cell_steps_per_s (CPU time / (wall x stepping threads) over the "
        "steady phase)");
  Layer("sim.checkpoint.s_per_write", "s", "sim", "cell_steps_per_s@jobs");
  Layer("sim.checkpoint.bytes_per_write", "B", "sim",
        "cell_steps_per_s@jobs");

  // Self time per layer, from the traced pass's spans.
  for (const char *L : {"compiler", "exec", "runtime", "sim"})
    Layer(std::string(L) + ".self_s", "s", L,
          "self time of the layer's spans in the traced pass");
  Layer("bench.self_s", "s", "bench",
        "benchmark time outside every layer call (traced pass)");

  // Tracing overhead: (traced - untraced) / untraced per end-to-end metric.
  for (const char *M : {"setup_s", "warm_setup_s", "cell_steps_per_s",
                        "vm_cell_steps_per_s", "peak_rss_mb"})
    Layer(std::string("trace.overhead.") + M, "ratio", "trace",
          "none: traced-vs-untraced change of " + std::string(M));

  // Layers only one workload exercises: diagnostics of its traced pass.
  Diag("runtime.pool.calls_per_step", "count", "runtime", "tissue",
       "sim.thread_speedup@tissue (exact count of pool.parallel_for.calls "
       "per threaded step)");
  Diag("sim.stencil.s_per_step", "s", "sim", "tissue",
       "cell_steps_per_s,vm_cell_steps_per_s@tissue");
  Diag("sim.stencil.computed_gbps", "GB/s", "sim", "tissue",
       "cell_steps_per_s,vm_cell_steps_per_s@tissue (bytes computed from "
       "the grid)");
  Diag("sim.thread_speedup", "ratio", "sim", "tissue",
       "none: the nproc-thread sheet's rate over the 1-thread VM rate");
  Diag("sim.ensemble.build_s", "s", "sim", "jobs", "cell_steps_per_s@jobs");
  Diag("daemon.start_s", "s", "daemon", "jobs", "setup_s@jobs");
  Diag("daemon.admit_s", "s", "daemon", "jobs", "cell_steps_per_s@jobs");
  Diag("daemon.queue_wait_s", "s", "daemon", "jobs",
       "job_latency_s.p90@jobs");
  Diag("daemon.run_s", "s", "daemon", "jobs", "cell_steps_per_s@jobs");
  Diag("daemon.rejected", "count", "daemon", "jobs", "failed@jobs");
  Diag("daemon.self_s", "s", "daemon", "jobs",
       "self time of the daemon spans in the traced pass");
  Diag("job_latency_s", "s", "daemon", "jobs",
       "cell_steps_per_s@jobs (median submit-to-terminal time)");
  Diag("job_latency_s.p90", "s", "daemon", "jobs",
       "none: p90 submit-to-terminal time (>=100 jobs, >=10 beyond)");
  return C;
}

const std::vector<MetricInfo> &perfbench::metricCatalogue() {
  static const std::vector<MetricInfo> C = buildCatalogue();
  return C;
}

const MetricInfo *perfbench::findMetric(std::string_view Name) {
  for (const MetricInfo &M : metricCatalogue())
    if (M.Name == Name)
      return &M;
  return nullptr;
}

std::string perfbench::metricListing() {
  auto KindName = [](MetricKind K) -> std::string {
    return K == MetricKind::EndToEnd   ? "end-to-end"
           : K == MetricKind::PerLayer ? "per-layer"
                                       : "diagnostic";
  };
  size_t WName = 4, WUnit = 4, WKind = 10, WLayer = 5, WLoads = 9;
  for (const MetricInfo &M : metricCatalogue()) {
    WName = std::max(WName, M.Name.size());
    WUnit = std::max(WUnit, M.Unit.size());
    WLayer = std::max(WLayer, M.Layer.size());
    WLoads = std::max(WLoads, M.Workloads.size());
  }
  auto Pad = [](const std::string &S, size_t W) {
    return S + std::string(W - S.size() + 2, ' ');
  };
  std::string Out = Pad("name", WName) + Pad("unit", WUnit) +
                    Pad("kind", WKind) + Pad("layer", WLayer) +
                    Pad("workloads", WLoads) + "moves / meaning\n";
  for (const MetricInfo &M : metricCatalogue())
    Out += Pad(M.Name, WName) + Pad(M.Unit, WUnit) +
           Pad(KindName(M.Kind), WKind) + Pad(M.Layer, WLayer) +
           Pad(M.Workloads, WLoads) + M.Moves + "\n";
  return Out;
}
