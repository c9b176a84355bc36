//===- Metrics.h - The benchmark's metric catalogue -------------*- C++-*-===//
//
// Every metric the benchmark can emit, with its unit, the layer it
// measures, the workloads that report it and the end-to-end metric (and
// workload) it should move. `perfbench --list-metrics` prints this table.
// Every workload emits every end-to-end and every per-layer metric; a
// diagnostic is the figure of a layer that only one workload exercises,
// printed on that workload's diagnostics line and never gated.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class MetricKind { EndToEnd, PerLayer, Diagnostic };

struct MetricInfo {
  std::string Name;
  std::string Unit;
  MetricKind Kind;
  /// "end-to-end", or the program layer: compiler, exec, runtime, sim,
  /// daemon; "bench" for the benchmark's own time, "host" for the
  /// machine, "trace" for the tracing overhead.
  std::string Layer;
  /// Comma-separated workloads that report it (diagnostics: one).
  std::string Workloads;
  /// The end-to-end metric@workload it should move (per-layer metrics),
  /// or what it means (end-to-end metrics).
  std::string Moves;
};

const std::vector<MetricInfo> &metricCatalogue();

/// The catalogue entry named \p Name, or null.
const MetricInfo *findMetric(std::string_view Name);

/// The catalogue as an aligned text table.
std::string metricListing();

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
