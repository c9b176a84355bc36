//===- Health.h - Numerical health scanning and run reporting ---*- C++-*-===//
//
// Guard-rail primitives for the simulation drivers: cheap, vectorizable
// bulk checks that detect NaN/Inf/out-of-physiological-range values in the
// state and voltage arrays, the per-cell degradation ladder, and the
// structured RunReport the fault-tolerant stepping loop produces.
//
// Production cardiac codes treat solver blow-up as an expected runtime
// event rather than a crash; these primitives let the Simulator detect a
// blow-up shortly after it happens, roll back, and re-integrate or degrade
// the affected cells (see docs/ROBUSTNESS.md).
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_HEALTH_H
#define LIMPET_SIM_HEALTH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace limpet {
namespace sim {

/// Numerical bounds a healthy population must satisfy. The defaults are
/// deliberately generous: they only reject values no ionic model produces
/// when its integration is stable (NaN, Inf, |Vm| beyond a quarter volt,
/// state magnitudes beyond 1e12).
struct HealthPolicy {
  double VmLo = -250.0; ///< mV, lower physiological bound for Vm
  double VmHi = 250.0;  ///< mV, upper physiological bound for Vm
  /// Magnitude bound for state variables and non-Vm externals; NaN and
  /// Inf always fail it.
  double StateMagLimit = 1e12;
};

/// True when every value satisfies |v| <= Limit. NaN and +/-Inf fail the
/// comparison, so one branch-free pass catches all three fault classes.
/// The loop autovectorizes (abs + compare + accumulate per lane).
bool allWithinMagnitude(const double *Data, size_t N, double Limit);

/// True when every value lies in [Lo, Hi] (NaN fails).
bool allWithinRange(const double *Data, size_t N, double Lo, double Hi);

/// Per-cell position on the degradation ladder.
enum class CellMode : uint8_t {
  Normal = 0,   ///< full-speed engine path
  ScalarExact,  ///< degraded to the exact scalar (no-LUT, libm) kernel
  Frozen,       ///< pinned to its last healthy snapshot and flagged
};

/// What the fault-tolerant run loop did, surfaced through Simulator,
/// limpetc --run, faultinject and the bench harness.
struct RunReport {
  int64_t StepsTaken = 0;   ///< nominal steps completed
  int64_t HealthScans = 0;  ///< bulk scans performed
  int64_t FaultEvents = 0;  ///< scan windows that detected a fault
  int64_t FaultyCells = 0;  ///< cumulative faulty-cell observations
  int64_t Retries = 0;      ///< rollback + re-integration attempts
  int64_t Substeps = 0;     ///< extra kernel steps taken by dt halving
  int64_t CellsDegraded = 0; ///< cells currently on the scalar-exact path
  int64_t CellsFrozen = 0;   ///< cells pinned to their last healthy state
  double ScanSeconds = 0;     ///< wall time spent in health scans
  double RecoverySeconds = 0; ///< wall time spent rolling back/retrying
  double RunSeconds = 0;      ///< wall time of the whole guarded run

  /// True when no fault was ever detected.
  bool clean() const { return FaultEvents == 0; }

  /// Accumulates another report (used by bench repeats).
  void merge(const RunReport &Other);

  /// Multi-line human-readable rendering.
  std::string str() const;
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_HEALTH_H
