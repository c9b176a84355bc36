//===- ModelInfo.h - Semantic model description -----------------*- C++-*-===//
//
// The output of semantic analysis: a fully resolved description of an ionic
// model ready for code generation — externals, parameters, state variables
// with their integration methods and fully inlined right-hand sides, and
// LUT specifications.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_EASYML_MODELINFO_H
#define LIMPET_EASYML_MODELINFO_H

#include "easyml/Ast.h"

#include <string>
#include <vector>

namespace limpet {
namespace easyml {

/// The six temporal discretization methods the paper implements in MLIR
/// (Sec. 3.3.2, "Integration methods").
enum class IntegMethod : uint8_t {
  ForwardEuler, ///< fe: y += dt * f(y) (openCARP default)
  RK2,          ///< explicit midpoint Runge-Kutta
  RK4,          ///< classic fourth-order Runge-Kutta
  RushLarsen,   ///< exponential integrator on the local linearization
  Sundnes,      ///< second-order Rush-Larsen (Sundnes et al.)
  MarkovBE,     ///< backward Euler via Newton iterations, clamped to [0,1]
};

std::string_view integMethodName(IntegMethod M);
bool parseIntegMethod(std::string_view Name, IntegMethod &Out);

/// A model parameter (.param()): runtime-adjustable, with a compile-time
/// default baked from its initializer.
struct ParamInfo {
  std::string Name;
  double DefaultValue = 0;
};

/// An external variable (.external()): shared with the simulation driver
/// through per-cell arrays (e.g. Vm in, Iion out).
struct ExternalInfo {
  std::string Name;
  double Init = 0;
  bool IsRead = false;    ///< the model reads it (e.g. Vm)
  bool IsComputed = false; ///< the model assigns it (e.g. Iion)
  /// Fully inlined value expression when IsComputed.
  ExprPtr Value;
};

/// A state variable: has a diff_X equation integrated each step.
struct StateVarInfo {
  std::string Name;
  double Init = 0;
  IntegMethod Method = IntegMethod::ForwardEuler;
  /// The right-hand side as written (referencing intermediates).
  ExprPtr DiffRaw;
  /// The right-hand side fully inlined: references only state variables,
  /// externals and parameters. Shared subtrees are physically shared, so
  /// emission must be memoized.
  ExprPtr Diff;
};

/// A lookup-table specification (.lookup(lo,hi,step) markup).
struct LutSpec {
  std::string VarName; ///< the interpolation input (e.g. Vm)
  double Lo = 0, Hi = 0, Step = 0;
  /// Number of rows: floor((Hi-Lo)/Step) + 1.
  int numRows() const { return int((Hi - Lo) / Step) + 1; }
};

/// One retained intermediate assignment (pre-inlining), for tests and
/// debugging.
struct IntermediateInfo {
  std::string Name;
  ExprPtr Value;
};

/// Complete semantic description of an ionic model.
struct ModelInfo {
  std::string Name;

  std::vector<ExternalInfo> Externals;
  std::vector<ParamInfo> Params;
  std::vector<StateVarInfo> StateVars;
  std::vector<LutSpec> Luts;
  /// Topologically ordered intermediates (informational; the codegen
  /// consumes the inlined expressions instead).
  std::vector<IntermediateInfo> Intermediates;

  int externalIndex(std::string_view Name) const;
  int paramIndex(std::string_view Name) const;
  int stateVarIndex(std::string_view Name) const;

  /// Rough operation count over all inlined expressions (distinct nodes),
  /// used to classify models into the paper's small/medium/large classes.
  size_t countDistinctOps() const;
};

} // namespace easyml
} // namespace limpet

#endif // LIMPET_EASYML_MODELINFO_H
