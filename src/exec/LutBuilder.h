//===- LutBuilder.h - Row-blocked LUT table fill ----------------*- C++-*-===//
//
// Fills a model's lookup tables (paper Sec. 3.4.2). The LUT plan's column
// expressions are lowered once per model to a slot-resolved tape: the
// lookup variable X, then the parameter slots the table reads, then
// constants. Parameter-only subexpressions run once per build; the rest
// runs over blocks of rows, one tape instruction per block.
//
// Exactness contract: every element goes through the same double
// operations, in the same order, as easyml::evalExpr over the original
// column (builtins through the same easyml::applyBuiltin), so the tables
// are bit-identical to the tree-walking oracle. Lowering also records
// which parameters each table reads, so a parameter change can refill
// only the tables it invalidates.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_EXEC_LUTBUILDER_H
#define LIMPET_EXEC_LUTBUILDER_H

#include "codegen/LutAnalysis.h"
#include "easyml/Ast.h"
#include "runtime/Lut.h"
#include "support/Status.h"

#include <cstdint>
#include <vector>

namespace limpet {
namespace exec {

class LutBuilder {
public:
  /// Lowers every table of \p Plan against \p Info. A column that
  /// references a name that is neither its table's lookup variable nor a
  /// parameter of \p Info (or that still holds a LutRef) is a recoverable
  /// error.
  static Expected<LutBuilder> lower(const codegen::LutPlan &Plan,
                                    const easyml::ModelInfo &Info);

  size_t numTables() const { return Tables.size(); }

  /// Sorted indices of the parameters table \p T's columns read.
  const std::vector<int> &paramsRead(size_t T) const {
    return Tables[T].Params;
  }

  /// Fills table \p T at parameter vector \p Params.
  runtime::LutTable buildTable(size_t T, const double *Params) const;

  /// Fills every table at \p Params.
  runtime::LutTableSet build(const double *Params) const;

  /// True when table \p T reads a parameter whose value differs
  /// (bitwise) between \p A and \p B.
  bool readsChanged(size_t T, const double *A, const double *B) const;

private:
  /// A tape operand: a block register (Vec) or a scalar slot.
  struct Operand {
    uint32_t Idx = 0;
    bool Vec = false;
    auto operator<=>(const Operand &) const = default;
  };

  enum class Op : uint8_t {
    Add, Sub, Mul, Div, Lt, Le, Gt, Ge, Eq, Ne, And, Or, // binary
    Neg, Not,                                            // unary
    Select,                                              // C ? A : B
    Call,                                                // Fn(A, B)
    Store,                                               // column Dst = A
  };

  struct Instr {
    Op Code = Op::Add;
    easyml::BuiltinFn Fn = easyml::BuiltinFn::Exp;
    uint32_t Dst = 0;
    Operand A, B, C;
  };

  struct Table {
    double Lo = 0, Hi = 0, Step = 0;
    uint32_t NumCols = 0;
    /// Scalar slots: [0, Params.size()) hold the parameters read,
    /// then Consts, then the results of the Scalar prologue.
    std::vector<int> Params;
    std::vector<double> Consts;
    uint32_t NumScalars = 0;
    std::vector<Instr> Scalar;
    /// Per-block tape over registers; register 0 holds X.
    std::vector<Instr> Block;
    uint32_t NumRegs = 1;
  };

  class Lowering;

  std::vector<Table> Tables;
};

} // namespace exec
} // namespace limpet

#endif // LIMPET_EXEC_LUTBUILDER_H
