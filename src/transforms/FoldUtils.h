//===- FoldUtils.h - Constant evaluation of pure scalar ops -----*- C++-*-===//
//
// Shared helpers for constant folding: recognizing constant ops, evaluating
// pure scalar operations on constant operands, and materializing constants.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_TRANSFORMS_FOLDUTILS_H
#define LIMPET_TRANSFORMS_FOLDUTILS_H

#include "ir/Builder.h"
#include "ir/IR.h"

#include <optional>

namespace limpet {
namespace transforms {

/// The f64 payload of a float constant value.
std::optional<double> constantFloat(const ir::Value *V);

/// The i64 payload of an int constant value.
std::optional<int64_t> constantInt(const ir::Value *V);

/// The bool payload of an i1 constant value.
std::optional<bool> constantBool(const ir::Value *V);

/// Evaluates a pure scalar op whose operands are all constants. Returns the
/// folded constant as an attribute (Float / Int / Bool), or nullopt if the
/// op is not foldable.
std::optional<ir::Attribute> tryFoldScalarOp(const ir::Operation *Op);

/// Evaluates a scalar float computation by opcode: unary/binary math and
/// arith ops. Exposed for the EasyML preprocessor and the engines' scalar
/// reference path; asserts on non-float opcodes.
double evalFloatOp(ir::OpCode Code, double A, double B);

/// Evaluates a float comparison.
bool evalCmp(ir::CmpPredicate Pred, double A, double B);

/// Creates a constant op carrying \p Value with result type \p Ty at the
/// builder's insertion point.
ir::Value *materializeConstant(ir::OpBuilder &B, ir::Attribute Value,
                               ir::Type Ty);

} // namespace transforms
} // namespace limpet

#endif // LIMPET_TRANSFORMS_FOLDUTILS_H
