//===- FoldUtils.cpp ------------------------------------------------------===//

#include "transforms/FoldUtils.h"

#include "dialects/Dialects.h"
#include "support/Casting.h"

#include <cmath>

using namespace limpet;
using namespace limpet::ir;
using namespace limpet::transforms;

static const Operation *definingOp(const Value *V) {
  if (const auto *Res = dyn_cast<OpResult>(V))
    return Res->owner();
  return nullptr;
}

std::optional<double> transforms::constantFloat(const Value *V) {
  const Operation *Def = definingOp(V);
  if (!Def || Def->opcode() != OpCode::ArithConstantF || !V->type().isF64())
    return std::nullopt;
  return Def->attr("value").asFloat();
}

std::optional<int64_t> transforms::constantInt(const Value *V) {
  const Operation *Def = definingOp(V);
  if (!Def || Def->opcode() != OpCode::ArithConstantI || !V->type().isI64())
    return std::nullopt;
  return Def->attr("value").asInt();
}

std::optional<bool> transforms::constantBool(const Value *V) {
  const Operation *Def = definingOp(V);
  if (!Def || Def->opcode() != OpCode::ArithConstantI || !V->type().isI1())
    return std::nullopt;
  return Def->attr("value").asInt() != 0;
}

double transforms::evalFloatOp(OpCode Code, double A, double B) {
  switch (Code) {
  case OpCode::ArithAddF:
    return A + B;
  case OpCode::ArithSubF:
    return A - B;
  case OpCode::ArithMulF:
    return A * B;
  case OpCode::ArithDivF:
    return A / B;
  case OpCode::ArithRemF:
    return std::fmod(A, B);
  case OpCode::ArithNegF:
    return -A;
  case OpCode::ArithMinF:
    return std::fmin(A, B);
  case OpCode::ArithMaxF:
    return std::fmax(A, B);
  case OpCode::MathExp:
    return std::exp(A);
  case OpCode::MathExpm1:
    return std::expm1(A);
  case OpCode::MathLog:
    return std::log(A);
  case OpCode::MathLog10:
    return std::log10(A);
  case OpCode::MathPow:
    return std::pow(A, B);
  case OpCode::MathSqrt:
    return std::sqrt(A);
  case OpCode::MathSin:
    return std::sin(A);
  case OpCode::MathCos:
    return std::cos(A);
  case OpCode::MathTan:
    return std::tan(A);
  case OpCode::MathTanh:
    return std::tanh(A);
  case OpCode::MathSinh:
    return std::sinh(A);
  case OpCode::MathCosh:
    return std::cosh(A);
  case OpCode::MathAtan:
    return std::atan(A);
  case OpCode::MathAsin:
    return std::asin(A);
  case OpCode::MathAcos:
    return std::acos(A);
  case OpCode::MathAbs:
    return std::fabs(A);
  case OpCode::MathFloor:
    return std::floor(A);
  case OpCode::MathCeil:
    return std::ceil(A);
  default:
    limpet_unreachable("not a scalar float opcode");
  }
}

bool transforms::evalCmp(CmpPredicate Pred, double A, double B) {
  switch (Pred) {
  case CmpPredicate::LT:
    return A < B;
  case CmpPredicate::LE:
    return A <= B;
  case CmpPredicate::GT:
    return A > B;
  case CmpPredicate::GE:
    return A >= B;
  case CmpPredicate::EQ:
    return A == B;
  case CmpPredicate::NE:
    return A != B;
  }
  limpet_unreachable("invalid predicate");
}

std::optional<Attribute> transforms::tryFoldScalarOp(const Operation *Op) {
  if (!Op->isPure() || Op->numResults() != 1)
    return std::nullopt;

  OpCode Code = Op->opcode();
  Type ResTy = Op->result(0)->type();
  if (ResTy.isVector())
    return std::nullopt;

  // Gather constant operands.
  auto FloatOperand = [&](unsigned I) { return constantFloat(Op->operand(I)); };
  auto IntOperand = [&](unsigned I) { return constantInt(Op->operand(I)); };
  auto BoolOperand = [&](unsigned I) { return constantBool(Op->operand(I)); };

  switch (Code) {
  case OpCode::ArithAddF:
  case OpCode::ArithSubF:
  case OpCode::ArithMulF:
  case OpCode::ArithDivF:
  case OpCode::ArithRemF:
  case OpCode::ArithMinF:
  case OpCode::ArithMaxF:
  case OpCode::MathPow: {
    auto A = FloatOperand(0), B = FloatOperand(1);
    if (!A || !B)
      return std::nullopt;
    return Attribute::makeFloat(evalFloatOp(Code, *A, *B));
  }
  case OpCode::ArithNegF:
  case OpCode::MathExp:
  case OpCode::MathExpm1:
  case OpCode::MathLog:
  case OpCode::MathLog10:
  case OpCode::MathSqrt:
  case OpCode::MathSin:
  case OpCode::MathCos:
  case OpCode::MathTan:
  case OpCode::MathTanh:
  case OpCode::MathSinh:
  case OpCode::MathCosh:
  case OpCode::MathAtan:
  case OpCode::MathAsin:
  case OpCode::MathAcos:
  case OpCode::MathAbs:
  case OpCode::MathFloor:
  case OpCode::MathCeil: {
    auto A = FloatOperand(0);
    if (!A)
      return std::nullopt;
    return Attribute::makeFloat(evalFloatOp(Code, *A, 0));
  }
  case OpCode::ArithCmpF: {
    auto A = FloatOperand(0), B = FloatOperand(1);
    if (!A || !B)
      return std::nullopt;
    CmpPredicate Pred;
    if (!parseCmpPredicate(Op->attr("predicate").asString(), Pred))
      return std::nullopt;
    return Attribute::makeBool(evalCmp(Pred, *A, *B));
  }
  case OpCode::ArithCmpI: {
    auto A = IntOperand(0), B = IntOperand(1);
    if (!A || !B)
      return std::nullopt;
    CmpPredicate Pred;
    if (!parseCmpPredicate(Op->attr("predicate").asString(), Pred))
      return std::nullopt;
    return Attribute::makeBool(
        evalCmp(Pred, double(*A), double(*B)));
  }
  case OpCode::ArithAddI:
  case OpCode::ArithSubI:
  case OpCode::ArithMulI:
  case OpCode::ArithDivI:
  case OpCode::ArithRemI: {
    auto A = IntOperand(0), B = IntOperand(1);
    if (!A || !B)
      return std::nullopt;
    if ((Code == OpCode::ArithDivI || Code == OpCode::ArithRemI) && *B == 0)
      return std::nullopt;
    int64_t R;
    switch (Code) {
    case OpCode::ArithAddI:
      R = *A + *B;
      break;
    case OpCode::ArithSubI:
      R = *A - *B;
      break;
    case OpCode::ArithMulI:
      R = *A * *B;
      break;
    case OpCode::ArithDivI:
      R = *A / *B;
      break;
    default:
      R = *A % *B;
      break;
    }
    return Attribute::makeInt(R);
  }
  case OpCode::ArithAndI:
  case OpCode::ArithOrI:
  case OpCode::ArithXOrI: {
    if (!ResTy.isI1())
      return std::nullopt;
    auto A = BoolOperand(0), B = BoolOperand(1);
    if (!A || !B)
      return std::nullopt;
    bool R = Code == OpCode::ArithAndI ? (*A && *B)
             : Code == OpCode::ArithOrI ? (*A || *B)
                                        : (*A != *B);
    return Attribute::makeBool(R);
  }
  case OpCode::ArithSelect: {
    auto C = BoolOperand(0);
    if (!C)
      return std::nullopt;
    // Fold select only when the chosen arm is itself constant; otherwise
    // canonicalize handles the value-forwarding case.
    const Value *Arm = Op->operand(*C ? 1 : 2);
    if (auto F = constantFloat(Arm))
      return Attribute::makeFloat(*F);
    if (auto I = constantInt(Arm))
      return Attribute::makeInt(*I);
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

Value *transforms::materializeConstant(OpBuilder &B, Attribute Value,
                                       Type Ty) {
  switch (Value.kind()) {
  case Attribute::Kind::Float:
    return makeConstantF(B, Value.asFloat(), Ty);
  case Attribute::Kind::Int: {
    Operation *Op = B.create(OpCode::ArithConstantI, {}, {Ty});
    Op->setAttr("value", Value);
    return Op->result();
  }
  case Attribute::Kind::Bool: {
    Operation *Op = B.create(OpCode::ArithConstantI, {}, {Ty});
    Op->setAttr("value", Attribute::makeInt(Value.asBool() ? 1 : 0));
    return Op->result();
  }
  default:
    limpet_unreachable("cannot materialize this attribute kind");
  }
}
