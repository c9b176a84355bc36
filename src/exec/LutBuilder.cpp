//===- LutBuilder.cpp -----------------------------------------------------===//

#include "exec/LutBuilder.h"

#include "easyml/ConstEval.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

using namespace limpet;
using namespace limpet::exec;

namespace {
/// Rows per tape pass: large enough to amortize instruction dispatch,
/// small enough that the live registers stay in L1.
constexpr int kBlock = 64;
} // namespace

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

class LutBuilder::Lowering {
public:
  Lowering(Table &T, const codegen::LutTablePlan &Plan,
           const easyml::ModelInfo &Info)
      : T(T), Plan(Plan), Info(Info) {}

  Status run() {
    T.Lo = Plan.Spec.Lo;
    T.Hi = Plan.Spec.Hi;
    T.Step = Plan.Spec.Step;
    T.NumCols = uint32_t(Plan.Columns.size());

    // Slot layout: the parameters read (sorted), then the constants.
    std::set<int> Params;
    std::set<uint64_t> Consts;
    for (size_t Col = 0; Col != Plan.Columns.size(); ++Col)
      if (Status S = collect(*Plan.Columns[Col], Col, Params, Consts); !S)
        return S;
    T.Params.assign(Params.begin(), Params.end());
    for (size_t I = 0; I != T.Params.size(); ++I)
      ParamSlot[T.Params[I]] = uint32_t(I);
    for (uint64_t Bits : Consts) {
      ConstSlot[Bits] = uint32_t(T.Params.size() + T.Consts.size());
      T.Consts.push_back(std::bit_cast<double>(Bits));
    }
    T.NumScalars = uint32_t(T.Params.size() + T.Consts.size());

    for (size_t Col = 0; Col != Plan.Columns.size(); ++Col) {
      Instr St;
      St.Code = Op::Store;
      St.Dst = uint32_t(Col);
      St.A = lower(*Plan.Columns[Col]);
      Tape.push_back(St);
    }
    allocateRegisters();
    return Status::success();
  }

private:
  /// Validates names and gathers the parameter and constant slots.
  Status collect(const easyml::Expr &E, size_t Col, std::set<int> &Params,
                 std::set<uint64_t> &Consts) {
    switch (E.Kind) {
    case easyml::ExprKind::Number:
      Consts.insert(std::bit_cast<uint64_t>(E.NumberValue));
      return Status::success();
    case easyml::ExprKind::VarRef: {
      if (E.VarName == Plan.Spec.VarName)
        return Status::success();
      int Idx = Info.paramIndex(E.VarName);
      if (Idx < 0)
        return Status::error(
            "LUT column " + std::to_string(Col) + " of the '" +
            Plan.Spec.VarName + "' table references '" + E.VarName +
            "', which is neither the lookup variable nor a parameter");
      Params.insert(Idx);
      return Status::success();
    }
    case easyml::ExprKind::LutRef:
      return Status::error("LUT column " + std::to_string(Col) + " of the '" +
                           Plan.Spec.VarName +
                           "' table references another table");
    case easyml::ExprKind::Call:
      // A one-argument builtin still takes a second (ignored) 0.0.
      if (E.Operands.size() < 2)
        Consts.insert(std::bit_cast<uint64_t>(0.0));
      break;
    default:
      break;
    }
    for (const easyml::ExprPtr &O : E.Operands)
      if (Status S = collect(*O, Col, Params, Consts); !S)
        return S;
    return Status::success();
  }

  Operand lower(const easyml::Expr &E) {
    switch (E.Kind) {
    case easyml::ExprKind::Number:
      return {ConstSlot.at(std::bit_cast<uint64_t>(E.NumberValue)), false};
    case easyml::ExprKind::VarRef:
      if (E.VarName == Plan.Spec.VarName)
        return {0, true};
      return {ParamSlot.at(Info.paramIndex(E.VarName)), false};
    case easyml::ExprKind::Unary:
      return emit(E.UnOp == easyml::UnaryOp::Neg ? Op::Neg : Op::Not,
                  easyml::BuiltinFn::Exp, lower(*E.Operands[0]));
    case easyml::ExprKind::Binary: {
      static constexpr Op Ops[] = {Op::Add, Op::Sub, Op::Mul, Op::Div,
                                   Op::Lt,  Op::Le,  Op::Gt,  Op::Ge,
                                   Op::Eq,  Op::Ne,  Op::And, Op::Or};
      Operand A = lower(*E.Operands[0]);
      Operand B = lower(*E.Operands[1]);
      return emit(Ops[size_t(E.BinOp)], easyml::BuiltinFn::Exp, A, B);
    }
    case easyml::ExprKind::Ternary: {
      Operand C = lower(*E.Operands[0]);
      Operand A = lower(*E.Operands[1]);
      Operand B = lower(*E.Operands[2]);
      return emit(Op::Select, easyml::BuiltinFn::Exp, A, B, C);
    }
    case easyml::ExprKind::Call: {
      Operand A = lower(*E.Operands[0]);
      Operand B = E.Operands.size() > 1
                      ? lower(*E.Operands[1])
                      : Operand{ConstSlot.at(std::bit_cast<uint64_t>(0.0)),
                                false};
      return emit(Op::Call, E.Fn, A, B);
    }
    case easyml::ExprKind::LutRef:
      break; // rejected by collect()
    }
    return {};
  }

  /// Value-numbered emission: an operation already computed on the same
  /// operands (in this table) is reused, which is exact because the
  /// operations are pure. Operations on scalars only go to the
  /// once-per-build prologue.
  Operand emit(Op Code, easyml::BuiltinFn Fn, Operand A, Operand B = {},
               Operand C = {}) {
    auto Key = std::make_tuple(Code, Fn, A, B, C);
    if (auto It = Values.find(Key); It != Values.end())
      return It->second;
    Instr I{Code, Fn, 0, A, B, C};
    Operand R;
    if (!A.Vec && !B.Vec && !C.Vec) {
      I.Dst = T.NumScalars++;
      T.Scalar.push_back(I);
      R = {I.Dst, false};
    } else {
      I.Dst = NextVReg++;
      Tape.push_back(I);
      R = {I.Dst, true};
    }
    Values.emplace(Key, R);
    return R;
  }

  /// Maps the tape's virtual registers onto as few block registers as
  /// liveness allows, so the working set stays cache-resident.
  void allocateRegisters() {
    constexpr size_t None = ~size_t(0);
    std::vector<size_t> LastUse(NextVReg, None);
    auto Uses = [](Instr &I) {
      return std::array<Operand *, 3>{&I.A, &I.B, &I.C};
    };
    for (size_t N = 0; N != Tape.size(); ++N)
      for (Operand *O : Uses(Tape[N]))
        if (O->Vec)
          LastUse[O->Idx] = N;

    std::vector<uint32_t> Phys(NextVReg, 0), Free;
    uint32_t NumPhys = 1; // register 0 is X, live throughout
    for (size_t N = 0; N != Tape.size(); ++N) {
      Instr &I = Tape[N];
      for (Operand *O : Uses(I)) {
        if (!O->Vec)
          continue;
        uint32_t V = O->Idx;
        O->Idx = Phys[V];
        if (V != 0 && LastUse[V] == N) {
          Free.push_back(Phys[V]);
          LastUse[V] = None; // an operand repeated in one instruction
        }
      }
      if (I.Code == Op::Store)
        continue;
      uint32_t P = NumPhys;
      if (Free.empty())
        ++NumPhys;
      else {
        P = Free.back();
        Free.pop_back();
      }
      Phys[I.Dst] = P;
      I.Dst = P;
    }
    T.Block = std::move(Tape);
    T.NumRegs = NumPhys;
  }

  Table &T;
  const codegen::LutTablePlan &Plan;
  const easyml::ModelInfo &Info;
  std::map<int, uint32_t> ParamSlot;
  std::map<uint64_t, uint32_t> ConstSlot;
  std::map<std::tuple<Op, easyml::BuiltinFn, Operand, Operand, Operand>,
           Operand>
      Values;
  std::vector<Instr> Tape;
  uint32_t NextVReg = 1;
};

Expected<LutBuilder> LutBuilder::lower(const codegen::LutPlan &Plan,
                                       const easyml::ModelInfo &Info) {
  LutBuilder B;
  B.Tables.resize(Plan.Tables.size());
  for (size_t I = 0; I != Plan.Tables.size(); ++I)
    if (Status S = Lowering(B.Tables[I], Plan.Tables[I], Info).run(); !S)
      return S;
  return B;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

namespace {

/// An operand resolved for one pass: a block (stride 1) or a scalar
/// broadcast (stride 0).
struct Src {
  const double *P;
  size_t S;
  double operator[](int I) const { return P[size_t(I) * S]; }
};

template <typename F> void map1(double *D, Src A, int N, F Fn) {
  for (int I = 0; I != N; ++I)
    D[I] = Fn(A[I]);
}

template <typename F> void map2(double *D, Src A, Src B, int N, F Fn) {
  for (int I = 0; I != N; ++I)
    D[I] = Fn(A[I], B[I]);
}

} // namespace

bool LutBuilder::readsChanged(size_t T, const double *A,
                              const double *B) const {
  for (int P : Tables[T].Params)
    if (std::memcmp(&A[P], &B[P], sizeof(double)) != 0)
      return true;
  return false;
}

runtime::LutTable LutBuilder::buildTable(size_t TI,
                                         const double *Params) const {
  static telemetry::Counter &Filled =
      telemetry::counter("compile.lut.build.tables");
  Filled.add(1);
  const Table &T = Tables[TI];
  runtime::LutTable Out(T.Lo, T.Hi, T.Step, int(T.NumCols));

  std::vector<double> Scalars(T.NumScalars);
  for (size_t I = 0; I != T.Params.size(); ++I)
    Scalars[I] = Params[T.Params[I]];
  std::copy(T.Consts.begin(), T.Consts.end(),
            Scalars.begin() + T.Params.size());
  std::vector<double> Regs(size_t(T.NumRegs) * kBlock);

  // Every element mirrors easyml::evalExpr: the same operation on the
  // same operand values (both arms of a select or a short-circuit are
  // computed, which is exact since the operations are pure).
  auto Exec = [&](const Instr &I, int N, double *D, int Row0) {
    auto Resolve = [&](Operand O) {
      return O.Vec ? Src{Regs.data() + size_t(O.Idx) * kBlock, 1}
                   : Src{Scalars.data() + O.Idx, 0};
    };
    Src A = Resolve(I.A), B = Resolve(I.B);
    switch (I.Code) {
    case Op::Add:
      return map2(D, A, B, N, [](double X, double Y) { return X + Y; });
    case Op::Sub:
      return map2(D, A, B, N, [](double X, double Y) { return X - Y; });
    case Op::Mul:
      return map2(D, A, B, N, [](double X, double Y) { return X * Y; });
    case Op::Div:
      return map2(D, A, B, N, [](double X, double Y) { return X / Y; });
    case Op::Lt:
      return map2(D, A, B, N, [](double X, double Y) { return double(X < Y); });
    case Op::Le:
      return map2(D, A, B, N,
                  [](double X, double Y) { return double(X <= Y); });
    case Op::Gt:
      return map2(D, A, B, N, [](double X, double Y) { return double(X > Y); });
    case Op::Ge:
      return map2(D, A, B, N,
                  [](double X, double Y) { return double(X >= Y); });
    case Op::Eq:
      return map2(D, A, B, N,
                  [](double X, double Y) { return double(X == Y); });
    case Op::Ne:
      return map2(D, A, B, N,
                  [](double X, double Y) { return double(X != Y); });
    case Op::And:
      return map2(D, A, B, N, [](double X, double Y) {
        return X == 0.0 ? 0.0 : double(Y != 0.0);
      });
    case Op::Or:
      return map2(D, A, B, N, [](double X, double Y) {
        return X != 0.0 ? 1.0 : double(Y != 0.0);
      });
    case Op::Neg:
      return map1(D, A, N, [](double X) { return -X; });
    case Op::Not:
      return map1(D, A, N, [](double X) { return double(X == 0.0); });
    case Op::Select: {
      Src C = Resolve(I.C);
      for (int K = 0; K != N; ++K)
        D[K] = C[K] != 0.0 ? A[K] : B[K];
      return;
    }
    case Op::Call:
      return map2(D, A, B, N, [Fn = I.Fn](double X, double Y) {
        return easyml::applyBuiltin(Fn, X, Y);
      });
    case Op::Store:
      for (int K = 0; K != N; ++K)
        Out.at(Row0 + K, int(I.Dst)) = A[K];
      return;
    }
  };

  for (const Instr &I : T.Scalar)
    Exec(I, 1, Scalars.data() + I.Dst, 0);
  for (int Row0 = 0; Row0 < Out.rows(); Row0 += kBlock) {
    int N = std::min(kBlock, Out.rows() - Row0);
    for (int K = 0; K != N; ++K)
      Regs[size_t(K)] = Out.rowX(Row0 + K);
    for (const Instr &I : T.Block)
      Exec(I, N,
           I.Code == Op::Store ? nullptr
                               : Regs.data() + size_t(I.Dst) * kBlock,
           Row0);
  }
  return Out;
}

runtime::LutTableSet LutBuilder::build(const double *Params) const {
  runtime::LutTableSet Set;
  Set.Tables.reserve(Tables.size());
  for (size_t T = 0; T != Tables.size(); ++T)
    Set.Tables.push_back(buildTable(T, Params));
  return Set;
}
