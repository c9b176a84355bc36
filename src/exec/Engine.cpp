//===- Engine.cpp ---------------------------------------------------------===//

#include "exec/Engine.h"

#include "exec/Backend.h"
#include "runtime/VecMath.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <string>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::codegen;

namespace {

/// Math selection: Fast = VecMath kernels (vectorizable), !Fast = libm.
template <bool Fast> struct MathOps {
  static double mExp(double X) {
    return Fast ? vecmath::fastExp(X) : std::exp(X);
  }
  static double mExpm1(double X) {
    return Fast ? vecmath::fastExpm1(X) : std::expm1(X);
  }
  static double mLog(double X) {
    return Fast ? vecmath::fastLog(X) : std::log(X);
  }
  static double mLog10(double X) {
    return Fast ? vecmath::fastLog10(X) : std::log10(X);
  }
  static double mPow(double X, double Y) {
    return Fast ? vecmath::fastPow(X, Y) : std::pow(X, Y);
  }
  static double mSin(double X) {
    return Fast ? vecmath::fastSin(X) : std::sin(X);
  }
  static double mCos(double X) {
    return Fast ? vecmath::fastCos(X) : std::cos(X);
  }
  static double mTan(double X) {
    return Fast ? vecmath::fastTan(X) : std::tan(X);
  }
  static double mTanh(double X) {
    return Fast ? vecmath::fastTanh(X) : std::tanh(X);
  }
  static double mSinh(double X) {
    return Fast ? vecmath::fastSinh(X) : std::sinh(X);
  }
  static double mCosh(double X) {
    return Fast ? vecmath::fastCosh(X) : std::cosh(X);
  }
  static double mAtan(double X) {
    return Fast ? vecmath::fastAtan(X) : std::atan(X);
  }
  static double mAsin(double X) {
    return Fast ? vecmath::fastAsin(X) : std::asin(X);
  }
  static double mAcos(double X) {
    return Fast ? vecmath::fastAcos(X) : std::acos(X);
  }
};

//===----------------------------------------------------------------------===//
// Scalar engine
//===----------------------------------------------------------------------===//

/// Executes one instruction for one cell. \p Cell is unused by prologue
/// instructions.
template <bool Fast>
[[gnu::always_inline]] inline void execScalarInstr(const BcInstr &I, double *R,
                            const KernelArgs &A, const BcProgram &P,
                            int64_t Cell) {
  using M = MathOps<Fast>;
  switch (I.Op) {
  case BcOp::ConstF:
    R[I.Dst] = I.Imm;
    break;
  case BcOp::Copy:
    R[I.Dst] = R[I.A];
    break;
  case BcOp::LoadState:
    R[I.Dst] = A.State[stateIndex(P.Layout, Cell, I.Aux, P.NumSv,
                                  A.NumCells, P.AoSoAW)];
    break;
  case BcOp::StoreState:
    A.State[stateIndex(P.Layout, Cell, I.Aux, P.NumSv, A.NumCells,
                       P.AoSoAW)] = R[I.A];
    break;
  case BcOp::LoadExt:
    R[I.Dst] = A.Exts[size_t(I.Aux)][Cell];
    break;
  case BcOp::StoreExt:
    A.Exts[size_t(I.Aux)][Cell] = R[I.A];
    break;
  case BcOp::LoadParam:
    R[I.Dst] = A.Params[I.Aux];
    break;
  case BcOp::Add:
    R[I.Dst] = R[I.A] + R[I.B];
    break;
  case BcOp::Sub:
    R[I.Dst] = R[I.A] - R[I.B];
    break;
  case BcOp::Mul:
    R[I.Dst] = R[I.A] * R[I.B];
    break;
  case BcOp::Div:
    R[I.Dst] = R[I.A] / R[I.B];
    break;
  case BcOp::Rem:
    R[I.Dst] = std::fmod(R[I.A], R[I.B]);
    break;
  case BcOp::Neg:
    R[I.Dst] = -R[I.A];
    break;
  case BcOp::Min:
    R[I.Dst] = std::fmin(R[I.A], R[I.B]);
    break;
  case BcOp::Max:
    R[I.Dst] = std::fmax(R[I.A], R[I.B]);
    break;
  case BcOp::CmpLT:
    R[I.Dst] = R[I.A] < R[I.B] ? 1.0 : 0.0;
    break;
  case BcOp::CmpLE:
    R[I.Dst] = R[I.A] <= R[I.B] ? 1.0 : 0.0;
    break;
  case BcOp::CmpGT:
    R[I.Dst] = R[I.A] > R[I.B] ? 1.0 : 0.0;
    break;
  case BcOp::CmpGE:
    R[I.Dst] = R[I.A] >= R[I.B] ? 1.0 : 0.0;
    break;
  case BcOp::CmpEQ:
    R[I.Dst] = R[I.A] == R[I.B] ? 1.0 : 0.0;
    break;
  case BcOp::CmpNE:
    R[I.Dst] = R[I.A] != R[I.B] ? 1.0 : 0.0;
    break;
  case BcOp::And:
    R[I.Dst] = (R[I.A] != 0.0) && (R[I.B] != 0.0) ? 1.0 : 0.0;
    break;
  case BcOp::Or:
    R[I.Dst] = (R[I.A] != 0.0) || (R[I.B] != 0.0) ? 1.0 : 0.0;
    break;
  case BcOp::Xor:
    R[I.Dst] = (R[I.A] != 0.0) != (R[I.B] != 0.0) ? 1.0 : 0.0;
    break;
  case BcOp::Select:
    R[I.Dst] = R[I.A] != 0.0 ? R[I.B] : R[I.C];
    break;
  case BcOp::Exp:
    R[I.Dst] = M::mExp(R[I.A]);
    break;
  case BcOp::Expm1:
    R[I.Dst] = M::mExpm1(R[I.A]);
    break;
  case BcOp::Log:
    R[I.Dst] = M::mLog(R[I.A]);
    break;
  case BcOp::Log10:
    R[I.Dst] = M::mLog10(R[I.A]);
    break;
  case BcOp::Sqrt:
    R[I.Dst] = std::sqrt(R[I.A]);
    break;
  case BcOp::Sin:
    R[I.Dst] = M::mSin(R[I.A]);
    break;
  case BcOp::Cos:
    R[I.Dst] = M::mCos(R[I.A]);
    break;
  case BcOp::Tan:
    R[I.Dst] = M::mTan(R[I.A]);
    break;
  case BcOp::Tanh:
    R[I.Dst] = M::mTanh(R[I.A]);
    break;
  case BcOp::Sinh:
    R[I.Dst] = M::mSinh(R[I.A]);
    break;
  case BcOp::Cosh:
    R[I.Dst] = M::mCosh(R[I.A]);
    break;
  case BcOp::Atan:
    R[I.Dst] = M::mAtan(R[I.A]);
    break;
  case BcOp::Asin:
    R[I.Dst] = M::mAsin(R[I.A]);
    break;
  case BcOp::Acos:
    R[I.Dst] = M::mAcos(R[I.A]);
    break;
  case BcOp::Abs:
    R[I.Dst] = std::fabs(R[I.A]);
    break;
  case BcOp::Floor:
    R[I.Dst] = std::floor(R[I.A]);
    break;
  case BcOp::Ceil:
    R[I.Dst] = std::ceil(R[I.A]);
    break;
  case BcOp::Pow:
    R[I.Dst] = M::mPow(R[I.A], R[I.B]);
    break;
  case BcOp::LutCoord: {
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    double X = R[I.A];
    int64_t Idx;
    double Frac;
    T.coord(X, Idx, Frac);
    R[I.Dst] = double(Idx);
    R[I.C] = Frac;
    break;
  }
  case BcOp::LutInterp: {
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    R[I.Dst] = T.interp(int64_t(R[I.A]), R[I.B], I.Aux2);
    break;
  }
  case BcOp::LutInterpCubic: {
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    R[I.Dst] = T.interpCubic(int64_t(R[I.A]), R[I.B], I.Aux2);
    break;
  }
  }
}

template <bool Fast>
void runScalarRange(const BcProgram &P, const KernelArgs &A, int64_t Begin,
                    int64_t End) {
  std::vector<double> Regs(P.NumRegs, 0.0);
  double *R = Regs.data();
  if (P.HasDt)
    R[P.DtReg] = A.Dt;
  if (P.HasT)
    R[P.TReg] = A.T;
  for (const BcInstr &I : P.Prologue)
    execScalarInstr<Fast>(I, R, A, P, /*Cell=*/0);
  for (int64_t Cell = Begin; Cell != End; ++Cell)
    for (const BcInstr &I : P.Body)
      execScalarInstr<Fast>(I, R, A, P, Cell);
}

//===----------------------------------------------------------------------===//
// Vector engine
//===----------------------------------------------------------------------===//

/// Executes one instruction over W lanes starting at cell \p C. With a
/// non-zero compile-time lane count WC the lane loops have compile-time
/// trip counts and branch-free bodies so the host compiler emits SIMD
/// (the specialized fast path); with WC == 0 the lane count is the
/// runtime parameter \p RtW — the vector-length-agnostic mode, one
/// interpreter body serving any width the registry advertises.
template <unsigned WC, bool Fast>
[[gnu::always_inline]] inline void execVectorInstr(const BcInstr &I, double *Regs,
                            const KernelArgs &A, const BcProgram &P,
                            int64_t C, unsigned RtW) {
  const unsigned W = WC ? WC : RtW;
  using M = MathOps<Fast>;
  auto Reg = [&](uint16_t RegNo) { return Regs + size_t(RegNo) * W; };
  // The bytecode compiler guarantees a destination register never aliases
  // a source register of the same instruction, so the lane loops below
  // are safely vectorizable.
  double *__restrict D = Reg(I.Dst);
  const double *__restrict Ra = Reg(I.A);
  const double *__restrict Rb = Reg(I.B);
  const double *__restrict Rc = Reg(I.C);

  switch (I.Op) {
  case BcOp::ConstF:
    for (unsigned L = 0; L != W; ++L)
      D[L] = I.Imm;
    break;
  case BcOp::Copy:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L];
    break;
  case BcOp::LoadState: {
    const double *Src;
    switch (P.Layout) {
    case StateLayout::AoSoA:
      // Blocked layout: the W lanes of one sv are contiguous.
      Src = A.State + size_t(C) * P.NumSv + size_t(I.Aux) * W;
      for (unsigned L = 0; L != W; ++L)
        D[L] = Src[L];
      break;
    case StateLayout::SoA:
      Src = A.State + size_t(I.Aux) * A.NumCells + C;
      for (unsigned L = 0; L != W; ++L)
        D[L] = Src[L];
      break;
    case StateLayout::AoS:
      // Strided gather: one cell's struct per lane.
      for (unsigned L = 0; L != W; ++L)
        D[L] = A.State[size_t(C + L) * P.NumSv + size_t(I.Aux)];
      break;
    }
    break;
  }
  case BcOp::StoreState: {
    double *Dst;
    switch (P.Layout) {
    case StateLayout::AoSoA:
      Dst = A.State + size_t(C) * P.NumSv + size_t(I.Aux) * W;
      for (unsigned L = 0; L != W; ++L)
        Dst[L] = Ra[L];
      break;
    case StateLayout::SoA:
      Dst = A.State + size_t(I.Aux) * A.NumCells + C;
      for (unsigned L = 0; L != W; ++L)
        Dst[L] = Ra[L];
      break;
    case StateLayout::AoS:
      for (unsigned L = 0; L != W; ++L)
        A.State[size_t(C + L) * P.NumSv + size_t(I.Aux)] = Ra[L];
      break;
    }
    break;
  }
  case BcOp::LoadExt: {
    const double *Src = A.Exts[size_t(I.Aux)] + C;
    for (unsigned L = 0; L != W; ++L)
      D[L] = Src[L];
    break;
  }
  case BcOp::StoreExt: {
    double *Dst = A.Exts[size_t(I.Aux)] + C;
    for (unsigned L = 0; L != W; ++L)
      Dst[L] = Ra[L];
    break;
  }
  case BcOp::LoadParam:
    for (unsigned L = 0; L != W; ++L)
      D[L] = A.Params[I.Aux];
    break;
  case BcOp::Add:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] + Rb[L];
    break;
  case BcOp::Sub:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] - Rb[L];
    break;
  case BcOp::Mul:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] * Rb[L];
    break;
  case BcOp::Div:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] / Rb[L];
    break;
  case BcOp::Rem:
    for (unsigned L = 0; L != W; ++L)
      D[L] = std::fmod(Ra[L], Rb[L]);
    break;
  case BcOp::Neg:
    for (unsigned L = 0; L != W; ++L)
      D[L] = -Ra[L];
    break;
  case BcOp::Min:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] < Rb[L] ? Ra[L] : Rb[L];
    break;
  case BcOp::Max:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] > Rb[L] ? Ra[L] : Rb[L];
    break;
  case BcOp::CmpLT:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] < Rb[L] ? 1.0 : 0.0;
    break;
  case BcOp::CmpLE:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] <= Rb[L] ? 1.0 : 0.0;
    break;
  case BcOp::CmpGT:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] > Rb[L] ? 1.0 : 0.0;
    break;
  case BcOp::CmpGE:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] >= Rb[L] ? 1.0 : 0.0;
    break;
  case BcOp::CmpEQ:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] == Rb[L] ? 1.0 : 0.0;
    break;
  case BcOp::CmpNE:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] != Rb[L] ? 1.0 : 0.0;
    break;
  case BcOp::And:
    for (unsigned L = 0; L != W; ++L)
      D[L] = (Ra[L] != 0.0) & (Rb[L] != 0.0) ? 1.0 : 0.0;
    break;
  case BcOp::Or:
    for (unsigned L = 0; L != W; ++L)
      D[L] = (Ra[L] != 0.0) | (Rb[L] != 0.0) ? 1.0 : 0.0;
    break;
  case BcOp::Xor:
    for (unsigned L = 0; L != W; ++L)
      D[L] = (Ra[L] != 0.0) != (Rb[L] != 0.0) ? 1.0 : 0.0;
    break;
  case BcOp::Select:
    for (unsigned L = 0; L != W; ++L)
      D[L] = Ra[L] != 0.0 ? Rb[L] : Rc[L];
    break;
  case BcOp::Exp:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mExp(Ra[L]);
    break;
  case BcOp::Expm1:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mExpm1(Ra[L]);
    break;
  case BcOp::Log:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mLog(Ra[L]);
    break;
  case BcOp::Log10:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mLog10(Ra[L]);
    break;
  case BcOp::Sqrt:
    for (unsigned L = 0; L != W; ++L)
      D[L] = std::sqrt(Ra[L]);
    break;
  case BcOp::Sin:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mSin(Ra[L]);
    break;
  case BcOp::Cos:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mCos(Ra[L]);
    break;
  case BcOp::Tan:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mTan(Ra[L]);
    break;
  case BcOp::Tanh:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mTanh(Ra[L]);
    break;
  case BcOp::Sinh:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mSinh(Ra[L]);
    break;
  case BcOp::Cosh:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mCosh(Ra[L]);
    break;
  case BcOp::Atan:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mAtan(Ra[L]);
    break;
  case BcOp::Asin:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mAsin(Ra[L]);
    break;
  case BcOp::Acos:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mAcos(Ra[L]);
    break;
  case BcOp::Abs:
    for (unsigned L = 0; L != W; ++L)
      D[L] = std::fabs(Ra[L]);
    break;
  case BcOp::Floor:
    for (unsigned L = 0; L != W; ++L)
      D[L] = std::floor(Ra[L]);
    break;
  case BcOp::Ceil:
    for (unsigned L = 0; L != W; ++L)
      D[L] = std::ceil(Ra[L]);
    break;
  case BcOp::Pow:
    for (unsigned L = 0; L != W; ++L)
      D[L] = M::mPow(Ra[L], Rb[L]);
    break;
  case BcOp::LutCoord: {
    // The vectorized LUT_interpRow coordinate computation (paper Sec.
    // 3.4.2): branch-free clamp, truncate and fraction per lane, written
    // over local scalars so the compiler if-converts and vectorizes.
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    double *__restrict Fr = Reg(I.C);
    double Lo = T.coordLo(), InvStep = T.coordInvStep();
    double MaxPos = T.coordMaxPos(), MaxIdx = T.coordMaxIdx();
    for (unsigned L = 0; L != W; ++L) {
      double Pos = (Ra[L] - Lo) * InvStep;
      // Ordered so a NaN lane clamps to 0.0 before the int64_t cast
      // (casting NaN is UB); mirrors LutTable::coord.
      Pos = Pos > 0.0 ? (Pos < MaxPos ? Pos : MaxPos) : 0.0;
      double Floor = double(int64_t(Pos));
      Floor = Floor > MaxIdx ? MaxIdx : Floor;
      D[L] = Floor;
      Fr[L] = Pos - Floor;
    }
    break;
  }
  case BcOp::LutInterp: {
    // Gather-style interpolation the vectorizer can turn into SIMD: both
    // row entries of the column are fetched per lane and blended.
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    const double *__restrict Tab = T.data();
    int64_t Cols = T.cols();
    int64_t Col = I.Aux2;
    for (unsigned L = 0; L != W; ++L) {
      int64_t Idx = int64_t(Ra[L]);
      double Lo = Tab[Idx * Cols + Col];
      double Hi = Tab[Idx * Cols + Cols + Col];
      D[L] = Lo + Rb[L] * (Hi - Lo);
    }
    break;
  }
  case BcOp::LutInterpCubic: {
    // Four-point Lagrange over adjacent rows; the edge clamps are
    // branchless selects so the lane loop stays vectorizable.
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    const double *__restrict Tab = T.data();
    int64_t Cols = T.cols();
    int64_t Col = I.Aux2;
    int64_t LastRow = T.rows() - 1;
    for (unsigned L = 0; L != W; ++L) {
      int64_t Idx = int64_t(Ra[L]);
      int64_t I0 = Idx > 0 ? Idx - 1 : 0;
      int64_t I3 = Idx + 2 < LastRow + 1 ? Idx + 2 : LastRow;
      double P0 = Tab[I0 * Cols + Col];
      double P1 = Tab[Idx * Cols + Col];
      double P2 = Tab[(Idx + 1) * Cols + Col];
      double P3 = Tab[I3 * Cols + Col];
      double Tf = Rb[L];
      double W0 = -Tf * (Tf - 1.0) * (Tf - 2.0) * (1.0 / 6.0);
      double W1 = (Tf + 1.0) * (Tf - 1.0) * (Tf - 2.0) * 0.5;
      double W2 = -(Tf + 1.0) * Tf * (Tf - 2.0) * 0.5;
      double W3 = (Tf + 1.0) * Tf * (Tf - 1.0) * (1.0 / 6.0);
      D[L] = W0 * P0 + W1 * P1 + W2 * P2 + W3 * P3;
    }
    break;
  }
  }
}

/// Runs full W-blocks only; Backend::step routes any ragged tail through
/// the scalar backend before calling this. WC/RtW as in execVectorInstr:
/// WC > 0 is the specialized template burn, WC == 0 reads the width from
/// \p RtW at runtime.
template <unsigned WC, bool Fast>
void runVectorRange(const BcProgram &P, const KernelArgs &A, unsigned RtW) {
  const unsigned W = WC ? WC : RtW;
  assert(W > 1 && "vector ranges need a vector width");
  assert((A.End - A.Start) % int64_t(W) == 0 &&
         "vector ranges must be whole W-blocks (tails are the scalar "
         "backend's job)");
  std::vector<double> Regs(size_t(P.NumRegs) * W, 0.0);
  double *R = Regs.data();
  if (P.HasDt)
    for (unsigned L = 0; L != W; ++L)
      R[size_t(P.DtReg) * W + L] = A.Dt;
  if (P.HasT)
    for (unsigned L = 0; L != W; ++L)
      R[size_t(P.TReg) * W + L] = A.T;
  // The prologue is lane-uniform, so the vector interpreter runs it too.
  for (const BcInstr &I : P.Prologue)
    execVectorInstr<WC, Fast>(I, R, A, P, A.Start, W);

  for (int64_t C = A.Start; C + int64_t(W) <= A.End; C += int64_t(W))
    for (const BcInstr &I : P.Body)
      execVectorInstr<WC, Fast>(I, R, A, P, C, W);
}

//===----------------------------------------------------------------------===//
// Backend implementations
//===----------------------------------------------------------------------===//

template <bool Fast> class ScalarBackend final : public Backend {
public:
  std::string_view name() const override {
    return Fast ? "scalar/vecmath" : "scalar/libm";
  }
  unsigned width() const override { return 1; }
  bool fastMath() const override { return Fast; }

protected:
  void runRange(const BcProgram &P, const KernelArgs &A) const override {
    runScalarRange<Fast>(P, A, A.Start, A.End);
  }
};

template <unsigned W, bool Fast> class VectorBackend final : public Backend {
public:
  VectorBackend()
      : Name("vec" + std::to_string(W) + (Fast ? "/vecmath" : "/libm")) {}
  std::string_view name() const override { return Name; }
  unsigned width() const override { return W; }
  bool fastMath() const override { return Fast; }

protected:
  void runRange(const BcProgram &P, const KernelArgs &A) const override {
    runVectorRange<W, Fast>(P, A, W);
  }

private:
  std::string Name;
};

/// The vector-length-agnostic interpreter: one body (runVectorRange<0>)
/// whose lane count is a member read at runtime, registered for the one
/// width beyond the template burn (16). Its lane loops execute the same
/// operations in the same order as the specialized burns, just without
/// compile-time trip counts for the host vectorizer to lean on.
template <bool Fast> class VlaBackend final : public Backend {
public:
  explicit VlaBackend(unsigned W)
      : W(W), Name("vla" + std::to_string(W) + (Fast ? "/vecmath" : "/libm")) {}
  std::string_view name() const override { return Name; }
  unsigned width() const override { return W; }
  bool fastMath() const override { return Fast; }

protected:
  void runRange(const BcProgram &P, const KernelArgs &A) const override {
    runVectorRange<0, Fast>(P, A, W);
  }

private:
  unsigned W;
  std::string Name;
};

/// Process-lifetime backend singletons. The registry holds pointers into
/// this pool; forCaps() registries built for other machines share the
/// same instances (the interpreters themselves run anywhere — narrower
/// hosts just execute the lane loops with less SIMD).
struct BackendPool {
  ScalarBackend<false> S1Exact;
  ScalarBackend<true> S1Fast;
  VectorBackend<2, false> V2Exact;
  VectorBackend<2, true> V2Fast;
  VectorBackend<4, false> V4Exact;
  VectorBackend<4, true> V4Fast;
  VectorBackend<8, false> V8Exact;
  VectorBackend<8, true> V8Fast;
  VlaBackend<false> Vla16Exact{16};
  VlaBackend<true> Vla16Fast{16};

  static const BackendPool &get() {
    static const BackendPool Pool;
    return Pool;
  }
};

/// Local FNV-1a (the exec layer does not depend on compiler/Serialize).
uint64_t fnv1a64(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

BackendRegistry BackendRegistry::forCaps(const support::CpuCaps &Caps) {
  const BackendPool &Pool = BackendPool::get();
  BackendRegistry R;
  R.Isa = Caps.Isa;
  R.MaxLanes = Caps.MaxLanesF64;

  auto add = [&](const Backend &B) {
    R.Entries.push_back({&B, B.width(), B.fastMath(), B.alignmentBytes()});
  };

  // The scalar interpreter and the specialized template burns register on
  // every host: they are portable C++ whose lane loops the host compiler
  // lowers to whatever SIMD exists (or unrolled scalar code). The probe
  // widens the *menu*, it never narrows the portable floor — width
  // support stays deterministic across machines, and the autotuner is
  // what decides whether an over-wide interpreter pays off here.
  add(Pool.S1Exact);
  add(Pool.S1Fast);
  add(Pool.V2Exact);
  add(Pool.V2Fast);
  add(Pool.V4Exact);
  add(Pool.V4Fast);
  add(Pool.V8Exact);
  add(Pool.V8Fast);

  // The runtime-width interpreter covers the extended width 2*MaxLanesF64
  // where the host's vector unit out-runs the template burn (two full
  // vectors in flight per block on AVX-512).
  if (Caps.MaxLanesF64 * 2 > 8) {
    add(Pool.Vla16Exact);
    add(Pool.Vla16Fast);
  }

  for (const BackendInfo &E : R.Entries)
    if (std::find(R.Widths.begin(), R.Widths.end(), E.Width) ==
        R.Widths.end())
      R.Widths.push_back(E.Width);
  std::sort(R.Widths.begin(), R.Widths.end());

  uint64_t H = 1469598103934665603ULL; // FNV offset basis
  H = fnv1a64(H, R.Isa.data(), R.Isa.size());
  for (const BackendInfo &E : R.Entries) {
    uint32_t Tuple[2] = {E.Width, uint32_t(E.FastMath)};
    H = fnv1a64(H, Tuple, sizeof(Tuple));
  }
  R.Fingerprint = H;
  return R;
}

const BackendRegistry &BackendRegistry::global() {
  static const BackendRegistry R = forCaps(support::hostCpuCaps());
  return R;
}

const Backend *BackendRegistry::find(unsigned Width, bool FastMath) const {
  // One entry per (width, math flavour).
  for (const BackendInfo &E : Entries)
    if (E.Width == Width && E.FastMath == FastMath)
      return E.Impl;
  return nullptr;
}

bool BackendRegistry::supportsWidth(unsigned W) const {
  return std::find(Widths.begin(), Widths.end(), W) != Widths.end();
}

bool exec::isSupportedWidth(unsigned W) {
  return BackendRegistry::global().supportsWidth(W);
}

const Backend *exec::tryResolveBackend(unsigned Width, bool FastMath) {
  return BackendRegistry::global().find(Width, FastMath);
}

Status exec::runKernel(const BcProgram &P, const KernelArgs &Args,
                       unsigned Width, bool FastMath) {
  const Backend *B = tryResolveBackend(Width, FastMath);
  if (!B)
    return Status::error("no backend registered for vector width " +
                         std::to_string(Width));
  KernelArgs A = Args;
  B->step(P, A);
  return Status::success();
}
