//===- StateBuffer.h - Layout-aware population state container --*- C++-*-===//
//
// Owns the per-population arrays a compiled model steps over: the state
// array in the model's compiled layout (AoS / SoA / AoSoA, the paper's
// Sec. 3.4.1 data-layout transformation) and one dense per-cell array per
// external variable. This is the single runtime owner of layout
// addressing — every per-cell access (health scans, checkpoints,
// multimodel bindings, fault injection, the scalar-exact fallback
// gather/scatter) goes through the accessors here, which funnel into the
// one canonical index formula, codegen::stateIndex.
//
// NUMA story: the constructor allocates without touching the pages; when
// given a Scheduler, initialize() writes each shard's cells from the
// worker thread that will later step them (first-touch, shard-aligned),
// so pages land on the stepping thread's node and the Scheduler's stable
// shard assignment keeps them there.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_STATEBUFFER_H
#define LIMPET_SIM_STATEBUFFER_H

#include "codegen/KernelSpec.h"
#include "exec/CompiledModel.h"
#include "sim/Grid.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace limpet {
namespace sim {

class Scheduler;

/// A layout-aware strided view of one state-variable column: cell-indexed
/// access to a single Sv across the population for any AoS/SoA/AoSoA x
/// width point, without repacking. contiguous() is true for SoA, where
/// data() exposes the dense column directly (the zero-copy fast path);
/// the operator[] form funnels through the same canonical index formula
/// as StateBuffer.
class ColumnView {
public:
  ColumnView(double *State, codegen::StateLayout Layout, unsigned Sv,
             unsigned NumSv, int64_t NumCells, unsigned BlockW)
      : State(State), Layout(Layout), Sv(Sv), NumSv(NumSv),
        NumCells(NumCells), BlockW(BlockW) {}

  double &operator[](int64_t Cell) const {
    return State[size_t(codegen::stateIndex(Layout, Cell, Sv, NumSv,
                                            NumCells, BlockW))];
  }

  /// True when the column occupies consecutive elements (SoA, or the
  /// degenerate single-variable AoS), so data() is a dense array.
  bool contiguous() const {
    return Layout == codegen::StateLayout::SoA || NumSv == 1;
  }
  /// First element of the column; only dense when contiguous().
  double *data() const { return &(*this)[0]; }

  /// Copies [Begin, End) of the column into dense scratch / back from it
  /// (the stencil path for non-SoA layouts).
  void copyOut(double *Dst, int64_t Begin, int64_t End) const {
    for (int64_t C = Begin; C < End; ++C)
      Dst[C - Begin] = (*this)[C];
  }

private:
  double *State;
  codegen::StateLayout Layout;
  unsigned Sv;
  unsigned NumSv;
  int64_t NumCells;
  unsigned BlockW;
};

/// A cell population's state and external arrays in one compiled layout.
class StateBuffer {
public:
  /// Shapes the buffer for \p Model over \p NumCells cells (AoSoA pads to
  /// whole blocks) and initializes every variable to the model's inits —
  /// serially, or per shard from the worker threads when \p Sched is
  /// given (first-touch allocation).
  StateBuffer(const exec::CompiledModel &Model, int64_t NumCells,
              const Scheduler *Sched = nullptr);

  /// Rewrites every state/external variable to its initial value. The
  /// padded AoSoA tail is initialized too, so health scans over the full
  /// array stay meaningful.
  void initialize(const Scheduler *Sched = nullptr);

  int64_t numCells() const { return NumCells; }
  /// Cells the state array covers including AoSoA block padding.
  int64_t paddedCells() const { return Padded; }
  unsigned numSv() const { return NumSv; }
  size_t numExternals() const { return Exts.size(); }
  codegen::StateLayout layout() const { return Layout; }
  /// AoSoA block width (1 for AoS/SoA).
  unsigned blockWidth() const { return BlockW; }

  /// Flat element index of (cell, sv) under the current layout — the one
  /// canonical indexing implementation (codegen::stateIndex).
  int64_t index(int64_t Cell, int64_t Sv) const {
    return codegen::stateIndex(Layout, Cell, Sv, NumSv, NumCells, BlockW);
  }

  double *state() { return State.get(); }
  const double *state() const { return State.get(); }
  size_t stateSize() const { return size_t(Padded) * NumSv; }

  double *ext(size_t J) { return Exts[J].get(); }
  const double *ext(size_t J) const { return Exts[J].get(); }
  /// The external array pointers in model order (KernelArgs::Exts).
  std::vector<double *> extPointers();

  // Per-cell accessors (bounds are the caller's responsibility; the
  // drivers' public APIs add the checks).
  double readState(int64_t Cell, int64_t Sv) const {
    return State[size_t(index(Cell, Sv))];
  }
  void writeState(int64_t Cell, int64_t Sv, double Value) {
    State[size_t(index(Cell, Sv))] = Value;
  }
  double readExt(size_t J, int64_t Cell) const {
    return Exts[J][size_t(Cell)];
  }
  void writeExt(size_t J, int64_t Cell, double Value) {
    Exts[J][size_t(Cell)] = Value;
  }

  /// Copies one cell out into dense scratch: NumSv state values into
  /// \p Sv, one value per external into \p Ext. The layout the
  /// scalar-exact fallback and multimodel bindings work in.
  void gatherCell(int64_t Cell, double *Sv, double *Ext) const;
  /// Inverse of gatherCell.
  void scatterCell(int64_t Cell, const double *Sv, const double *Ext);

  /// Converts the population to another layout in place (contents
  /// preserved per (cell, sv); AoSoA pad lanes reset to the initial
  /// values, matching a freshly initialized buffer). \p NewWidth is the
  /// AoSoA block width and ignored for AoS/SoA.
  void repack(codegen::StateLayout NewLayout, unsigned NewWidth);

  /// A checkpoint of the full population (guard-rail rollback).
  struct Snapshot {
    std::vector<double> State;
    std::vector<std::vector<double>> Exts;
  };
  void save(Snapshot &S) const;
  /// Restores in place; the state()/ext() pointers stay valid.
  void restore(const Snapshot &S);
  /// Layout-aware read out of a snapshot taken from this buffer.
  double snapshotState(const Snapshot &S, int64_t Cell, int64_t Sv) const {
    return S.State[size_t(index(Cell, Sv))];
  }

  /// Order-independent digest of the population (engine-equivalence and
  /// scheduler-determinism tests). Excludes AoSoA padding.
  double checksum() const;

  //===--------------------------------------------------------------------===//
  // Tissue geometry (optional)
  //===--------------------------------------------------------------------===//

  /// Attaches a tissue grid to the population (cell c <-> node c,
  /// row-major). Refused (recoverable) when the node count does not
  /// match the population.
  Status attachGrid(const TissueGrid &G);
  bool hasGrid() const { return Grid.valid(); }
  const TissueGrid &grid() const { return Grid; }

  /// Halo of a shard's cell range under the attached grid (empty when no
  /// grid is attached).
  HaloRegion haloFor(int64_t Begin, int64_t End) const {
    return hasGrid() ? limpet::sim::haloFor(Grid, Begin, End)
                     : HaloRegion{};
  }

  /// Layout-aware view of one state-variable column (bounds are the
  /// caller's responsibility, like the per-cell accessors).
  ColumnView column(unsigned Sv) {
    return ColumnView(State.get(), Layout, Sv, NumSv, NumCells, BlockW);
  }

private:
  codegen::StateLayout Layout;
  unsigned NumSv;
  unsigned BlockW;
  int64_t NumCells;
  int64_t Padded;
  /// The model's initial values, captured so initialize()/repack() do not
  /// need the model again.
  std::vector<double> SvInits;
  std::vector<double> ExtInits;
  /// new double[] without value-initialization: pages stay untouched
  /// until initialize() writes them (first-touch).
  std::unique_ptr<double[]> State;
  std::vector<std::unique_ptr<double[]>> Exts;
  /// Tissue geometry; invalid (NX == 0) for plain populations.
  TissueGrid Grid{0, 1, 0.025};
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_STATEBUFFER_H
