//===- Grid.h - Tissue grid geometry ----------------------------*- C++-*-===//
//
// The cell-to-node map of the tissue layer: a regular 1D cable or 2D
// sheet of nodes with spacing Dx, one ionic cell per node, row-major
// (node = y*NX + x). The map is the identity on cell indices, so the
// ShardPlan's contiguous cell ranges are contiguous node ranges and the
// diffusion stencil of a shard only reads a bounded halo around its
// range: one node per side in 1D, one NX-row per side in 2D. haloFor
// computes that halo for a shard so the stencil stages know exactly
// which remote cells the preceding publish barrier must have made
// visible.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_GRID_H
#define LIMPET_SIM_GRID_H

#include "support/Status.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace limpet {
namespace sim {

/// A regular 1D (NY == 1) or 2D tissue grid, row-major, spacing Dx (cm).
struct TissueGrid {
  int64_t NX = 0;
  int64_t NY = 1;
  double Dx = 0.025; ///< node spacing in cm (openCARP's default ballpark)

  bool valid() const { return NX > 0 && NY > 0 && Dx > 0; }
  bool is2D() const { return NY > 1; }
  int64_t numNodes() const { return NX * NY; }

  /// Row-major cell <-> node map (the identity on indices).
  int64_t nodeAt(int64_t X, int64_t Y) const { return Y * NX + X; }
  int64_t xOf(int64_t Node) const { return NX > 0 ? Node % NX : 0; }
  int64_t yOf(int64_t Node) const { return NX > 0 ? Node / NX : 0; }
};

/// Parses a grid size "NX" or "NXxNY" ('X' also separates): decimal
/// digits only, each dimension >= 1, NX*NY within int64_t. Trailing text
/// ("8x8junk"), signs, overflow and zero dimensions are recoverable
/// errors. Dx keeps its default.
inline Expected<TissueGrid> parseGridSize(std::string_view Text) {
  // from_chars skips no blank and takes no '+'; a '-' yields a value
  // below 1, and overflow comes back as an error code.
  auto dim = [](std::string_view S, int64_t &Out) {
    auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
    return Ec == std::errc() && End == S.data() + S.size() && Out >= 1;
  };
  TissueGrid G;
  size_t Sep = Text.find_first_of("xX");
  int64_t Nodes = 0;
  if (dim(Text.substr(0, Sep), G.NX) &&
      (Sep == std::string_view::npos || dim(Text.substr(Sep + 1), G.NY)) &&
      !__builtin_mul_overflow(G.NX, G.NY, &Nodes))
    return G;
  return Status::error("bad grid size '" + std::string(Text) +
                       "' (want NX or NXxNY, each >= 1)");
}

/// The halo of a shard's contiguous node range [Begin, End): the node
/// ranges outside it that the diffusion stencil reads. Both sub-ranges
/// are clipped to the grid, so boundary shards simply get empty or
/// shorter halos.
struct HaloRegion {
  int64_t LoBegin = 0, LoEnd = 0; ///< halo below Begin: [LoBegin, LoEnd)
  int64_t HiBegin = 0, HiEnd = 0; ///< halo above End: [HiBegin, HiEnd)

  int64_t size() const { return (LoEnd - LoBegin) + (HiEnd - HiBegin); }
};

/// Halo of [Begin, End) on \p G: one node per side for a 1D cable, one
/// full stencil row (NX nodes) per side for a 2D sheet.
inline HaloRegion haloFor(const TissueGrid &G, int64_t Begin, int64_t End) {
  HaloRegion H;
  if (!G.valid() || Begin >= End)
    return H;
  int64_t Reach = G.is2D() ? G.NX : 1;
  H.LoBegin = std::max<int64_t>(0, Begin - Reach);
  H.LoEnd = Begin;
  H.HiBegin = End;
  H.HiEnd = std::min(G.numNodes(), End + Reach);
  return H;
}

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_GRID_H
