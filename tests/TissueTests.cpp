//===- TissueTests.cpp - Tissue reaction-diffusion layer tests -----------===//
//
// Covers the tissue stack bottom-up: grid geometry and halos, the
// diffusion operator against analytic heat-kernel solutions and exact
// discrete invariants (mass conservation, second-moment growth), the
// publish/apply halo exchange's shard-count independence, the stimulus
// protocol grammar, and the TissueSimulator driver end-to-end
// (determinism across thread counts, checkpoint/resume per layout x
// width point, S1-S2 pacing, preflight validation, activation maps).
//
//===----------------------------------------------------------------------===//

#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Checkpoint.h"
#include "sim/Diffusion.h"
#include "sim/Grid.h"
#include "sim/StateBuffer.h"
#include "sim/Stimulus.h"
#include "sim/TissueSimulator.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <memory>
#include <numeric>
#include <vector>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::sim;

namespace {

std::optional<CompiledModel> compileByName(const char *Name,
                                           EngineConfig Cfg) {
  const models::ModelEntry *M = models::findModel(Name);
  EXPECT_NE(M, nullptr);
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(M->Name, M->Source, Diags);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  return CompiledModel::compile(*Info, Cfg);
}

/// Wall-time fields differ between otherwise identical runs; zero them so
/// serialized checkpoints compare bit-for-bit.
CheckpointData normalizedCkpt(CheckpointData C) {
  C.Report.ScanSeconds = 0;
  C.Report.RecoverySeconds = 0;
  C.Report.RunSeconds = 0;
  return C;
}

//===----------------------------------------------------------------------===//
// Grid geometry
//===----------------------------------------------------------------------===//

TEST(TissueGrid, RowMajorNodeMapRoundTrips) {
  TissueGrid G{7, 5, 0.025};
  EXPECT_TRUE(G.valid());
  EXPECT_TRUE(G.is2D());
  EXPECT_EQ(G.numNodes(), 35);
  for (int64_t Y = 0; Y < G.NY; ++Y)
    for (int64_t X = 0; X < G.NX; ++X) {
      int64_t N = G.nodeAt(X, Y);
      EXPECT_EQ(G.xOf(N), X);
      EXPECT_EQ(G.yOf(N), Y);
    }
  TissueGrid Cable{16, 1, 0.01};
  EXPECT_FALSE(Cable.is2D());
  EXPECT_FALSE((TissueGrid{0, 1, 0.025}).valid());
  EXPECT_FALSE((TissueGrid{4, 4, 0.0}).valid());
}

TEST(TissueGrid, HaloIsOneNodeIn1DAndOneRowIn2D) {
  TissueGrid Cable{100, 1, 0.025};
  HaloRegion H = haloFor(Cable, 40, 60);
  EXPECT_EQ(H.LoBegin, 39);
  EXPECT_EQ(H.LoEnd, 40);
  EXPECT_EQ(H.HiBegin, 60);
  EXPECT_EQ(H.HiEnd, 61);
  EXPECT_EQ(H.size(), 2);

  TissueGrid Sheet{10, 8, 0.025};
  H = haloFor(Sheet, 30, 50);
  EXPECT_EQ(H.LoBegin, 20); // one full NX-row below
  EXPECT_EQ(H.LoEnd, 30);
  EXPECT_EQ(H.HiBegin, 50);
  EXPECT_EQ(H.HiEnd, 60); // one full NX-row above
  EXPECT_EQ(H.size(), 20);
}

TEST(TissueGrid, HaloClipsAtGridEdges) {
  TissueGrid Cable{32, 1, 0.025};
  HaloRegion Lo = haloFor(Cable, 0, 8);
  EXPECT_EQ(Lo.LoBegin, Lo.LoEnd); // empty below
  EXPECT_EQ(Lo.HiBegin, 8);
  EXPECT_EQ(Lo.HiEnd, 9);
  HaloRegion Hi = haloFor(Cable, 24, 32);
  EXPECT_EQ(Hi.LoBegin, 23);
  EXPECT_EQ(Hi.HiBegin, Hi.HiEnd); // empty above
  EXPECT_EQ(haloFor(Cable, 8, 8).size(), 0);
  EXPECT_EQ(haloFor(TissueGrid{0, 1, 0.025}, 0, 4).size(), 0);
}

//===----------------------------------------------------------------------===//
// Diffusion operator
//===----------------------------------------------------------------------===//

TEST(TissueGrid, ParseGridSizeAcceptsOnlyWholeInRangeSizes) {
  Expected<TissueGrid> G = parseGridSize("64");
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(G->NX, 64);
  EXPECT_EQ(G->NY, 1);
  G = parseGridSize("24x12");
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(G->NX, 24);
  EXPECT_EQ(G->NY, 12);
  G = parseGridSize("3X7");
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(G->NY, 7);
  // Trailing text, signs, blanks, zero, overflow of a dimension and of
  // the node count are all rejected.
  for (const char *Bad :
       {"", "x", "8x", "x8", "8x8junk", "8junk", "8x8x8", "0", "8x0", "-8",
        "+8", "8x-1", " 8", "8 ", "8y8", "99999999999999999999",
        "4294967296x4294967296", "9223372036854775807x2"})
    EXPECT_FALSE(bool(parseGridSize(Bad))) << "accepted '" << Bad << "'";
}

TEST(Diffusion, MethodNamesParseAndRoundTrip) {
  auto Ftcs = parseDiffusionMethod("ftcs");
  ASSERT_TRUE(Ftcs.hasValue());
  EXPECT_EQ(*Ftcs, DiffusionMethod::FTCS);
  auto Cn = parseDiffusionMethod("cn");
  ASSERT_TRUE(Cn.hasValue());
  EXPECT_EQ(*Cn, DiffusionMethod::CrankNicolson);
  auto Long = parseDiffusionMethod("crank-nicolson");
  ASSERT_TRUE(Long.hasValue());
  EXPECT_EQ(*Long, DiffusionMethod::CrankNicolson);
  EXPECT_FALSE(parseDiffusionMethod("upwind").hasValue());
  EXPECT_STREQ(diffusionMethodName(DiffusionMethod::FTCS), "ftcs");
  EXPECT_STREQ(diffusionMethodName(DiffusionMethod::CrankNicolson), "cn");
}

TEST(Diffusion, FtcsStableDtMatchesCflFormula) {
  DiffusionOperator D1({64, 1, 0.025}, 0.001, DiffusionMethod::FTCS);
  EXPECT_NEAR(D1.maxStableDt(), 0.025 * 0.025 / (2 * 0.001), 1e-12);
  DiffusionOperator D2({16, 16, 0.025}, 0.001, DiffusionMethod::FTCS);
  EXPECT_NEAR(D2.maxStableDt(), 0.025 * 0.025 / (4 * 0.001), 1e-12);
  DiffusionOperator Cn({64, 1, 0.025}, 0.001,
                       DiffusionMethod::CrankNicolson);
  EXPECT_TRUE(std::isinf(Cn.maxStableDt()));
}

/// Gaussian initial condition on a 1D cable; after time t the analytic
/// solution is a wider Gaussian: s(t) = sqrt(s0^2 + 2*sigma*t), with the
/// peak scaled by s0/s(t) (mass is conserved). The domain is wide enough
/// (half-width 2.5 cm vs. 3*s(t) ~ 0.5 cm) that the no-flux boundaries
/// contribute nothing.
static void checkHeatKernel(DiffusionMethod M, double Dt, int64_t Steps,
                            double Tol) {
  const int64_t N = 201;
  const double Dx = 0.025, Sigma = 0.001, S0 = 0.1;
  TissueGrid G{N, 1, Dx};
  DiffusionOperator D(G, Sigma, M);
  std::vector<double> Vm(size_t(N), 0.0);
  const double X0 = (N / 2) * Dx;
  for (int64_t J = 0; J < N; ++J) {
    double X = J * Dx - X0;
    Vm[size_t(J)] = std::exp(-X * X / (2 * S0 * S0));
  }
  for (int64_t S = 0; S < Steps; ++S)
    D.step(Vm.data(), Dt);
  const double T = double(Steps) * Dt;
  const double St = std::sqrt(S0 * S0 + 2 * Sigma * T);
  double MaxErr = 0;
  for (int64_t J = 0; J < N; ++J) {
    double X = J * Dx - X0;
    double Ref = (S0 / St) * std::exp(-X * X / (2 * St * St));
    MaxErr = std::max(MaxErr, std::abs(Vm[size_t(J)] - Ref));
  }
  // Errors are relative to the analytic peak S0/St.
  EXPECT_LT(MaxErr / (S0 / St), Tol)
      << diffusionMethodName(M) << " dt=" << Dt;
}

TEST(Diffusion, Ftcs1DMatchesAnalyticHeatKernel) {
  checkHeatKernel(DiffusionMethod::FTCS, 0.05, 200, 0.01);
}

TEST(Diffusion, CrankNicolson1DMatchesAnalyticHeatKernel) {
  // CN is unconditionally stable: dt here is 4x the FTCS step (and ~2/3
  // of the FTCS CFL limit would even be unstable for the explicit path
  // at dt=0.2... the point is the implicit solve keeps 2nd-order
  // accuracy at a step FTCS could not take efficiently).
  checkHeatKernel(DiffusionMethod::CrankNicolson, 0.2, 50, 0.01);
}

TEST(Diffusion, FtcsSecondMomentGrowsExactly2KPerStep) {
  // For the 3-point stencil the discrete second moment telescopes
  // exactly: M2' = M2 + K * sum_j u_j ((j-1)^2 + (j+1)^2 - 2 j^2)
  //             = M2 + 2*K*M0 while the support stays interior. This is
  // an exact property of the scheme, not an approximation, so the
  // tolerance is rounding-level.
  const int64_t N = 101, Steps = 30, C = N / 2;
  const double Dx = 0.02, Sigma = 0.001, Dt = 0.1;
  const double K = Sigma * Dt / (Dx * Dx);
  DiffusionOperator D({N, 1, Dx}, Sigma, DiffusionMethod::FTCS);
  std::vector<double> Vm(size_t(N), 0.0);
  Vm[size_t(C)] = 1.0; // unit mass delta at the center
  auto Moment2 = [&] {
    double M2 = 0;
    for (int64_t J = 0; J < N; ++J)
      M2 += double((J - C) * (J - C)) * Vm[size_t(J)];
    return M2;
  };
  ASSERT_EQ(Moment2(), 0.0);
  for (int64_t S = 0; S < Steps; ++S)
    D.step(Vm.data(), Dt);
  // Support reach after 30 steps is 30 nodes < C = 50: still interior.
  double Expect = 2.0 * K * double(Steps);
  EXPECT_NEAR(Moment2(), Expect, 1e-9 * Expect);
}

static double sumOf(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

TEST(Diffusion, NoFluxBoundariesConserveTotalVm) {
  struct Case {
    TissueGrid G;
    DiffusionMethod M;
    double Dt;
  } Cases[] = {
      {{64, 1, 0.025}, DiffusionMethod::FTCS, 0.25},
      {{16, 12, 0.025}, DiffusionMethod::FTCS, 0.1},
      {{64, 1, 0.025}, DiffusionMethod::CrankNicolson, 0.5},
  };
  for (const Case &C : Cases) {
    DiffusionOperator D(C.G, 0.001, C.M);
    ASSERT_LE(C.M == DiffusionMethod::FTCS ? C.Dt : 0.0, D.maxStableDt());
    int64_t N = C.G.numNodes();
    std::vector<double> Vm(size_t(N), 0.0);
    for (int64_t J = 0; J < N; ++J) // deterministic rough field
      Vm[size_t(J)] = -80.0 + 120.0 * ((J * 2654435761u % 97) / 96.0);
    double Before = sumOf(Vm);
    for (int S = 0; S < 100; ++S)
      D.step(Vm.data(), C.Dt);
    double After = sumOf(Vm);
    EXPECT_NEAR(After, Before, 1e-12 * std::abs(Before))
        << diffusionMethodName(C.M) << " " << C.G.NX << "x" << C.G.NY;
  }
}

TEST(Diffusion, PublishApplyIsBitIdenticalForAnyShardPartition) {
  // The serial step() and any publish/apply sharding must agree exactly:
  // the apply stage reads only the barrier-published snapshot.
  for (const TissueGrid &G :
       {TissueGrid{131, 1, 0.025}, TissueGrid{17, 9, 0.025}}) {
    int64_t N = G.numNodes();
    std::vector<double> Init(size_t(N), 0.0);
    for (int64_t J = 0; J < N; ++J)
      Init[size_t(J)] = std::sin(0.37 * double(J)) * 40.0 - 50.0;

    DiffusionOperator Serial(G, 0.001, DiffusionMethod::FTCS);
    std::vector<double> Ref = Init;
    for (int S = 0; S < 25; ++S)
      Serial.step(Ref.data(), 0.1);

    for (int64_t Chunk : {int64_t(1), int64_t(7), int64_t(33), N}) {
      DiffusionOperator D(G, 0.001, DiffusionMethod::FTCS);
      std::vector<double> Vm = Init;
      for (int S = 0; S < 25; ++S) {
        for (int64_t B = 0; B < N; B += Chunk)
          D.publish(Vm.data(), B, std::min(B + Chunk, N));
        for (int64_t B = 0; B < N; B += Chunk)
          D.applyFromSnapshot(Vm.data(), 0.1, B, std::min(B + Chunk, N));
      }
      for (int64_t J = 0; J < N; ++J)
        ASSERT_EQ(Vm[size_t(J)], Ref[size_t(J)])
            << "chunk " << Chunk << " node " << J;
    }
  }
}

//===----------------------------------------------------------------------===//
// Stimulus protocols
//===----------------------------------------------------------------------===//

TEST(Stimulus, PulseTrainActivityIsAPureFunctionOfTime) {
  StimEvent E;
  E.Start = 1.0;
  E.Duration = 2.0;
  E.Period = 10.0;
  E.Count = 3;
  EXPECT_FALSE(StimulusProtocol::activeAt(E, 0.5));
  EXPECT_TRUE(StimulusProtocol::activeAt(E, 1.0));
  EXPECT_TRUE(StimulusProtocol::activeAt(E, 2.9));
  EXPECT_FALSE(StimulusProtocol::activeAt(E, 3.5));
  EXPECT_TRUE(StimulusProtocol::activeAt(E, 11.5));  // pulse 1
  EXPECT_TRUE(StimulusProtocol::activeAt(E, 21.5));  // pulse 2
  EXPECT_FALSE(StimulusProtocol::activeAt(E, 31.5)); // train exhausted
  E.Count = 0;                                       // unlimited
  EXPECT_TRUE(StimulusProtocol::activeAt(E, 101.5));
  E.Period = 0; // single pulse regardless of count
  EXPECT_FALSE(StimulusProtocol::activeAt(E, 11.5));
}

TEST(Stimulus, CollectActiveResolvesEdgeRegionsAgainstGrid) {
  TissueGrid G{20, 10, 0.025};
  StimulusProtocol P;
  StimEvent E;
  E.Region = {0, 3, 0, -1}; // full height strip at the left edge
  E.Start = 0.0;
  E.Duration = 1.0;
  E.Strength = 25.0;
  P.Events.push_back(E);
  std::vector<StimulusProtocol::ActiveStim> Out;
  P.collectActive(0.5, G, Out);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].X0, 0);
  EXPECT_EQ(Out[0].X1, 3);
  EXPECT_EQ(Out[0].Y0, 0);
  EXPECT_EQ(Out[0].Y1, 9); // -1 expanded to NY-1
  EXPECT_EQ(Out[0].Strength, 25.0);
  P.collectActive(5.0, G, Out);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(P.currentAt(0.5, 2, 7, G), 25.0);
  EXPECT_EQ(P.currentAt(0.5, 4, 7, G), 0.0);
}

TEST(Stimulus, S1S2FactoryBuildsTrainPlusPrematureBeat) {
  StimulusProtocol P = StimulusProtocol::s1s2(300, 4, 250, 40, 2, 5);
  ASSERT_EQ(P.Events.size(), 2u);
  const StimEvent &S1 = P.Events[0], &S2 = P.Events[1];
  EXPECT_EQ(S1.Count, 4);
  EXPECT_EQ(S1.Period, 300.0);
  EXPECT_EQ(S1.Region.X1, 4); // EdgeWidth columns
  // S2 fires once, the coupling interval after the last S1 onset.
  EXPECT_EQ(S2.Count, 1);
  EXPECT_EQ(S2.Start, S1.Start + 3 * 300.0 + 250.0);
}

TEST(Stimulus, ParseGrammarAndCanonicalStringRoundTrip) {
  TissueGrid G{64, 32, 0.025};
  for (const char *Spec :
       {"s1s2:period=300,count=8,s2=260,amp=40,dur=2,width=5",
        "cross:s1amp=40,s1dur=2,s2start=165,s2amp=40,s2dur=3",
        "region:x0=0,x1=4,y0=0,y1=-1,start=1,dur=2,amp=30,period=100,"
        "count=0",
        "s1s2", "cross", "none",
        "region:x0=0,x1=2;region:x0=60,x1=63,start=50"}) {
    auto P = StimulusProtocol::parse(Spec, G);
    ASSERT_TRUE(P.hasValue()) << Spec;
    auto Q = StimulusProtocol::parse(P->str(), G);
    ASSERT_TRUE(Q.hasValue()) << P->str();
    EXPECT_EQ(P->str(), Q->str()) << Spec;
  }
  auto None = StimulusProtocol::parse("none", G);
  ASSERT_TRUE(None.hasValue());
  EXPECT_TRUE(None->empty());
  EXPECT_EQ(None->str(), "none");
}

TEST(Stimulus, ParseRejectsUnknownProtocolsAndMalformedLists) {
  TissueGrid G{64, 1, 0.025};
  EXPECT_FALSE(StimulusProtocol::parse("spiral", G).hasValue());
  EXPECT_FALSE(StimulusProtocol::parse("s1s2:period", G).hasValue());
  EXPECT_FALSE(StimulusProtocol::parse("s1s2:bogus=1", G).hasValue());
  EXPECT_FALSE(StimulusProtocol::parse("region:x0=abc", G).hasValue());
}

//===----------------------------------------------------------------------===//
// StateBuffer tissue geometry
//===----------------------------------------------------------------------===//

TEST(StateBufferTissue, AttachGridRequiresMatchingNodeCount) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  ASSERT_TRUE(M.has_value());
  StateBuffer Buf(*M, 32);
  EXPECT_FALSE(Buf.hasGrid());
  Status Bad = Buf.attachGrid({5, 5, 0.025}); // 25 != 32 cells
  EXPECT_FALSE(Bad.isOk());
  EXPECT_FALSE(Buf.hasGrid());
  Status Ok = Buf.attachGrid({8, 4, 0.025});
  ASSERT_TRUE(Ok.isOk()) << Ok.message();
  ASSERT_TRUE(Buf.hasGrid());
  EXPECT_EQ(Buf.grid().NX, 8);
  EXPECT_EQ(Buf.grid().NY, 4);
  HaloRegion H = Buf.haloFor(8, 16);
  EXPECT_EQ(H.LoBegin, 0); // one NX-row below
  EXPECT_EQ(H.HiEnd, 24);  // one NX-row above
}

TEST(StateBufferTissue, ColumnViewReadsMatchStateAccessorsPerLayout) {
  for (EngineConfig Cfg :
       {EngineConfig::baseline(), EngineConfig::limpetMLIR(4),
        EngineConfig::limpetMLIR(8)}) {
    auto M = compileByName("HodgkinHuxley", Cfg);
    ASSERT_TRUE(M.has_value());
    StateBuffer Buf(*M, 37); // ragged vs. any block width
    for (int64_t C = 0; C < 37; ++C)
      for (unsigned Sv = 0; Sv < Buf.numSv(); ++Sv)
        Buf.writeState(C, Sv, double(C) + 0.01 * double(Sv));
    std::vector<double> Dense(37);
    for (unsigned Sv = 0; Sv < Buf.numSv(); ++Sv) {
      Buf.column(Sv).copyOut(Dense.data(), 0, 37);
      for (int64_t C = 0; C < 37; ++C)
        ASSERT_EQ(Dense[size_t(C)], Buf.readState(C, Sv))
            << "layout " << int(Cfg.Layout) << " sv " << Sv;
    }
  }
}

//===----------------------------------------------------------------------===//
// TissueSimulator
//===----------------------------------------------------------------------===//

static TissueOptions cableOpts(int64_t NX, int64_t NY, int64_t Steps,
                               double Dt = 0.01) {
  TissueOptions T;
  T.Grid = {NX, NY, 0.025};
  T.Sigma = 0.001;
  T.Sim.NumSteps = Steps;
  T.Sim.Dt = Dt;
  return T;
}

TEST(TissueSim, GridNodeCountOverridesRequestedCells) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(M.has_value());
  TissueOptions T = cableOpts(12, 5, 10);
  T.Sim.NumCells = 9999; // ignored: the grid defines the population
  TissueSimulator S(*M, T);
  EXPECT_EQ(S.options().NumCells, 60);
  EXPECT_EQ(S.stateBuffer().numCells(), 60);
  ASSERT_TRUE(S.stateBuffer().hasGrid());
  EXPECT_EQ(S.stateBuffer().grid().NX, 12);
}

TEST(TissueSim, EmptyProtocolSeedsDefaultEdgePulse) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  ASSERT_TRUE(M.has_value());
  TissueOptions T = cableOpts(64, 1, 10);
  T.Sim.StimPeriod = 50.0;
  TissueSimulator S(*M, T);
  ASSERT_FALSE(S.stimulus().empty());
  const StimEvent &E = S.stimulus().Events[0];
  EXPECT_EQ(E.Region.X0, 0);
  EXPECT_EQ(E.Region.X1, 3); // NX/16 columns
  EXPECT_EQ(E.Period, 50.0);
  EXPECT_EQ(E.Count, 0); // periodic knob => unlimited train
}

TEST(TissueSim, CrankNicolsonOn2DDowngradesToFtcs) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  ASSERT_TRUE(M.has_value());
  TissueOptions T = cableOpts(8, 8, 10);
  T.Method = DiffusionMethod::CrankNicolson;
  TissueSimulator S(*M, T);
  EXPECT_EQ(S.tissueOptions().Method, DiffusionMethod::FTCS);
  EXPECT_EQ(S.diffusion().method(), DiffusionMethod::FTCS);

  TissueOptions Cable = cableOpts(64, 1, 10);
  Cable.Method = DiffusionMethod::CrankNicolson;
  TissueSimulator S1(*M, Cable);
  EXPECT_EQ(S1.diffusion().method(), DiffusionMethod::CrankNicolson);
}

TEST(TissueSim, PreflightEnforcesTheFtcsCflLimit) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  ASSERT_TRUE(M.has_value());
  TissueOptions T = cableOpts(64, 1, 10);
  {
    TissueSimulator S(*M, T);
    Status Ok = S.preflight();
    EXPECT_TRUE(Ok.isOk()) << Ok.message();
  }
  T.Sim.Dt = 1.0; // half-step 0.5 ms > dx^2/(2 sigma) = 0.3125 ms
  {
    TissueSimulator S(*M, T);
    Status Bad = S.preflight();
    ASSERT_FALSE(Bad.isOk());
    EXPECT_NE(Bad.message().find("CFL"), std::string::npos);
    EXPECT_NE(Bad.message().find("cn"), std::string::npos);
  }
  // Crank-Nicolson lifts the limit entirely.
  T.Method = DiffusionMethod::CrankNicolson;
  {
    TissueSimulator S(*M, T);
    Status Ok = S.preflight();
    EXPECT_TRUE(Ok.isOk()) << Ok.message();
  }
}

TEST(TissueSim, RunsAreBitIdenticalAcrossShardCounts) {
  // The halo-exchange barrier must make tissue runs independent of the
  // shard partition: 1, 2 and 8 threads on ragged 1D and 2D grids.
  for (const TissueGrid &G :
       {TissueGrid{131, 1, 0.025}, TissueGrid{17, 9, 0.025}}) {
    std::string Ref;
    for (unsigned Threads : {1u, 2u, 8u}) {
      auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
      ASSERT_TRUE(M.has_value());
      TissueOptions T = cableOpts(G.NX, G.NY, 60, 0.005);
      T.Sim.NumThreads = Threads;
      TissueSimulator S(*M, T);
      ASSERT_TRUE(S.preflight().isOk());
      S.run();
      EXPECT_EQ(S.stepsDone(), 60);
      std::string Bytes =
          serializeCheckpoint(normalizedCkpt(S.captureCheckpoint()));
      if (Threads == 1)
        Ref = Bytes;
      else
        EXPECT_EQ(Bytes, Ref)
            << G.NX << "x" << G.NY << " threads=" << Threads;
    }
  }
}

TEST(TissueSim, CheckpointSerializationRoundTripsTissueSection) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(M.has_value());
  TissueOptions T = cableOpts(16, 4, 20, 0.005);
  T.Method = DiffusionMethod::FTCS;
  TissueSimulator S(*M, T);
  S.run();
  CheckpointData C = S.captureCheckpoint();
  EXPECT_EQ(C.TissueNX, 16);
  EXPECT_EQ(C.TissueNY, 4);
  EXPECT_EQ(C.TissueDx, 0.025);
  EXPECT_EQ(C.TissueSigma, 0.001);
  EXPECT_EQ(C.TissueMethod, uint8_t(DiffusionMethod::FTCS));
  EXPECT_FALSE(C.TissueStim.empty());
  auto Back = deserializeCheckpoint(serializeCheckpoint(C));
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(serializeCheckpoint(*Back), serializeCheckpoint(C));
  EXPECT_EQ(Back->TissueStim, C.TissueStim);
}

TEST(TissueSim, ResumeIsBitIdenticalPerLayoutAndWidth) {
  // Interrupt at step 60 of 120 and resume in a fresh simulator; the
  // final state must match the uninterrupted run bit-for-bit at every
  // layout x width point.
  EngineConfig SoA = EngineConfig::baseline();
  SoA.Layout = codegen::StateLayout::SoA;
  for (EngineConfig Cfg : {EngineConfig::baseline(),
                           EngineConfig::limpetMLIR(4),
                           EngineConfig::limpetMLIR(8), SoA}) {
    auto M = compileByName("HodgkinHuxley", Cfg);
    ASSERT_TRUE(M.has_value());

    TissueOptions Full = cableOpts(48, 1, 120, 0.005);
    TissueSimulator A(*M, Full);
    A.run();
    std::string Want =
        serializeCheckpoint(normalizedCkpt(A.captureCheckpoint()));

    TissueOptions Half = Full;
    Half.Sim.NumSteps = 60;
    TissueSimulator B(*M, Half);
    B.run();
    CheckpointData Mid = B.captureCheckpoint();
    EXPECT_EQ(Mid.StepCount, 60);

    TissueSimulator C(*M, Full);
    Status R = C.resumeFrom(Mid);
    ASSERT_TRUE(R.isOk()) << R.message();
    C.run(); // NumSteps is the total target: 60 more steps
    EXPECT_EQ(C.stepsDone(), 120);
    EXPECT_EQ(serializeCheckpoint(normalizedCkpt(C.captureCheckpoint())),
              Want)
        << "layout " << int(Cfg.Layout) << " width " << Cfg.Width;
  }
}

TEST(TissueSim, ResumeCrossChecksGeometryDiffusionAndStimulus) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(M.has_value());
  TissueOptions T = cableOpts(32, 2, 30, 0.005);
  TissueSimulator S(*M, T);
  S.run();
  CheckpointData C = S.captureCheckpoint();

  {
    // A plain population simulator must refuse the diffusion-coupled
    // checkpoint outright.
    SimOptions P;
    P.NumCells = 64;
    P.NumSteps = 30;
    P.Dt = 0.005;
    Simulator Plain(*M, P);
    Status R = Plain.resumeFrom(C);
    ASSERT_FALSE(R.isOk());
    EXPECT_NE(R.message().find("tissue"), std::string::npos);
  }
  {
    TissueOptions Wrong = T;
    Wrong.Grid = {64, 1, 0.025}; // same node count, different geometry
    TissueSimulator W(*M, Wrong);
    EXPECT_FALSE(W.resumeFrom(C).isOk());
  }
  {
    TissueOptions Wrong = T;
    Wrong.Sigma = 0.002;
    TissueSimulator W(*M, Wrong);
    Status R = W.resumeFrom(C);
    ASSERT_FALSE(R.isOk());
    EXPECT_NE(R.message().find("diffusion"), std::string::npos);
  }
  {
    TissueOptions Wrong = T;
    Wrong.Stim.Events.push_back(StimEvent{});
    TissueSimulator W(*M, Wrong);
    EXPECT_FALSE(W.resumeFrom(C).isOk());
  }
  {
    TissueOptions Same = T;
    TissueSimulator Ok(*M, Same);
    Status R = Ok.resumeFrom(C);
    EXPECT_TRUE(R.isOk()) << R.message();
  }
}

TEST(TissueSim, S1S2PacingIsDeterministicAcrossResume) {
  // An S1-S2 protocol is a pure function of simulation time, so a run
  // interrupted between S1 and S2 and resumed must land exactly on the
  // uninterrupted trajectory.
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(M.has_value());
  TissueGrid G{64, 1, 0.025};
  auto Proto =
      StimulusProtocol::parse("s1s2:period=4,count=2,s2=3,amp=40,dur=1,"
                              "width=4",
                              G);
  ASSERT_TRUE(Proto.hasValue());

  TissueOptions Full = cableOpts(64, 1, 500, 0.02); // 10 ms: S1,S1,S2
  Full.Stim = *Proto;
  auto runTo = [&](int64_t Steps, const CheckpointData *From) {
    TissueOptions T = Full;
    T.Sim.NumSteps = Steps;
    auto S = std::make_unique<TissueSimulator>(*M, T);
    if (From) {
      Status R = S->resumeFrom(*From);
      EXPECT_TRUE(R.isOk()) << R.message();
    }
    S->run();
    return S;
  };

  auto A = runTo(500, nullptr);
  auto B = runTo(250, nullptr); // mid-train interrupt point
  CheckpointData Mid = B->captureCheckpoint();
  auto C = runTo(500, &Mid);
  EXPECT_EQ(serializeCheckpoint(normalizedCkpt(A->captureCheckpoint())),
            serializeCheckpoint(normalizedCkpt(C->captureCheckpoint())));
}

TEST(TissueSim, ActivationMapTracksAPropagatingWavefront) {
  // Default edge stimulus on an HH cable: the wavefront must activate
  // nodes in x order and yield a finite, positive conduction velocity.
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(M.has_value());
  TissueOptions T = cableOpts(64, 1, 4000, 0.01); // 40 ms
  T.Sim.NumThreads = 2;
  TissueSimulator S(*M, T);
  ASSERT_TRUE(S.preflight().isOk());
  S.enableActivationMap(-20.0);
  S.run();
  double TA = S.activationTime(8), TB = S.activationTime(24);
  ASSERT_TRUE(std::isfinite(TA)) << "node 8 never activated";
  ASSERT_TRUE(std::isfinite(TB)) << "node 24 never activated";
  EXPECT_GT(TB, TA); // the wave travels away from the x=0 edge
  double CV = S.conductionVelocity(8, 24);
  ASSERT_TRUE(std::isfinite(CV));
  EXPECT_GT(CV, 0.0);
  EXPECT_LT(CV, 1.0); // cm/ms; physiological CVs are well below this
  EXPECT_TRUE(std::isnan(S.activationTime(9999)));
  EXPECT_TRUE(std::isnan(S.conductionVelocity(8, 9999)));
}

} // namespace
