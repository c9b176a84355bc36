//===- LutBuilderTests.cpp - table fill, sharing and partial rebuilds ----===//
//
// The row-blocked LutBuilder must fill tables bit-identical to the
// tree-walking easyml::evalExpr oracle on every suite model; simulators
// share the model's default tables; parameter changes refill exactly the
// tables that read the changed parameter.
//
//===----------------------------------------------------------------------===//

#include "codegen/MLIRCodeGen.h"
#include "easyml/ConstEval.h"
#include "easyml/Sema.h"
#include "exec/CompiledModel.h"
#include "models/Registry.h"
#include "sim/Simulator.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::models;

namespace {

easyml::ModelInfo infoOf(const ModelEntry &M) {
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(M.Name, M.Source, Diags);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  return *Info;
}

/// Two tables with disjoint parameter dependencies: k feeds the Vm
/// table, kc the Cai table, and g no table at all.
const char *kTwoTables =
    "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
    "Cai; .lookup(0, 10, 0.01);\n"
    "group{ k = 20.0; kc = 2.0; g = 0.5; }.param();\n"
    "r = exp(Vm/k);\ns = exp(-Cai/kc);\n"
    "diff_w = r*(1.0-w) - 0.4*w;\ndiff_Cai = 0.01*(s - Cai);\n"
    "w_init = 0.5;\nCai_init = 1.0;\nIion = g*w*s;";

/// A suite model by name, or "TwoTables" for the model above.
CompiledModel compiled(std::string_view Name) {
  ModelEntry Two;
  const ModelEntry *E = &Two;
  if (Name == "TwoTables") {
    Two.Name = "TwoTables";
    Two.Source = kTwoTables;
  } else {
    E = findModel(Name);
    EXPECT_NE(E, nullptr) << Name;
  }
  auto M = CompiledModel::compile(infoOf(*E), EngineConfig::baseline());
  EXPECT_TRUE(M.has_value());
  return std::move(*M);
}

/// The reference fill: evalExpr per row x column through a name-keyed
/// environment.
runtime::LutTableSet oracleLuts(const CompiledModel &M, const double *Params) {
  const easyml::ModelInfo &Info = M.info();
  runtime::LutTableSet Set;
  for (const codegen::LutTablePlan &Plan : M.kernel().Program.Luts.Tables) {
    runtime::LutTable Table(Plan.Spec.Lo, Plan.Spec.Hi, Plan.Spec.Step,
                            int(Plan.Columns.size()));
    for (int Row = 0; Row != Table.rows(); ++Row) {
      double X = Table.rowX(Row);
      easyml::EvalEnv Env =
          [&](std::string_view Name) -> std::optional<double> {
        if (Name == Plan.Spec.VarName)
          return X;
        int Idx = Info.paramIndex(Name);
        if (Idx >= 0)
          return Params[Idx];
        return std::nullopt;
      };
      for (size_t Col = 0; Col != Plan.Columns.size(); ++Col) {
        std::optional<double> V = easyml::evalExpr(*Plan.Columns[Col], Env);
        EXPECT_TRUE(V.has_value());
        Table.at(Row, int(Col)) = V.value_or(0.0);
      }
    }
    Set.Tables.push_back(std::move(Table));
  }
  return Set;
}

bool bitEqual(const runtime::LutTable &A, const runtime::LutTable &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     size_t(A.rows()) * size_t(A.cols()) * sizeof(double)) ==
             0;
}

bool bitEqual(const runtime::LutTableSet &A, const runtime::LutTableSet &B) {
  if (A.Tables.size() != B.Tables.size())
    return false;
  for (size_t I = 0; I != A.Tables.size(); ++I)
    if (!bitEqual(A.Tables[I], B.Tables[I]))
      return false;
  return true;
}

bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Tables of \p M whose columns reference parameter \p Param, read off
/// the LUT plan (independently of the builder's dependency sets).
size_t tablesReading(const CompiledModel &M, int Param) {
  const std::string &Name = M.info().Params[size_t(Param)].Name;
  size_t N = 0;
  for (const codegen::LutTablePlan &Plan : M.kernel().Program.Luts.Tables) {
    bool Reads = false;
    for (const easyml::ExprPtr &Col : Plan.Columns)
      Reads |= Name != Plan.Spec.VarName && easyml::exprReferences(*Col, Name);
    N += Reads;
  }
  return N;
}

/// First parameter read by (\p Read) or absent from (!\p Read) every LUT
/// table of \p M; -1 when there is none.
int findParam(const CompiledModel &M, bool Read) {
  for (size_t P = 0; P != M.info().Params.size(); ++P)
    if ((tablesReading(M, int(P)) > 0) == Read)
      return int(P);
  return -1;
}

double perturbed(double V) { return V != 0.0 ? V * 1.05 : 0.25; }

uint64_t counterValue(const char *Path) {
  return telemetry::Registry::instance().value(Path);
}

/// Expects \p Fn to fill exactly \p Want tables (checked only where
/// telemetry is compiled in).
template <typename F> void expectTablesFilled(size_t Want, F &&Fn) {
  uint64_t Before = counterValue("compile.lut.build.tables");
  Fn();
  if (telemetry::kEnabled) {
    EXPECT_EQ(counterValue("compile.lut.build.tables") - Before, Want);
  }
}

//===----------------------------------------------------------------------===//
// Builder vs the evalExpr oracle
//===----------------------------------------------------------------------===//

class LutBuilderOracle : public ::testing::TestWithParam<int> {};

TEST_P(LutBuilderOracle, BitIdenticalAtDefaultAndPerturbedParams) {
  const ModelEntry &E = modelRegistry()[size_t(GetParam())];
  auto M = CompiledModel::compile(infoOf(E), EngineConfig::baseline());
  ASSERT_TRUE(M.has_value());

  std::vector<double> Params = M->defaultParams();
  runtime::LutTableSet Oracle = oracleLuts(*M, Params.data());
  EXPECT_TRUE(bitEqual(M->luts(), Oracle)) << E.Name << " (model tables)";
  EXPECT_TRUE(bitEqual(M->buildLuts(Params.data()), Oracle)) << E.Name;

  for (double &P : Params)
    P = perturbed(P);
  EXPECT_TRUE(bitEqual(M->buildLuts(Params.data()),
                       oracleLuts(*M, Params.data())))
      << E.Name << " (perturbed params)";
}

INSTANTIATE_TEST_SUITE_P(All43, LutBuilderOracle, ::testing::Range(0, 43),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return modelRegistry()[size_t(I.param)].Name;
                         });

TEST(LutBuilder, RecordsParamsEachTableReads) {
  CompiledModel M = compiled("LuoRudy91");
  const LutBuilder &B = M.lutBuilder();
  ASSERT_EQ(B.numTables(), M.kernel().Program.Luts.Tables.size());
  for (size_t P = 0; P != M.info().Params.size(); ++P) {
    size_t N = 0;
    for (size_t T = 0; T != B.numTables(); ++T) {
      const std::vector<int> &Read = B.paramsRead(T);
      EXPECT_TRUE(std::is_sorted(Read.begin(), Read.end()));
      N += std::count(Read.begin(), Read.end(), int(P));
    }
    EXPECT_EQ(N, tablesReading(M, int(P))) << M.info().Params[P].Name;
  }
}

TEST(LutBuilder, RejectsColumnReadingAnUnknownName) {
  const ModelEntry *E = findModel("BeelerReuter");
  ASSERT_NE(E, nullptr);
  easyml::ModelInfo Info = infoOf(*E);
  auto Good = CompiledModel::compile(Info, EngineConfig::baseline());
  ASSERT_TRUE(Good.has_value());

  // A hand-built plan whose column reads a name that is neither the
  // lookup variable nor a parameter.
  codegen::ModelProgram P = codegen::buildModelProgram(Info, true);
  ASSERT_FALSE(P.Luts.Tables.empty());
  P.Luts.Tables[0].Columns[0] = easyml::Expr::makeBinary(
      easyml::BinaryOp::Add, P.Luts.Tables[0].Columns[0],
      easyml::Expr::makeVarRef("not_a_param"));

  Expected<LutBuilder> B = LutBuilder::lower(P.Luts, Info);
  ASSERT_FALSE(bool(B));
  EXPECT_NE(B.status().message().find("not_a_param"), std::string::npos)
      << B.status().message();

  // fromParts rejects it too, with or without pre-built tables.
  for (bool WithTables : {false, true}) {
    codegen::GeneratedKernel K;
    K.Program = P;
    std::optional<runtime::LutTableSet> Tables;
    if (WithTables)
      Tables = Good->luts();
    std::string Err;
    auto M = CompiledModel::fromParts(std::move(K), Good->program(), Tables,
                                      EngineConfig::baseline(), &Err);
    EXPECT_FALSE(M.has_value());
    EXPECT_NE(Err.find("not_a_param"), std::string::npos) << Err;
  }
}

TEST(LutBuilder, FromPartsRejectsTablesOfTheWrongShape) {
  CompiledModel Good = compiled("BeelerReuter");
  codegen::GeneratedKernel K;
  K.Program = codegen::buildModelProgram(Good.info(), true);
  runtime::LutTableSet Tables = Good.luts();
  ASSERT_FALSE(Tables.empty());
  const runtime::LutTable &T0 = Tables.Tables[0];
  Tables.Tables[0] =
      runtime::LutTable(T0.lo(), T0.hi(), T0.step(), T0.cols() + 1);
  std::string Err;
  EXPECT_FALSE(CompiledModel::fromParts(std::move(K), Good.program(), Tables,
                                        EngineConfig::baseline(), &Err));
  EXPECT_NE(Err.find("column count"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Sharing and dependency-tracked rebuilds
//===----------------------------------------------------------------------===//

sim::SimOptions smallRun() {
  sim::SimOptions O;
  O.NumCells = 16;
  O.NumSteps = 50;
  return O;
}

TEST(LutSharing, SimulatorsShareTheModelTables) {
  CompiledModel M = compiled("LuoRudy91");
  sim::Simulator Ref(M, smallRun());
  Ref.run();

  sim::Simulator A(M, smallRun()), B(M, smallRun());
  EXPECT_EQ(&A.luts(), &M.luts());
  EXPECT_EQ(&B.luts(), &M.luts());

  // Poisoning A detaches it: B and the model keep the clean tables.
  runtime::LutTableSet &Poison = A.mutableLuts();
  EXPECT_NE(&A.luts(), &M.luts());
  for (runtime::LutTable &T : Poison.Tables)
    for (int R = 0; R != T.rows(); ++R)
      T.at(R, 0) = std::numeric_limits<double>::quiet_NaN();
  A.run();
  B.run();
  EXPECT_TRUE(M.luts().allFinite());
  EXPECT_FALSE(A.luts().allFinite());
  EXPECT_EQ(&B.luts(), &M.luts());
  EXPECT_TRUE(bitEqual(B.stateChecksum(), Ref.stateChecksum()));
}

TEST(LutRebuild, ParamNoColumnReadsRebuildsNothing) {
  // HodgkinHuxley's gNa scales a state-dependent current: no table reads
  // it, so an ensemble_bench-style gNa change keeps the shared set.
  CompiledModel M = compiled("HodgkinHuxley");
  int P = M.info().paramIndex("gNa");
  ASSERT_GE(P, 0);
  ASSERT_EQ(tablesReading(M, P), 0u);
  sim::Simulator S(M, smallRun());
  expectTablesFilled(0, [&] {
    ASSERT_TRUE(bool(S.setParam("gNa", perturbed(S.param("gNa")))));
  });
  EXPECT_EQ(&S.luts(), &M.luts());
}

class LutRebuild : public ::testing::TestWithParam<const char *> {};

TEST_P(LutRebuild, SetParamRefillsOnlyDependentTables) {
  CompiledModel M = compiled(GetParam());
  std::vector<double> Defaults = M.defaultParams();

  // A parameter no column reads: nothing is rebuilt, the set stays shared.
  int Unread = findParam(M, /*Read=*/false);
  ASSERT_GE(Unread, 0);
  std::vector<double> Same = Defaults;
  Same[size_t(Unread)] = perturbed(Same[size_t(Unread)]);
  expectTablesFilled(0, [&] {
    EXPECT_EQ(M.derivedLuts(M.sharedLuts(), Defaults.data(), Same.data()),
              M.sharedLuts());
  });

  // A parameter some column reads: exactly its tables are refilled and
  // the result equals a full build at the new parameters.
  int P = findParam(M, /*Read=*/true);
  ASSERT_GE(P, 0) << "no LUT parameter in " << GetParam();
  std::vector<double> New = Defaults;
  New[size_t(P)] = perturbed(New[size_t(P)]);
  std::shared_ptr<const runtime::LutTableSet> Derived;
  expectTablesFilled(tablesReading(M, P), [&] {
    Derived = M.derivedLuts(M.sharedLuts(), Defaults.data(), New.data());
  });
  runtime::LutTableSet Full = M.buildLuts(New.data());
  EXPECT_TRUE(bitEqual(*Derived, Full));

  sim::Simulator S(M, smallRun());
  expectTablesFilled(tablesReading(M, P), [&] {
    ASSERT_TRUE(
        bool(S.setParam(M.info().Params[size_t(P)].Name, New[size_t(P)])));
  });
  EXPECT_NE(&S.luts(), &M.luts());
  EXPECT_TRUE(bitEqual(S.luts(), Full));
  EXPECT_TRUE(M.luts().allFinite());

  // Setting it back restores the default tables bit for bit.
  ASSERT_TRUE(bool(
      S.setParam(M.info().Params[size_t(P)].Name, Defaults[size_t(P)])));
  EXPECT_TRUE(bitEqual(S.luts(), M.luts()));
}

TEST_P(LutRebuild, ResumeReproducesNonDefaultTables) {
  CompiledModel M = compiled(GetParam());
  int P = findParam(M, /*Read=*/true);
  ASSERT_GE(P, 0);
  const std::string &Name = M.info().Params[size_t(P)].Name;

  sim::Simulator A(M, smallRun());
  ASSERT_TRUE(bool(A.setParam(Name, perturbed(A.param(Name)))));
  A.run();
  sim::CheckpointData C = A.captureCheckpoint();

  sim::Simulator B(M, smallRun());
  ASSERT_TRUE(bool(B.resumeFrom(C)));
  EXPECT_TRUE(bitEqual(B.luts(), A.luts()));

  // Both continue bit-identically.
  for (int I = 0; I != 20; ++I) {
    A.step();
    B.step();
  }
  EXPECT_TRUE(bitEqual(A.stateChecksum(), B.stateChecksum()));

  // Resuming a default-parameter checkpoint keeps the shared set.
  sim::Simulator D(M, smallRun());
  D.run();
  sim::Simulator E(M, smallRun());
  ASSERT_TRUE(bool(E.resumeFrom(D.captureCheckpoint())));
  EXPECT_EQ(&E.luts(), &M.luts());
}

TEST_P(LutRebuild, SetParamAfterPoisoningStartsFromCleanTables) {
  CompiledModel M = compiled(GetParam());
  int P = findParam(M, /*Read=*/true);
  ASSERT_GE(P, 0);
  const std::string &Name = M.info().Params[size_t(P)].Name;
  sim::Simulator S(M, smallRun());
  for (runtime::LutTable &T : S.mutableLuts().Tables)
    T.at(0, 0) = std::numeric_limits<double>::infinity();
  double V = perturbed(S.param(Name));
  ASSERT_TRUE(bool(S.setParam(Name, V)));
  std::vector<double> New = M.defaultParams();
  New[size_t(P)] = V;
  EXPECT_TRUE(bitEqual(S.luts(), M.buildLuts(New.data())));
}

INSTANTIATE_TEST_SUITE_P(Models, LutRebuild,
                         ::testing::Values("LuoRudy91", "TwoTables"));

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TEST(LutTelemetry, SimulatorsCountAsSharing) {
  CompiledModel M = compiled("LuoRudy91");
  uint64_t Shared0 = counterValue("sim.lut.shared");
  expectTablesFilled(0, [&] { sim::Simulator S(M, smallRun()); });
  EXPECT_EQ(counterValue("sim.lut.shared"), Shared0 + 1);
}

} // namespace
