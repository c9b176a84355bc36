//===- Pass.cpp -----------------------------------------------------------===//

#include "transforms/Pass.h"

#include "ir/Verifier.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace limpet;
using namespace limpet::transforms;

uint64_t PassStatistics::totalNs() const {
  uint64_t Total = 0;
  for (const Entry &E : Entries)
    Total += E.WallNs;
  return Total;
}

std::string PassStatistics::str() const {
  std::vector<std::vector<std::string>> Rows;
  Rows.push_back({"pass", "changed", "time (us)", "ops before", "ops after",
                  "delta"});
  for (const Entry &E : Entries)
    Rows.push_back({E.PassName, E.Changed ? "yes" : "no",
                    formatFixed(double(E.WallNs) * 1e-3, 1),
                    std::to_string(E.OpsBefore), std::to_string(E.OpsAfter),
                    std::to_string(E.OpsAfter - E.OpsBefore)});
  Rows.push_back({"total", "", formatFixed(double(totalNs()) * 1e-3, 1), "",
                  "", ""});

  // Aligned rendering (first column left-, the rest right-justified).
  std::vector<size_t> Widths;
  for (const auto &Row : Rows) {
    if (Widths.size() < Row.size())
      Widths.resize(Row.size(), 0);
    for (size_t C = 0; C != Row.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());
  }
  std::string Out;
  for (size_t R = 0; R != Rows.size(); ++R) {
    for (size_t C = 0; C != Rows[R].size(); ++C) {
      Out += C == 0 ? padRight(Rows[R][C], Widths[C])
                    : padLeft(Rows[R][C], Widths[C]);
      if (C + 1 != Rows[R].size())
        Out += "  ";
    }
    Out += '\n';
  }
  return Out;
}

bool PassManager::run(ir::Operation *Func) {
  Stats.Entries.clear();
  ErrorMessage.clear();
  telemetry::TraceSpan Pipeline("pass-pipeline", "compile");
  int64_t OpsBefore = countOps(Func);
  for (auto &P : Passes) {
    std::string PassName(P->name());
    telemetry::TraceSpan Span("pass:" + PassName, "compile");
    auto T0 = telemetry::Clock::now();
    bool Changed = P->run(Func, Ctx);
    uint64_t Ns = telemetry::nanosecondsSince(T0);
    int64_t OpsAfter = countOps(Func);
    Stats.Entries.push_back({PassName, Changed, Ns, OpsBefore, OpsAfter});
    telemetry::counter("compile.pass." + PassName + ".ns").add(Ns);
    telemetry::counter("compile.pass." + PassName + ".runs").add(1);
    if (OpsAfter < OpsBefore)
      telemetry::counter("compile.pass." + PassName + ".ops_removed")
          .add(uint64_t(OpsBefore - OpsAfter));
    OpsBefore = OpsAfter;
    if (!VerifyEach)
      continue;
    if (ir::VerifyResult R = ir::verifyFunction(Func); !R) {
      ErrorMessage =
          "verification failed after pass '" + std::string(P->name()) +
          "': " + R.Message;
      return false;
    }
  }
  return true;
}

void PassManager::addDefaultPipeline(PassManager &PM) {
  // Kept in sync with defaultPassPipelineSpec() below.
  Status S = parsePassPipeline(defaultPassPipelineSpec(), PM);
  (void)S;
  assert(S && "default pipeline spec must parse");
}

namespace {

struct PassRegistryEntry {
  std::string_view Name;
  std::unique_ptr<Pass> (*Factory)();
};

/// Every pass reachable from a pipeline string. Order here is the order
/// registeredPassNames() reports.
constexpr std::array<PassRegistryEntry, 6> kPassRegistry = {{
    {"if-to-select", createIfToSelectPass},
    {"canonicalize", createCanonicalizePass},
    {"constant-fold", createConstantFoldPass},
    {"cse", createCSEPass},
    {"licm", createLICMPass},
    {"dce", createDCEPass},
}};

} // namespace

std::vector<std::string_view> transforms::registeredPassNames() {
  std::vector<std::string_view> Names;
  for (const PassRegistryEntry &E : kPassRegistry)
    Names.push_back(E.Name);
  return Names;
}

std::unique_ptr<Pass> transforms::createPassByName(std::string_view Name) {
  for (const PassRegistryEntry &E : kPassRegistry)
    if (E.Name == Name)
      return E.Factory();
  return nullptr;
}

std::string_view transforms::defaultPassPipelineSpec() {
  return "if-to-select,canonicalize,constant-fold,cse,licm,dce";
}

Status transforms::parsePassPipeline(std::string_view Spec, PassManager &PM) {
  for (const std::string &RawName : splitString(Spec, ',')) {
    std::string Name = trim(RawName);
    if (Name.empty())
      continue; // tolerate "a,,b" and trailing commas
    std::unique_ptr<Pass> P = createPassByName(Name);
    if (!P) {
      std::string Known;
      for (std::string_view N : registeredPassNames()) {
        if (!Known.empty())
          Known += ", ";
        Known += N;
      }
      return Status::error("unknown pass '" + Name +
                           "' in pipeline string (registered passes: " +
                           Known + ")");
    }
    PM.addPass(std::move(P));
  }
  return Status::success();
}

void transforms::countUses(
    ir::Operation *Root,
    std::function<void(ir::Value *, ir::Operation *)> Fn) {
  Root->walk([&](ir::Operation *Op) {
    for (unsigned I = 0, E = Op->numOperands(); I != E; ++I)
      Fn(Op->operand(I), Op);
  });
}

int64_t transforms::countOps(ir::Operation *Root) {
  int64_t N = 0;
  Root->walk([&](ir::Operation *) { ++N; });
  return N;
}
