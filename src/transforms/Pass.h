//===- Pass.h - Pass interface and PassManager ------------------*- C++-*-===//
//
// A pass transforms a single func.func operation in place (the analogue of
// an MLIR function pass). The PassManager runs a pipeline, optionally
// verifying the IR between passes, and records simple statistics.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_TRANSFORMS_PASS_H
#define LIMPET_TRANSFORMS_PASS_H

#include "ir/Context.h"
#include "ir/IR.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace limpet {
namespace transforms {

/// Base class of all function passes.
class Pass {
public:
  virtual ~Pass() = default;

  /// Human-readable pass name, e.g. "cse".
  virtual std::string_view name() const = 0;

  /// Transforms \p Func in place. Returns true if anything changed.
  virtual bool run(ir::Operation *Func, ir::Context &Ctx) = 0;
};

/// Statistics of one PassManager run: per-pass wall time and IR op counts
/// before/after each transform, in pipeline order (the MLIR
/// -mlir-timing/-mlir-pass-statistics analogue). Collected unconditionally
/// (compile-time only); mirrored into the telemetry registry when the
/// instrumentation layer is built in.
struct PassStatistics {
  struct Entry {
    std::string PassName;
    bool Changed = false;
    uint64_t WallNs = 0;    ///< wall time of this pass run
    int64_t OpsBefore = 0;  ///< IR operations in the function before
    int64_t OpsAfter = 0;   ///< ... and after the pass ran
  };
  std::vector<Entry> Entries;

  /// Total wall time across all entries.
  uint64_t totalNs() const;

  /// Aligned human-readable pass-timing table (the `limpetc --stats`
  /// rendering).
  std::string str() const;
};

/// Runs a sequence of passes over a function.
class PassManager {
public:
  explicit PassManager(ir::Context &Ctx, bool VerifyEach = true)
      : Ctx(Ctx), VerifyEach(VerifyEach) {}

  /// Appends a pass to the pipeline.
  void addPass(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  /// Runs the pipeline. Returns false (with \p ErrorMessage set) if
  /// inter-pass verification fails.
  bool run(ir::Operation *Func);

  const PassStatistics &statistics() const { return Stats; }
  const std::string &errorMessage() const { return ErrorMessage; }

  /// Builds the standard optimization pipeline used for generated kernels
  /// (the analogue of the paper's in-tree MLIR optimizations):
  /// if-to-select, canonicalize, constant-fold, cse, licm, dce.
  static void addDefaultPipeline(PassManager &PM);

private:
  ir::Context &Ctx;
  bool VerifyEach;
  std::vector<std::unique_ptr<Pass>> Passes;
  PassStatistics Stats;
  std::string ErrorMessage;
};

// Factory functions for the individual passes.
std::unique_ptr<Pass> createIfToSelectPass();
std::unique_ptr<Pass> createCanonicalizePass();
std::unique_ptr<Pass> createConstantFoldPass();
std::unique_ptr<Pass> createCSEPass();
std::unique_ptr<Pass> createLICMPass();
std::unique_ptr<Pass> createDCEPass();

//===----------------------------------------------------------------------===//
// Pipeline strings
//===----------------------------------------------------------------------===//

/// The registered pass names accepted in pipeline strings, in no
/// particular order ("cse", "licm", ...).
std::vector<std::string_view> registeredPassNames();

/// Instantiates the pass registered as \p Name, or null when no pass of
/// that name exists.
std::unique_ptr<Pass> createPassByName(std::string_view Name);

/// The default kernel pipeline rendered as a pipeline string:
/// "if-to-select,canonicalize,constant-fold,cse,licm,dce".
std::string_view defaultPassPipelineSpec();

/// Parses an mlir-opt-style comma-separated pipeline string
/// ("if-to-select,canonicalize,cse") and appends the named passes to
/// \p PM in order. Whitespace around names is ignored; an empty spec is a
/// valid empty pipeline. Returns a recoverable error naming the offending
/// entry (and the registered names) on an unknown pass.
Status parsePassPipeline(std::string_view Spec, PassManager &PM);

/// Counts uses of every value inside \p Root (including nested regions).
/// Shared by DCE / canonicalize.
void countUses(ir::Operation *Root,
               std::function<void(ir::Value *, ir::Operation *)> Fn);

/// Number of operations inside \p Root (itself included, nested regions
/// walked). Used by the per-pass statistics.
int64_t countOps(ir::Operation *Root);

} // namespace transforms
} // namespace limpet

#endif // LIMPET_TRANSFORMS_PASS_H
