//===- Multimodel.h - Parent/offspring model composition --------*- C++-*-===//
//
// The paper's multimodel support (Sec. 3.3.2): "Electrophysiology
// simulations also allow multiple models to interact, accessing the same
// data. This leads to a hierarchy of cells relying on a parent-offspring
// relation. Offspring cells are allowed to access and modify the content
// (or state) of their parent... If the parent information cannot be
// found, it falls through the common local variable storage."
//
// Composition model: a parent ionic model plus plugin (offspring) models
// over the same cell population. All models share the external arrays
// (Vm, Iion, ...), so a plugin written as `Iion = Iion + I_plugin;`
// accumulates onto the parent's current. A plugin external may further be
// *bound* to a parent state variable: before each plugin compute, the
// bound values are gathered out of the parent's (layout-transformed)
// state into the plugin's external array — and written back for bindings
// declared writable. Unbound plugin externals fall back to the plugin's
// local storage, reproducing the conditional-access semantics.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_MULTIMODEL_H
#define LIMPET_SIM_MULTIMODEL_H

#include "exec/CompiledModel.h"
#include "sim/Scheduler.h"
#include "sim/Simulator.h"
#include "sim/StateBuffer.h"

#include <memory>
#include <string>
#include <vector>

namespace limpet {
namespace sim {

/// Connects one plugin external to a parent state variable.
struct ParentBinding {
  std::string PluginExternal; ///< name of the external in the plugin model
  std::string ParentStateVar; ///< name of the state variable in the parent
  /// Writable bindings scatter the plugin's result back into the parent
  /// state ("offspring are allowed to modify the content of their
  /// parent").
  bool Writable = false;
};

/// Runs a parent model and any number of plugin models over one shared
/// cell population.
class MultimodelSimulator {
public:
  MultimodelSimulator(const exec::CompiledModel &Parent,
                      const SimOptions &Opts);

  /// Registers \p Plugin with the given parent-state bindings. Plugin
  /// externals with the same name as a parent external (e.g. Vm, Iion)
  /// share the parent's array automatically. Returns the plugin index.
  size_t addPlugin(const exec::CompiledModel &Plugin,
                   std::vector<ParentBinding> Bindings);

  /// Advances one step: parent compute, then every plugin compute (with
  /// bound parent state gathered in and scattered back), then the voltage
  /// update.
  void step();
  void run();

  double time() const { return T; }
  double vm(int64_t Cell) const;
  double parentState(int64_t Cell, int64_t Sv) const;
  double pluginState(size_t PluginIdx, int64_t Cell, int64_t Sv) const;

  /// The stepping loop this composition runs through (one shard plan for
  /// parent and plugins alike).
  const Scheduler &scheduler() const { return Sched; }

private:
  struct PluginInstance {
    const exec::CompiledModel *Model = nullptr;
    /// Plugin state + external storage in the plugin's compiled layout.
    /// Externals shared with the parent still get (unused) local arrays;
    /// the stage wiring points the kernel at the parent's array instead.
    std::unique_ptr<StateBuffer> Buf;
    /// Parent external backing each plugin external; -1 = local.
    std::vector<int> SharedIndex;
    /// Bound parent state (by plugin external index); -1 = unbound.
    std::vector<int> BoundParentSv;
    std::vector<bool> BoundWritable;
  };

  /// Rewires Stages (parent + one stage per plugin, with gather/scatter
  /// hooks for parent-state bindings). Called after every addPlugin, so
  /// pointers into PluginParams are always current. Every model steps
  /// against its own shared default tables (no parameter is ever changed
  /// here).
  void rebuildStages();

  const exec::CompiledModel &Parent;
  SimOptions Opts;
  Scheduler Sched;
  /// Parent state plus the shared external arrays (Vm, Iion, ...) every
  /// model steps against, keyed by the parent's external order.
  StateBuffer ParentBuf;
  std::vector<double> ParentParams;
  std::vector<PluginInstance> Plugins;
  std::vector<std::vector<double>> PluginParams;
  std::vector<KernelStage> Stages;
  int VmIdx = -1, IionIdx = -1;
  double T = 0;
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_MULTIMODEL_H
