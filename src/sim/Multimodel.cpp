//===- Multimodel.cpp -----------------------------------------------------===//

#include "sim/Multimodel.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace limpet;
using namespace limpet::sim;
using namespace limpet::exec;

MultimodelSimulator::MultimodelSimulator(const CompiledModel &Parent,
                                         const SimOptions &Opts)
    : Parent(Parent), Opts(Opts),
      Sched(Opts.NumCells, Opts.NumThreads,
            std::max(Parent.config().Width, 1u)),
      ParentBuf(Parent, Opts.NumCells, &Sched) {
  ParentParams = Parent.defaultParams();
  telemetry::counter("sim.lut.shared").add(1);
  VmIdx = Parent.info().externalIndex("Vm");
  IionIdx = Parent.info().externalIndex("Iion");
  rebuildStages();
}

size_t MultimodelSimulator::addPlugin(const CompiledModel &Plugin,
                                      std::vector<ParentBinding> Bindings) {
  // Shard boundaries must stay aligned for every model in the
  // composition; widths are powers of two, so the maximum covers all.
  unsigned MaxW = std::max(Parent.config().Width, 1u);
  for (const PluginInstance &P : Plugins)
    MaxW = std::max(MaxW, std::max(P.Model->config().Width, 1u));
  MaxW = std::max(MaxW, std::max(Plugin.config().Width, 1u));
  if (MaxW != Sched.plan().BlockWidth)
    Sched.rebuild(MaxW);

  PluginInstance Inst;
  Inst.Model = &Plugin;
  Inst.Buf = std::make_unique<StateBuffer>(Plugin, Opts.NumCells, &Sched);

  const easyml::ModelInfo &Info = Plugin.info();
  Inst.SharedIndex.assign(Info.Externals.size(), -1);
  Inst.BoundParentSv.assign(Info.Externals.size(), -1);
  Inst.BoundWritable.assign(Info.Externals.size(), false);

  for (size_t J = 0; J != Info.Externals.size(); ++J) {
    const std::string &Name = Info.Externals[J].Name;
    // Parent-state binding takes precedence.
    const ParentBinding *Binding = nullptr;
    for (const ParentBinding &B : Bindings)
      if (B.PluginExternal == Name)
        Binding = &B;
    if (Binding) {
      int Sv = Parent.info().stateVarIndex(Binding->ParentStateVar);
      assert(Sv >= 0 && "binding references an unknown parent state var");
      Inst.BoundParentSv[J] = Sv;
      Inst.BoundWritable[J] = Binding->Writable;
      continue;
    }
    // Same-named parent external: share the array.
    Inst.SharedIndex[J] = Parent.info().externalIndex(Name);
    // Else fall through to the plugin's local storage (Inst.Buf's own
    // external array, already initialized to the plugin's inits).
  }

  PluginParams.push_back(Plugin.defaultParams());
  telemetry::counter("sim.lut.shared").add(1);
  Plugins.push_back(std::move(Inst));
  rebuildStages();
  return Plugins.size() - 1;
}

void MultimodelSimulator::rebuildStages() {
  Stages.clear();

  KernelStage ParentStage;
  ParentStage.Model = &Parent;
  ParentStage.State = ParentBuf.state();
  ParentStage.Exts = ParentBuf.extPointers();
  ParentStage.Params = ParentParams.data();
  ParentStage.Luts = &Parent.luts();
  Stages.push_back(std::move(ParentStage));

  for (size_t P = 0; P != Plugins.size(); ++P) {
    PluginInstance &Inst = Plugins[P];
    KernelStage Stage;
    Stage.Model = Inst.Model;
    Stage.State = Inst.Buf->state();
    bool AnyBound = false, AnyWritable = false;
    for (size_t J = 0; J != Inst.SharedIndex.size(); ++J) {
      Stage.Exts.push_back(Inst.SharedIndex[J] >= 0
                               ? ParentBuf.ext(size_t(Inst.SharedIndex[J]))
                               : Inst.Buf->ext(J));
      AnyBound |= Inst.BoundParentSv[J] >= 0;
      AnyWritable |= Inst.BoundParentSv[J] >= 0 && Inst.BoundWritable[J];
    }
    Stage.Params = PluginParams[P].data();
    Stage.Luts = &Inst.Model->luts();
    // The hooks capture the plugin index, not the instance: Plugins may
    // reallocate on a later addPlugin. Each hook only touches its shard's
    // cell range, so shards stay independent under threading.
    if (AnyBound)
      Stage.Before = [this, P](int64_t Begin, int64_t End) {
        PluginInstance &I = Plugins[P];
        for (size_t J = 0; J != I.BoundParentSv.size(); ++J) {
          if (I.BoundParentSv[J] < 0)
            continue;
          double *Dst = I.Buf->ext(J);
          for (int64_t Cell = Begin; Cell != End; ++Cell)
            Dst[Cell] = ParentBuf.readState(Cell, I.BoundParentSv[J]);
        }
      };
    // Offspring may modify the parent: scatter writable bindings back
    // into the parent's (layout-transformed) state.
    if (AnyWritable)
      Stage.After = [this, P](int64_t Begin, int64_t End) {
        PluginInstance &I = Plugins[P];
        for (size_t J = 0; J != I.BoundParentSv.size(); ++J) {
          if (I.BoundParentSv[J] < 0 || !I.BoundWritable[J])
            continue;
          const double *Src = I.Buf->ext(J);
          for (int64_t Cell = Begin; Cell != End; ++Cell)
            ParentBuf.writeState(Cell, I.BoundParentSv[J], Src[Cell]);
        }
      };
    Stages.push_back(std::move(Stage));
  }
}

void MultimodelSimulator::step() {
  // Parent compute, then every plugin (gather hook, kernel, scatter
  // hook), per shard through the one stepping loop.
  Sched.step(Stages, Opts.Dt, T);

  // Voltage update over the shared arrays.
  if (VmIdx >= 0 && IionIdx >= 0) {
    double Phase = Opts.StimPeriod > 0 ? std::fmod(T, Opts.StimPeriod) : T;
    double Stim = (Phase >= Opts.StimStart &&
                   Phase < Opts.StimStart + Opts.StimDuration)
                      ? Opts.StimStrength
                      : 0.0;
    Sched.voltageStep(ParentBuf.ext(size_t(VmIdx)),
                      ParentBuf.ext(size_t(IionIdx)), Stim, Opts.Dt);
  }
  T += Opts.Dt;
}

void MultimodelSimulator::run() {
  for (int64_t I = 0; I != Opts.NumSteps; ++I)
    step();
}

double MultimodelSimulator::vm(int64_t Cell) const {
  assert(VmIdx >= 0 && "parent has no Vm external");
  return ParentBuf.readExt(size_t(VmIdx), Cell);
}

double MultimodelSimulator::parentState(int64_t Cell, int64_t Sv) const {
  return ParentBuf.readState(Cell, Sv);
}

double MultimodelSimulator::pluginState(size_t PluginIdx, int64_t Cell,
                                        int64_t Sv) const {
  return Plugins[PluginIdx].Buf->readState(Cell, Sv);
}
