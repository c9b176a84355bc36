//===- ModelInfo.cpp ------------------------------------------------------===//

#include "easyml/ModelInfo.h"

#include "support/Casting.h"

#include <set>

using namespace limpet;
using namespace limpet::easyml;

std::string_view easyml::integMethodName(IntegMethod M) {
  switch (M) {
  case IntegMethod::ForwardEuler:
    return "fe";
  case IntegMethod::RK2:
    return "rk2";
  case IntegMethod::RK4:
    return "rk4";
  case IntegMethod::RushLarsen:
    return "rush_larsen";
  case IntegMethod::Sundnes:
    return "sundnes";
  case IntegMethod::MarkovBE:
    return "markov_be";
  }
  limpet_unreachable("invalid integration method");
}

bool easyml::parseIntegMethod(std::string_view Name, IntegMethod &Out) {
  if (Name == "fe")
    Out = IntegMethod::ForwardEuler;
  else if (Name == "rk2")
    Out = IntegMethod::RK2;
  else if (Name == "rk4")
    Out = IntegMethod::RK4;
  else if (Name == "rush_larsen")
    Out = IntegMethod::RushLarsen;
  else if (Name == "sundnes")
    Out = IntegMethod::Sundnes;
  else if (Name == "markov_be")
    Out = IntegMethod::MarkovBE;
  else
    return false;
  return true;
}

int ModelInfo::externalIndex(std::string_view Name) const {
  for (size_t I = 0; I != Externals.size(); ++I)
    if (Externals[I].Name == Name)
      return int(I);
  return -1;
}

int ModelInfo::paramIndex(std::string_view Name) const {
  for (size_t I = 0; I != Params.size(); ++I)
    if (Params[I].Name == Name)
      return int(I);
  return -1;
}

int ModelInfo::stateVarIndex(std::string_view Name) const {
  for (size_t I = 0; I != StateVars.size(); ++I)
    if (StateVars[I].Name == Name)
      return int(I);
  return -1;
}

static void countNodes(const Expr *E, std::set<const Expr *> &Seen) {
  if (!E || !Seen.insert(E).second)
    return;
  for (const ExprPtr &Op : E->Operands)
    countNodes(Op.get(), Seen);
}

size_t ModelInfo::countDistinctOps() const {
  std::set<const Expr *> Seen;
  for (const StateVarInfo &SV : StateVars)
    countNodes(SV.Diff.get(), Seen);
  for (const ExternalInfo &Ext : Externals)
    if (Ext.IsComputed)
      countNodes(Ext.Value.get(), Seen);
  return Seen.size();
}
