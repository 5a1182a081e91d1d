//===- runtime/Backend.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Backend.h"
#include <memory>

using namespace cmcc;

ExecutionBackend::~ExecutionBackend() = default;

Expected<TimingReport> ExecutionBackend::run(const CompiledStencil &Compiled,
                                             StencilArguments &Args,
                                             const RunOptions &Opts) const {
  Expected<ResolvedStencilArguments> Resolved =
      resolveStencilArguments(machine(), Compiled, Args);
  if (!Resolved)
    return Resolved.error();
  return runResolved(Compiled, *Resolved, Opts);
}

Expected<TimingReport>
ExecutionBackend::runOnScratch(const CompiledStencil &Compiled, int SubRows,
                               int SubCols, const RunOptions &Opts) const {
  const StencilSpec &Spec = Compiled.Spec;
  const NodeGrid Grid(machine());
  DistributedArray Result(Grid, SubRows, SubCols);
  std::vector<std::unique_ptr<DistributedArray>> Owned;
  uint64_t Seed = 1;
  auto MakeScratch = [&] {
    Owned.push_back(std::make_unique<DistributedArray>(Grid, SubRows, SubCols));
    DistributedArray &A = *Owned.back();
    for (int Id = 0; Id != Grid.nodeCount(); ++Id)
      A.subgrid(Grid.coordOf(Id)).fillRandom(Seed * 7919 + Id);
    ++Seed;
    return &A;
  };

  StencilArguments Args;
  Args.Result = &Result;
  Args.Source = MakeScratch();
  for (const std::string &Name : Spec.ExtraSources)
    Args.ExtraSources[Name] = MakeScratch();
  for (const std::string &Name : Spec.coefficientArrayNames())
    Args.Coefficients[Name] = MakeScratch();
  return run(Compiled, Args, Opts);
}

Expected<ResolvedStencilArguments>
cmcc::resolveStencilArguments(const MachineConfig &Config,
                              const CompiledStencil &Compiled,
                              const StencilArguments &Args) {
  const StencilSpec &Spec = Compiled.Spec;
  if (!Args.Result || !Args.Source)
    return makeError("result and source arrays must be bound");
  if (Args.Result == Args.Source)
    return makeError("result must not alias the stencil variable");
  const DistributedArray &R = *Args.Result;
  auto SameShape = [&](const DistributedArray &A) {
    return A.subRows() == R.subRows() && A.subCols() == R.subCols() &&
           A.grid().rows() == R.grid().rows() &&
           A.grid().cols() == R.grid().cols();
  };
  if (!SameShape(*Args.Source))
    return makeError("source shape differs from result shape (the paper "
                     "requires all arrays be divided the same way)");

  ResolvedStencilArguments Resolved;
  Resolved.Result = Args.Result;
  Resolved.Sources.reserve(Spec.sourceCount());
  Resolved.Sources.push_back(Args.Source);
  for (const std::string &Name : Spec.ExtraSources) {
    auto It = Args.ExtraSources.find(Name);
    if (It == Args.ExtraSources.end() || !It->second)
      return makeError("source array '" + Name + "' is not bound");
    if (!SameShape(*It->second))
      return makeError("source array '" + Name +
                       "' has a different shape");
    if (It->second == Args.Result)
      return makeError("result must not alias source '" + Name + "'");
    Resolved.Sources.push_back(It->second);
  }

  // Resolve coefficient names tap-by-tap so execution indexes a flat
  // vector; each distinct name is still validated exactly once.
  std::map<std::string, const DistributedArray *> Checked;
  Resolved.TapCoefficients.assign(Spec.Taps.size(), nullptr);
  for (size_t I = 0; I != Spec.Taps.size(); ++I) {
    const Tap &T = Spec.Taps[I];
    if (!T.Coeff.isArray())
      continue;
    auto Known = Checked.find(T.Coeff.Name);
    if (Known != Checked.end()) {
      Resolved.TapCoefficients[I] = Known->second;
      continue;
    }
    auto It = Args.Coefficients.find(T.Coeff.Name);
    if (It == Args.Coefficients.end() || !It->second)
      return makeError("coefficient array '" + T.Coeff.Name +
                       "' is not bound");
    if (!SameShape(*It->second))
      return makeError("coefficient array '" + T.Coeff.Name +
                       "' has a different shape");
    Checked.emplace(T.Coeff.Name, It->second);
    Resolved.TapCoefficients[I] = It->second;
  }

  int Border = Spec.borderWidths().maximum();
  if (Border > R.subRows() || Border > R.subCols())
    return makeError("stencil border width " + std::to_string(Border) +
                     " exceeds the per-node subgrid; data would be needed "
                     "from beyond the four neighbors");
  if (R.grid().rows() != Config.NodeRows || R.grid().cols() != Config.NodeCols)
    return makeError("arrays are distributed over a different node grid "
                     "than this executor's machine");
  return Resolved;
}
