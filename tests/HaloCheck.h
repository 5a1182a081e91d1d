//===- tests/HaloCheck.h - Checks of in-place halo fills ------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared by the halo suites: cell equality with NaN == NaN, every
/// shard's prologue (beginHaloFill) on its own thread, and a harness
/// that runs a sequence of in-place exchanges over a shard decomposition
/// of an array — the prologues over a LocalTransport, then each shard's
/// nodes filled last first on three threads — and checks every cell
/// against the direct global-torus construction (buildPaddedSubgrid).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_TESTS_HALOCHECK_H
#define CMCC_TESTS_HALOCHECK_H

#include "runtime/HaloExchange.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace cmcc {
namespace halocheck {

/// Equality where NaN == NaN (poisoned cells must match exactly).
inline bool sameCells(ConstSubgridRef A, ConstSubgridRef B,
                      std::string *Where) {
  if (A.rows() != B.rows() || A.cols() != B.cols()) {
    *Where = "shape mismatch";
    return false;
  }
  for (int R = 0; R != A.rows(); ++R)
    for (int C = 0; C != A.cols(); ++C) {
      const float X = A.at(R, C), Y = B.at(R, C);
      if (!((std::isnan(X) && std::isnan(Y)) || X == Y)) {
        *Where = "(" + std::to_string(R) + "," + std::to_string(C) +
                 "): " + std::to_string(X) + " vs " + std::to_string(Y);
        return false;
      }
    }
  return true;
}

/// One exchange's settings.
struct Exchange {
  int Border;
  BoundaryKind B1, B2;
  bool Corners;
};

/// Checks that every node of \p Local (the block \p D of \p Whole)
/// holds, in place, exactly the padded subgrid the direct construction
/// gives for \p X, and NaN in its margin beyond the border.
inline void expectResident(const DistributedArray &Whole,
                           const DistributedArray &Local,
                           const PartitionDomain &D, const Exchange &X,
                           const std::string &What) {
  const int M = Local.margin();
  ASSERT_GE(M, X.Border) << What;
  for (int LR = 0; LR != D.LocalRows; ++LR)
    for (int LC = 0; LC != D.LocalCols; ++LC) {
      Array2D Direct = buildPaddedSubgrid(
          Whole, {D.globalRow(LR), D.globalCol(LC)}, X.Border, X.B1, X.B2,
          X.Corners);
      std::string Where;
      EXPECT_TRUE(sameCells(Local.halo({LR, LC}, X.Border), Direct, &Where))
          << What << ": local node (" << LR << "," << LC << ") at " << Where;
      const ConstSubgridRef Full = Local.halo({LR, LC}, M);
      const int D0 = M - X.Border;
      for (int R = 0; R != Full.rows(); ++R)
        for (int C = 0; C != Full.cols(); ++C)
          if (R < D0 || R >= Full.rows() - D0 || C < D0 ||
              C >= Full.cols() - D0) {
            ASSERT_TRUE(std::isnan(Full.at(R, C)))
                << What << ": margin cell (" << R << "," << C
                << ") beyond the border is not poisoned";
          }
    }
}

/// A fresh array holding the cores of block \p D of \p Whole.
inline std::unique_ptr<DistributedArray>
localBlock(const DistributedArray &Whole, const PartitionDomain &D) {
  auto Local = std::make_unique<DistributedArray>(
      NodeGrid(D.LocalRows, D.LocalCols), Whole.subRows(), Whole.subCols());
  for (int LR = 0; LR != D.LocalRows; ++LR)
    for (int LC = 0; LC != D.LocalCols; ++LC)
      for (int R = 0; R != Whole.subRows(); ++R)
        std::copy_n(Whole.subgrid({D.globalRow(LR), D.globalCol(LC)}).row(R),
                    Whole.subCols(), Local->subgrid({LR, LC}).row(R));
  return Local;
}

/// Checks that the cores of \p Local equal block \p D of \p Whole.
inline void expectCores(const DistributedArray &Whole,
                        const DistributedArray &Local,
                        const PartitionDomain &D, const std::string &What) {
  for (int LR = 0; LR != D.LocalRows; ++LR)
    for (int LC = 0; LC != D.LocalCols; ++LC) {
      std::string Where;
      EXPECT_TRUE(sameCells(Local.subgrid({LR, LC}),
                            Whole.subgrid({D.globalRow(LR), D.globalCol(LC)}),
                            &Where))
          << What << ": local node (" << LR << "," << LC
          << ") core changed at " << Where;
    }
}

/// Runs beginHaloFill for \p X on every shard at once, one thread per
/// shard, since transport calls are all-shard rendezvous; returns each
/// shard's fill (null on failure) and error.
inline std::vector<std::pair<std::unique_ptr<HaloFill>, Error>>
beginOnEveryShard(
    const std::vector<std::unique_ptr<DistributedArray>> &Locals,
    const std::vector<PartitionDomain> &Domains,
    const std::vector<std::unique_ptr<HaloTransport>> &Transports,
    const Exchange &X) {
  std::vector<std::pair<std::unique_ptr<HaloFill>, Error>> Results;
  for (size_t S = 0; S != Locals.size(); ++S)
    Results.emplace_back(nullptr, Error::success());
  std::vector<std::thread> Threads;
  for (size_t S = 0; S != Locals.size(); ++S)
    Threads.emplace_back([&, S] {
      Expected<HaloFill> F =
          beginHaloFill(*Locals[S], Domains[S], Transports[S].get(), 0,
                        X.Border, X.B1, X.B2, X.Corners);
      if (F)
        Results[S].first = std::make_unique<HaloFill>(F.takeValue());
      else
        Results[S].second = F.error();
    });
  for (std::thread &T : Threads)
    T.join();
  return Results;
}

/// Runs \p Sequence in place on the \p ShardRows x \p ShardCols block
/// decomposition of \p Whole, then checks each block after every
/// exchange. Every block keeps its array across the sequence, so later
/// exchanges run on the margins earlier ones grew; at the end each
/// block's margin is the widest border and its cores are unchanged. A
/// 1x1 decomposition is the in-process exchange: no transport at all.
inline void expectPartitionedResident(const DistributedArray &Whole,
                                      int ShardRows, int ShardCols,
                                      const std::vector<Exchange> &Sequence) {
  const NodeGrid &Grid = Whole.grid();
  Expected<ShardGrid> SG =
      makeShardGrid(Grid.rows(), Grid.cols(), ShardRows, ShardCols);
  ASSERT_TRUE(SG);
  LocalTransport LT(*SG);
  const int N = SG->count();
  std::vector<PartitionDomain> Domains;
  std::vector<std::unique_ptr<DistributedArray>> Locals;
  std::vector<std::unique_ptr<HaloTransport>> Endpoints;
  for (int S = 0; S != N; ++S) {
    PartitionDomain D = shardDomain(*SG, S, Grid.rows(), Grid.cols());
    Locals.push_back(localBlock(Whole, D));
    Domains.push_back(D);
    Endpoints.push_back(N == 1 ? nullptr : LT.endpoint(S));
  }
  const std::string Shards =
      "shards " + std::to_string(ShardRows) + "x" + std::to_string(ShardCols);
  ThreadPool Pool(3);
  for (const Exchange &X : Sequence) {
    auto Fills = beginOnEveryShard(Locals, Domains, Endpoints, X);
    for (int S = 0; S != N; ++S) {
      ASSERT_NE(Fills[S].first, nullptr) << Fills[S].second.message();
      const HaloFill &F = *Fills[S].first;
      const int Nodes = Domains[S].localNodeCount();
      Pool.parallelFor(Nodes, [&](int I) { F.fillNode(Nodes - 1 - I); });
      expectResident(Whole, *Locals[S], Domains[S], X,
                     Shards + " shard " + std::to_string(S) + " border " +
                         std::to_string(X.Border) +
                         " corners=" + std::to_string(X.Corners));
    }
  }
  int Widest = 0;
  for (const Exchange &X : Sequence)
    Widest = std::max(Widest, X.Border);
  for (int S = 0; S != N; ++S) {
    EXPECT_EQ(Locals[S]->margin(), Widest) << Shards << " shard " << S;
    expectCores(Whole, *Locals[S], Domains[S],
                Shards + " shard " + std::to_string(S));
  }
}

} // namespace halocheck
} // namespace cmcc

#endif // CMCC_TESTS_HALOCHECK_H
