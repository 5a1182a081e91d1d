//===- perfbench/src/Main.cpp - The benchmark binary ----------------------===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// cmcc_perfbench --workload W --seed N --seconds S --trace 0|1 --dir D
///                [--smoke]
///
/// Runs one workload (seismic, wire, compile, shard) in the private
/// scratch directory D and prints, as its last stdout line, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
/// report the end-to-end metrics; traced runs (--trace 1) report the
/// per-layer metrics. perfbench/run.py builds and drives this binary.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "support/Provenance.h"
#include "support/StringUtils.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "cmcc_perfbench: %s\nusage: cmcc_perfbench --workload "
               "seismic|wire|compile|shard --seed N --seconds S --trace 0|1 "
               "--dir DIR [--smoke]\n",
               Why);
  return 2;
}

bool envSet(const char *Name) {
  const char *V = std::getenv(Name);
  return V && *V;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < argc ? argv[++I] : std::string();
    };
    if (Arg == "--workload")
      Cfg.Workload = Value();
    else if (Arg == "--seed")
      Cfg.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Cfg.Seconds = std::atof(Value().c_str());
    else if (Arg == "--trace")
      Cfg.Trace = Value() == "1";
    else if (Arg == "--dir")
      Cfg.Dir = Value();
    else if (Arg == "--smoke")
      Cfg.Smoke = true;
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (Cfg.Dir.empty() || !(Cfg.Seconds > 0.0))
    return usage("--dir and a positive --seconds are required");
  // Work inside the run directory with short relative paths: a unix
  // socket path must fit in 108 bytes wherever the checkout lives.
  if (::chdir(Cfg.Dir.c_str()) != 0)
    return usage(("cannot enter " + Cfg.Dir).c_str());
  Cfg.Dir = ".";

  // No silent substitution: injected faults or a process-wide trace would
  // change what is measured.
  for (const char *Name : {"CMCC_FAULTS", "CMCC_TRACE"})
    if (envSet(Name)) {
      std::fprintf(stderr, "cmcc_perfbench: refusing to measure with %s set\n",
                   Name);
      return 2;
    }

  double Load[3] = {0, 0, 0};
  if (getloadavg(Load, 3) < 0)
    Load[0] = -1;
  std::printf("cmcc_perfbench %s seed=%llu seconds=%s trace=%d%s\n",
              Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              cmcc::formatFixed(Cfg.Seconds, 2).c_str(), Cfg.Trace ? 1 : 0,
              Cfg.Smoke ? " smoke" : "");
  std::printf("  built with %s; flags: %s\n", cmcc::compilerIdentity().c_str(),
              cmcc::compileFlags().c_str());
  std::printf("  nproc %u; load average at start %s\n",
              std::thread::hardware_concurrency(),
              cmcc::formatFixed(Load[0], 2).c_str());

  using RunFn = void (*)(const RunConfig &, const Ceilings &, Report &,
                         Tally &);
  RunFn Run = Cfg.Workload == "wire"      ? runWire
              : Cfg.Workload == "compile" ? runCompile
              : Cfg.Workload == "seismic" || Cfg.Workload == "shard"
                  ? runSeismicUpdate
                  : nullptr;
  if (!Run)
    return usage(("unknown workload '" + Cfg.Workload + "'").c_str());

  Report R;
  Tally T;
  Ceilings C;
  if (Cfg.Trace) {
    C = measureCeilings();
    R.layer("ceiling.kernel_gflops", C.KernelGflops);
    R.layer("ceiling.memcpy_gbps", C.MemcpyGBps);
    R.layer("ceiling.socket_gbps", C.SocketGBps);
  }
  Run(Cfg, C, R, T);
  if (Cfg.Trace)
    R.emitLayers();
  R.printTable();
  for (const std::string &P : T.problems())
    std::printf("  PROBLEM: %s\n", P.c_str());
  std::printf("%s\n", R.json(T).c_str());
  return 0;
}
