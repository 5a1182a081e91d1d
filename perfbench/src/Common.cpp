//===- perfbench/src/Common.cpp - Shared benchmark machinery -------------===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "runtime/Reference.h"
#include "support/StringUtils.h"
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sys/resource.h>

using namespace cmcc;

namespace perfbench {

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

// Set-up and restart times are single cold events, each at the mercy of
// page faults, thread wake-ups and the disk; within one run the compile
// workload's restarts ranged over a factor of two, so fifteen of each.
int RunConfig::setupRepeats() const { return Smoke ? 1 : 15; }

// Probe runs were 30-35% slower in their first round than in the rest;
// two seconds covers that on every workload.
double RunConfig::warmupSeconds() const { return Smoke ? 0.05 : 2.0; }

//===--- Tally ------------------------------------------------------------===//

void Tally::job(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  problem("job failed: " + Why);
}

void Tally::check(bool Ok, const std::string &What) {
  if (!Ok)
    problem("check failed: " + What);
}

void Tally::problem(const std::string &What) {
  // Keep the first few; a systematic failure would otherwise flood.
  if (Problems.size() < 8)
    Problems.push_back(What);
  else if (Problems.size() == 8)
    Problems.push_back("(further problems not shown)");
}

//===--- Report -----------------------------------------------------------===//

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit, const std::string &Moves) {
  Metrics.push_back({Name, Value, Unit, Moves, true});
}

void Report::note(const std::string &Line) { Notes.push_back(Line); }

void Report::layer(const std::string &Name, double Value) {
  Layers[Name] = Value;
}

void Report::takeLayers(const Report &From, const std::string &Prefix) {
  for (const auto &[Name, Value] : From.Layers)
    if (Name.compare(0, Prefix.size(), Prefix) == 0)
      Layers[Name] = Value;
}

void Report::emitLayers() {
  for (const LayerMetricDef &D : layerMetrics()) {
    auto It = Layers.find(D.Name);
    bool Applies = It != Layers.end();
    Metrics.push_back(
        {D.Name, Applies ? It->second : 0.0, D.Unit, D.Moves, Applies});
  }
}

const std::vector<LayerMetricDef> &layerMetrics() {
  static const std::vector<LayerMetricDef> Defs = {
      // service/ and its plan cache.
      {"service.overhead_us", "us", "seismic/job_p50_ms compile/job_p50_ms"},
      {"service.queue_wait_us", "us", "seismic/job_p50_ms"},
      {"service.compile_us", "us", "compile/job_p90_ms"},
      {"service.memo_hit_ratio", "ratio", "compile/jobs_per_s"},
      {"service.retries", "count", "(must be 0)"},
      {"service.fallbacks", "count", "(must be 0)"},
      {"plancache.hit_ratio", "ratio", "compile/restart_s"},
      {"plancache.disk_hits", "count", "compile/restart_s"},
      {"plancache.disk_rejects", "count", "(must be 0)"},
      {"plancache.store_us", "us", "compile/setup_s"},
      // fortran/, sexpr/ and stencil/: parse + recognize per stencil.
      {"frontend.fortran_us", "us", "compile/jobs_per_s"},
      {"frontend.sexpr_us", "us", "compile/jobs_per_s"},
      // core/ and the simulated cm2 backend.
      {"core.compile_us", "us", "compile/job_p90_ms"},
      {"core.plan_load_us", "us", "compile/restart_s"},
      {"cm2.time_only_us", "us", "compile/job_p50_ms"},
      // backends/ (native, njit).
      {"backend.run_us", "us", "seismic/job_p50_ms"},
      {"backend.gflops", "GFlop/s", "seismic/jobs_per_s"},
      {"backend.kernel_gflops", "GFlop/s", "seismic/jobs_per_s"},
      {"backend.kernel_pct_of_ceiling", "%", "seismic/jobs_per_s"},
      {"njit.cc_ms", "ms", "seismic/setup_s"},
      {"njit.compiles_on_restart", "count", "seismic/restart_s (must be 0)"},
      // runtime/: halo exchange and the thread pool.
      {"halo.exchange_us", "us", "seismic/job_p50_ms"},
      {"halo.share", "ratio", "seismic/jobs_per_s"},
      {"halo.bytes_per_job", "bytes", "seismic/jobs_per_s"},
      {"halo.pct_of_memcpy", "%", "seismic/jobs_per_s"},
      {"halo.exchanges_per_job", "count", "seismic/jobs_per_s"},
      {"threadpool.dispatches_per_job", "count", "seismic/job_p50_ms"},
      // net/: codecs, round trips, bytes.
      {"net.encode_us", "us", "wire/job_p50_ms"},
      {"net.decode_us", "us", "wire/job_p50_ms"},
      {"net.submit_rtt_us", "us", "wire/job_p50_ms"},
      {"net.wait_rtt_us", "us", "wire/job_p50_ms"},
      {"net.server_submit_us", "us", "wire/job_p50_ms"},
      {"net.unattributed_us", "us", "wire/job_p50_ms"},
      {"net.bytes_per_job", "bytes", "wire/jobs_per_s"},
      {"net.pct_of_loopback", "%", "wire/jobs_per_s"},
      // shard/: the coordinator and its worker fleet.
      {"shard.run_us", "us", "shard/job_p50_ms"},
      {"shard.exchange_us", "us", "shard/jobs_per_s"},
      {"shard.exchange_wait_us.0", "us", "shard/jobs_per_s"},
      {"shard.exchange_wait_us.1", "us", "shard/jobs_per_s"},
      {"shard.bytes_per_job", "bytes", "shard/jobs_per_s"},
      {"shard.speedup", "x", "shard/jobs_per_s"},
      {"shard.spawns", "count", "shard/setup_s"},
      {"shard.deaths", "count", "(must be 0)"},
      // In-run ceilings (benchmark-owned code).
      {"ceiling.kernel_gflops", "GFlop/s", "(ceiling)"},
      {"ceiling.memcpy_gbps", "GB/s", "(ceiling)"},
      {"ceiling.socket_gbps", "GB/s", "(ceiling)"},
      // obs/: what tracing costs.
      {"obs.trace_overhead_pct", "%", "(all workloads)"},
  };
  return Defs;
}

void Report::printTable() const {
  for (const std::string &N : Notes)
    std::printf("  %s\n", N.c_str());
  for (const Metric &M : Metrics) {
    std::string Value = M.Applies ? formatFixed(M.Value, 4) : "n/a";
    std::printf("  %-32s %14s %-8s %s%s\n", M.Name.c_str(), Value.c_str(),
                M.Unit.c_str(), M.Moves.empty() ? "" : "moves ",
                M.Moves.c_str());
  }
}

std::string Report::json(const Tally &T) const {
  std::string Out = "{\"correct\": ";
  Out += T.correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(T.attempted());
  Out += ", \"failed\": " + std::to_string(T.failed());
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    char Value[64];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::snprintf(Value, sizeof(Value), "%.17g", V);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Value +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

//===--- ActiveClock ------------------------------------------------------===//

void ActiveClock::start() {
  Banked = 0.0;
  Since = Clock::now();
  Running = true;
}

void ActiveClock::pause() {
  if (!Running)
    return;
  Banked += secondsSince(Since);
  Running = false;
}

void ActiveClock::resume() {
  if (Running)
    return;
  Since = Clock::now();
  Running = true;
}

double ActiveClock::seconds() const {
  return Banked + (Running ? secondsSince(Since) : 0.0);
}

//===--- Closed loop ------------------------------------------------------===//

LoopStats runClosedLoop(double Warmup, double Seconds, Tally &T,
                        const StepFn &Step, int Interludes,
                        const std::function<void()> &Interlude) {
  auto WarmUp = [&](double For) {
    ActiveClock Discard;
    Discard.start();
    const Clock::time_point Start = Clock::now();
    while (secondsSince(Start) < For) {
      double Ignored = 0.0;
      T.job(Step(Discard, Ignored), "warm-up job");
    }
  };
  WarmUp(Warmup);

  // Windows of a twentieth of the phase (at least 50 ms).
  const double WindowSeconds = std::max(0.05, Seconds / 20.0);
  const double Chunk = Seconds / (Interludes + 1);
  std::vector<double> WindowRates, WindowMs;
  LoopStats L;
  ActiveClock Active;
  Active.start();
  double WindowStart = 0.0;
  int InterludesDone = 0;
  for (;;) {
    double Now = Active.seconds();
    const bool End = Now >= Seconds;
    // The last window closes with the phase unless it is a sliver.
    if (Now - WindowStart >= (End ? WindowSeconds / 2 : WindowSeconds)) {
      WindowRates.push_back(static_cast<double>(WindowMs.size()) /
                            (Now - WindowStart));
      if (!WindowMs.empty()) {
        L.WindowP50Ms.push_back(percentile(WindowMs, 50.0));
        L.WindowP90Ms.push_back(percentile(WindowMs, 90.0));
      }
      WindowStart = Now;
      WindowMs.clear();
    }
    if (End)
      break;
    if (InterludesDone < Interludes && Now >= Chunk * (InterludesDone + 1)) {
      Active.pause();
      Interlude();
      ++InterludesDone;
      WarmUp(Warmup / 20); // The interlude left the caches cold.
      Active.resume();
      continue;
    }
    double LatencyMs = 0.0;
    bool Ok = Step(Active, LatencyMs);
    T.job(Ok, "timed job");
    if (!Ok)
      continue;
    ++L.Completed;
    WindowMs.push_back(LatencyMs);
    L.LatencyMs.push_back(LatencyMs);
  }
  L.ActiveSeconds = Active.seconds();
  L.JobsPerSecond = median(WindowRates);
  return L;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

void reportLoop(Report &R, const LoopStats &L) {
  const size_t Windows = L.WindowP90Ms.size();
  const size_t PerWindow = L.LatencyMs.size() / std::max<size_t>(1, Windows);
  R.note("timed phase: " + std::to_string(L.Completed) + " jobs in " +
         formatFixed(L.ActiveSeconds, 3) + " s active, " +
         std::to_string(Windows) + " windows of about " +
         std::to_string(PerWindow) + " jobs (p90: about " +
         std::to_string(PerWindow / 10) +
         " beyond it per window); whole-phase p50 " +
         formatFixed(percentile(L.LatencyMs, 50.0), 4) + " ms, p90 " +
         formatFixed(percentile(L.LatencyMs, 90.0), 4) + " ms, p99 " +
         formatFixed(percentile(L.LatencyMs, 99.0), 4) + " ms (not gated)");
  R.add("jobs_per_s", L.JobsPerSecond, "1/s");
  R.add("job_p50_ms", median(L.WindowP50Ms), "ms");
  R.add("job_p90_ms", median(L.WindowP90Ms), "ms");
}

void reportStarts(Report &R, const std::vector<double> &Setups,
                  const std::vector<double> &Restarts) {
  auto Samples = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    std::string Out;
    for (double S : V)
      Out += " " + formatFixed(S * 1e3, 2);
    return Out;
  };
  R.note("set-up samples (ms, sorted):" + Samples(Setups));
  R.note("restart samples (ms, sorted):" + Samples(Restarts));
  R.add("setup_s", median(Setups), "s");
  R.add("restart_s", median(Restarts), "s");
}

double peakRssMiB() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void freshDir(const std::string &Path) {
  std::error_code Ignored;
  std::filesystem::remove_all(Path, Ignored);
  std::filesystem::create_directories(Path);
}

//===--- The seismic update -----------------------------------------------===//

std::string seismicStatement() {
  // Fourth-order Laplacian weights at lambda = (c dt / dx)^2 = 0.22, the
  // values examples/seismic.cpp uses; stable for any field.
  const double Lambda = 0.22;
  auto W = [](double K) { return formatFixed(K, 6); };
  const std::string Near = W(Lambda * (4.0 / 3.0));
  const std::string Far = W(Lambda / 12.0);
  return "R = " + W(2.0 - Lambda * 5.0) + " * U" +
         " + " + Near + " * EOSHIFT(U, 1, -1)" +
         " + " + Near + " * EOSHIFT(U, 1, +1)" +
         " + " + Near + " * EOSHIFT(U, 2, -1)" +
         " + " + Near + " * EOSHIFT(U, 2, +1)" +
         " - " + Far + " * EOSHIFT(U, 1, -2)" +
         " - " + Far + " * EOSHIFT(U, 1, +2)" +
         " - " + Far + " * EOSHIFT(U, 2, -2)" +
         " - " + Far + " * EOSHIFT(U, 2, +2)" +
         " - UPREV";
}

Array2D seededField(int Rows, int Cols, uint64_t Seed, int Which) {
  Array2D A(Rows, Cols);
  A.fillRandom(Seed * 2 + 1 + static_cast<uint64_t>(Which));
  return A;
}

namespace {

float ulpOf(float X) {
  float A = std::fabs(X);
  return std::nextafter(A, std::numeric_limits<float>::infinity()) - A;
}

} // namespace

bool withinUlpContract(const StencilSpec &Spec, const Array2D &U,
                       const Array2D &UPrev, const Array2D &Got) {
  ReferenceBindings B;
  B.Source = &U;
  for (const std::string &Name : Spec.coefficientArrayNames())
    B.Coefficients[Name] = &UPrev;
  const int Rows = U.rows(), Cols = U.cols();
  Array2D Want = evaluateReference(Spec, B, Rows, Cols);
  if (Got.rows() != Rows || Got.cols() != Cols)
    return false;
  auto SourceAt = [&](int R, int C) -> float {
    bool RowOut = R < 0 || R >= Rows, ColOut = C < 0 || C >= Cols;
    if ((RowOut && Spec.BoundaryDim1 == BoundaryKind::Zero) ||
        (ColOut && Spec.BoundaryDim2 == BoundaryKind::Zero))
      return 0.0f;
    return U.atWrapped(R, C);
  };
  const float Terms = static_cast<float>(Spec.Taps.size());
  for (int R = 0; R != Rows; ++R)
    for (int C = 0; C != Cols; ++C) {
      // The tolerance scale: sum of |term| at this point.
      double Scale = 0.0;
      for (const Tap &T : Spec.Taps) {
        float Coeff = T.Coeff.isArray() ? UPrev.at(R, C)
                                        : static_cast<float>(T.Coeff.Value);
        float Data = T.HasData ? SourceAt(R + T.At.Dy, C + T.At.Dx) : 1.0f;
        Scale += std::fabs(static_cast<double>(T.Sign) * Coeff * Data);
      }
      float Tol = Terms * ulpOf(static_cast<float>(Scale));
      if (!(std::fabs(Want.at(R, C) - Got.at(R, C)) <= Tol))
        return false;
    }
  return true;
}

bool bitwiseEqual(const Array2D &A, const Array2D &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     sizeof(float) * static_cast<size_t>(A.rows()) *
                         static_cast<size_t>(A.cols())) == 0;
}

} // namespace perfbench
