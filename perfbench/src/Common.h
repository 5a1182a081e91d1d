//===- perfbench/src/Common.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run configuration,
/// the failure tally, the metric report and its JSON line, a pausable
/// clock for the timed phase, the closed-loop runner, and the seismic
/// update's inputs and output checks. RATIONALE.md explains the choices.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_PERFBENCH_COMMON_H
#define CMCC_PERFBENCH_COMMON_H

#include "runtime/Array2D.h"
#include "runtime/DistributedArray.h"
#include "stencil/StencilSpec.h"
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p Start.
double secondsSince(Clock::time_point Start);

/// What one invocation measures.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Tiny sizes and durations that still exercise every check.
  bool Smoke = false;
  /// Private scratch directory of this run (caches, socket, trace).
  std::string Dir;

  /// Set-ups (each followed by a restart) whose median is reported.
  int setupRepeats() const;
  /// Untimed warm-up before every timed phase.
  double warmupSeconds() const;
};

/// Attempted and failed jobs, plus output checks. Any failure makes the
/// run incorrect.
class Tally {
public:
  /// Records one job; a job that is not ok counts as failed.
  void job(bool Ok, const std::string &Why = std::string());
  /// Records a failed output check (not a job).
  void check(bool Ok, const std::string &What);

  long attempted() const { return Attempted; }
  long failed() const { return Failed; }
  bool correct() const { return Problems.empty(); }
  const std::vector<std::string> &problems() const { return Problems; }

private:
  void problem(const std::string &What);

  long Attempted = 0;
  long Failed = 0;
  std::vector<std::string> Problems;
};

/// One reported metric. \p Moves names the end-to-end metric a layer
/// metric should move, as "workload/metric"; empty for end-to-end ones.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  std::string Moves;
  /// False when the workload never calls into the layer: the value is
  /// then 0 by definition and the table says "n/a".
  bool Applies = true;
};

/// The metrics of one run, in report order.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit,
           const std::string &Moves = std::string());
  /// A free-form line printed before the table (sample counts, p99).
  void note(const std::string &Line);

  /// Records per-layer metric \p Name (one of layerMetrics()).
  void layer(const std::string &Name, double Value);
  /// Copies \p From's per-layer metrics whose names start with \p Prefix.
  void takeLayers(const Report &From, const std::string &Prefix);
  /// Appends every per-layer metric in canonical order; a layer this
  /// workload never recorded is reported as not applicable.
  void emitLayers();

  /// Human-readable table on stdout.
  void printTable() const;
  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string json(const Tally &T) const;

private:
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
  std::map<std::string, double> Layers;
};

/// One per-layer metric: its unit and the end-to-end metric(s) it should
/// move. BENCHMARK.json lists the same names in the same order.
struct LayerMetricDef {
  const char *Name;
  const char *Unit;
  const char *Moves;
};
const std::vector<LayerMetricDef> &layerMetrics();

/// A stopwatch that can be paused around work that must not be timed
/// (output checks, snapshots).
class ActiveClock {
public:
  void start();
  void pause();
  void resume();
  double seconds() const;

private:
  Clock::time_point Since;
  double Banked = 0.0;
  bool Running = false;
};

/// Latencies and throughput of one closed-loop timed phase. The phase is
/// cut into twenty windows of active time; the reported figures are the
/// medians over windows of each window's rate and percentiles, so a burst
/// of host contention that spoils fewer than half of the windows moves
/// them little.
struct LoopStats {
  std::vector<double> LatencyMs; ///< Successful jobs only.
  std::vector<double> WindowP50Ms, WindowP90Ms;
  long Completed = 0;
  double ActiveSeconds = 0.0;
  double JobsPerSecond = 0.0; ///< Median of the per-window rates.
};

/// One closed-loop step: runs one job, returns false when it failed,
/// and stores the client-observed latency on success. It may pause the
/// clock around checks.
using StepFn = std::function<bool(ActiveClock &Clock, double &LatencyMs)>;

/// Runs \p Step untimed for \p Warmup seconds, then timed for \p Seconds
/// of active time. Every job is recorded in \p T. The timed phase is cut
/// into \p Interludes + 1 equal chunks; between chunks, with the clock
/// stopped, \p Interlude runs (the set-up and restart samples, spread
/// over the run so their median sees the same host as the jobs), and a
/// short untimed warm-up follows it.
LoopStats runClosedLoop(double Warmup, double Seconds, Tally &T,
                        const StepFn &Step, int Interludes = 0,
                        const std::function<void()> &Interlude = nullptr);

/// Linear-interpolated percentile (0..100) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50.0);
}

/// Adds jobs_per_s, job_p50_ms and job_p90_ms (medians over windows)
/// from \p L, with the sample counts, the whole-phase percentiles and the
/// ungated p99 as a note.
void reportLoop(Report &R, const LoopStats &L);

/// Adds setup_s and restart_s, the medians of \p Setups and \p Restarts,
/// with every sample as a note.
void reportStarts(Report &R, const std::vector<double> &Setups,
                  const std::vector<double> &Restarts);

/// Peak resident set of this process (children excluded), MiB.
double peakRssMiB();

/// Fresh empty directory \p Path (removed first if present).
void freshDir(const std::string &Path);

//===--- The seismic update -----------------------------------------------===//

/// The Gordon Bell update as one statement: the radius-2 nine-point cross
/// with scalar coefficients (EOSHIFT, as examples/seismic.cpp) minus the
/// bare UPREV term, which the front end binds as a coefficient array of a
/// data-less tap (18 useful flops per point).
std::string seismicStatement();

/// The seeded initial field \p Which (0 = U, 1 = UPREV) of a run with
/// workload seed \p Seed: values in [-1, 1], a dense field, so no
/// denormals appear as the wave evolves.
cmcc::Array2D seededField(int Rows, int Cols, uint64_t Seed, int Which);

/// True when \p Got is within 1 ulp per term of the reference evaluation
/// of \p Spec over source \p U with UPREV bound to \p UPrev.
bool withinUlpContract(const cmcc::StencilSpec &Spec, const cmcc::Array2D &U,
                       const cmcc::Array2D &UPrev, const cmcc::Array2D &Got);

bool bitwiseEqual(const cmcc::Array2D &A, const cmcc::Array2D &B);

} // namespace perfbench

#endif // CMCC_PERFBENCH_COMMON_H
