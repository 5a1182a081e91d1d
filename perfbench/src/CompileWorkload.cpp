//===- perfbench/src/CompileWorkload.cpp - Seeded random stencils ---------===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `compile` workload: cm2 timing-only jobs (no arrays) from a seeded
/// stream of random stencils (radius <= 2, 3-13 taps, scalar or array
/// coefficients, CSHIFT or EOSHIFT), written as Fortran assignments,
/// SUBROUTINEs and Lisp defstencils. The front end and core do the work;
/// the runtime and host backends do none.
///
/// The stream runs in rounds. Each round starts a fresh service and
/// serves 88 distinct stencils, two of each of the 44 classes (tap count,
/// coefficient kind, shift kind), three times each: a first sighting (a
/// plan-cache miss and a compile), a repeat of the same text (a
/// source-memo hit), and a repeat in another form (a front end run and a
/// plan-cache memory hit). So a third of the jobs are
/// first sightings: job_p50_ms falls in the middle of the repeat modes
/// and job_p90_ms at the 70th percentile of the first-sighting mode,
/// never at a boundary between modes.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "backends/Registry.h"
#include "core/PlanFingerprint.h"
#include "core/ScheduleIO.h"
#include "fortran/Parser.h"
#include "obs/Trace.h"
#include "sexpr/DefStencil.h"
#include "stencil/PatternLibrary.h"
#include "stencil/Recognizer.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include <algorithm>
#include <memory>

using namespace cmcc;

namespace perfbench {

namespace {

using JobResult = StencilService::JobResult;

/// Timing-only jobs price this subgrid on the 4x4 machine.
constexpr int JobSub = 64;

/// One random stencil, renderable in all three source forms.
struct RandomStencil {
  std::vector<Offset> Taps;
  /// Per tap: a coefficient array name ("C3") or a scalar literal.
  std::vector<std::string> Coeffs;
  bool ArrayCoeffs = false;
  bool EndOff = false; ///< EOSHIFT rather than CSHIFT.
};

/// The shape of a random stencil that sets most of its compile, load and
/// store cost. Every round holds the same number of each class.
struct StencilClass {
  int Taps = 3;
  bool ArrayCoeffs = false;
  bool EndOff = false;
};

/// One class per (tap count 3-13, coefficient kind, shift kind).
constexpr int ClassCount = 11 * 2 * 2;

/// Restarts timed after each cold start (see runCompile).
constexpr int RestartsPerStart = 3;

StencilClass stencilClass(int I) {
  return {3 + I % 11, (I / 11) % 2 == 1, (I / 22) % 2 == 1};
}

RandomStencil randomStencil(SplitMix64 &Rng, const StencilClass &C) {
  RandomStencil S;
  std::vector<Offset> All;
  for (int Dy = -2; Dy <= 2; ++Dy)
    for (int Dx = -2; Dx <= 2; ++Dx)
      All.push_back({Dy, Dx});
  // Partial Fisher-Yates: the first Taps offsets are a uniform sample.
  for (int I = 0; I != C.Taps; ++I)
    std::swap(All[I], All[I + Rng.next() % (All.size() - I)]);
  S.Taps.assign(All.begin(), All.begin() + C.Taps);
  S.ArrayCoeffs = C.ArrayCoeffs;
  S.EndOff = C.EndOff;
  for (int I = 0; I != C.Taps; ++I) {
    if (S.ArrayCoeffs) {
      S.Coeffs.push_back("C" + std::to_string(I + 1));
      continue;
    }
    // A nonzero four-decimal literal in (-1, 1).
    long Ten4 = 1 + static_cast<long>(Rng.next() % 9999);
    S.Coeffs.push_back((Rng.next() % 2 ? "-" : "") +
                       formatFixed(static_cast<double>(Ten4) / 1e4, 4));
  }
  return S;
}

/// The three forms a job can carry.
enum class Form { Assignment, Subroutine, DefStencil };

std::string shiftFortran(const RandomStencil &S, Offset O) {
  const char *Fn = S.EndOff ? "EOSHIFT" : "CSHIFT";
  std::string E = "X";
  if (O.Dy)
    E = std::string(Fn) + "(" + E + ", 1, " + std::to_string(O.Dy) + ")";
  if (O.Dx)
    E = std::string(Fn) + "(" + E + ", 2, " + std::to_string(O.Dx) + ")";
  return E;
}

std::string assignmentText(const RandomStencil &S) {
  std::string T = "R = ";
  for (size_t I = 0; I != S.Taps.size(); ++I)
    T += (I ? " + " : "") + S.Coeffs[I] + " * " + shiftFortran(S, S.Taps[I]);
  return T;
}

std::string subroutineText(const RandomStencil &S, int Id) {
  std::string Params = "R, X";
  if (S.ArrayCoeffs)
    for (const std::string &C : S.Coeffs)
      Params += ", " + C;
  return "      SUBROUTINE S" + std::to_string(Id) + " (" + Params + ")\n" +
         "      REAL, ARRAY(:,:) :: " + Params + "\n" + "      " +
         assignmentText(S) + "\n      END\n";
}

std::string defStencilText(const RandomStencil &S, int Id) {
  const char *Fn = S.EndOff ? "eoshift" : "cshift";
  std::string Params = "r x";
  std::string Sum;
  for (size_t I = 0; I != S.Taps.size(); ++I) {
    std::string E = "x";
    if (S.Taps[I].Dy)
      E = std::string("(") + Fn + " " + E + " 1 " +
          std::to_string(S.Taps[I].Dy) + ")";
    if (S.Taps[I].Dx)
      E = std::string("(") + Fn + " " + E + " 2 " +
          std::to_string(S.Taps[I].Dx) + ")";
    std::string C = S.Coeffs[I];
    if (S.ArrayCoeffs) {
      std::transform(C.begin(), C.end(), C.begin(), ::tolower);
      Params += " " + C;
    }
    Sum += " (* " + C + " " + E + ")";
  }
  return "(defstencil s" + std::to_string(Id) + " (" + Params +
         ")\n  (single-float single-float)\n  (:= r (+" + Sum + ")))\n";
}

struct Job {
  StencilService::SourceKind Kind;
  std::string Text;
  int Stencil; ///< Index into the round's stencils.
  bool First;  ///< The stencil's first sighting in this round.
};

StencilService::SourceKind kindOf(Form F) {
  switch (F) {
  case Form::Assignment:
    return StencilService::SourceKind::FortranAssignment;
  case Form::Subroutine:
    return StencilService::SourceKind::FortranSubroutine;
  case Form::DefStencil:
    return StencilService::SourceKind::DefStencil;
  }
  return StencilService::SourceKind::FortranAssignment;
}

std::string render(const RandomStencil &S, Form F, int Id) {
  switch (F) {
  case Form::Assignment:
    return assignmentText(S);
  case Form::Subroutine:
    return subroutineText(S, Id);
  case Form::DefStencil:
    return defStencilText(S, Id);
  }
  return std::string();
}

/// One round: its distinct stencils and the job stream over them.
struct Round {
  std::vector<RandomStencil> Stencils;
  std::vector<Job> Jobs;
};

Round makeRound(SplitMix64 &Rng, int Distinct) {
  // Stratified: every class the same number of times (when Distinct is
  // a multiple of ClassCount), in seeded order, so the seed moves the
  // offsets and coefficients but not what a round costs.
  std::vector<int> Classes;
  for (int I = 0; I != Distinct; ++I)
    Classes.push_back(I % ClassCount);
  for (int I = Distinct - 1; I > 0; --I)
    std::swap(Classes[I], Classes[Rng.next() % (I + 1)]);
  Round R;
  std::vector<Form> FirstForm, OtherForm;
  for (int I = 0; I != Distinct; ++I) {
    R.Stencils.push_back(randomStencil(Rng, stencilClass(Classes[I])));
    Form F = static_cast<Form>(Rng.next() % 3);
    FirstForm.push_back(F);
    OtherForm.push_back(static_cast<Form>(
        (static_cast<int>(F) + 1 + static_cast<int>(Rng.next() % 2)) % 3));
  }
  auto Emit = [&](int I, Form F, bool First) {
    R.Jobs.push_back(
        {kindOf(F), render(R.Stencils[I], F, I), I, First});
  };
  // Stencil I is first seen at step I, repeated verbatim at step I + 1
  // and in another form at step I + 2.
  for (int Step = 0; Step != Distinct + 2; ++Step) {
    if (Step < Distinct)
      Emit(Step, FirstForm[Step], true);
    if (Step >= 1 && Step - 1 < Distinct)
      Emit(Step - 1, FirstForm[Step - 1], false);
    if (Step >= 2)
      Emit(Step - 2, OtherForm[Step - 2], false);
  }
  return R;
}

/// Submits one timing-only job and waits for it.
JobResult runJob(StencilService &S, const Job &J, double &LatencyMs,
                 StencilService::JobId &Id) {
  StencilService::JobRequest Req;
  Req.Kind = J.Kind;
  Req.Source = J.Text;
  Req.SubRows = JobSub;
  Req.SubCols = JobSub;
  const Clock::time_point T0 = Clock::now();
  Id = S.submit(std::move(Req));
  JobResult Res = S.wait(Id);
  LatencyMs = secondsSince(T0) * 1e3;
  return Res;
}

bool sameCycles(const CycleBreakdown &A, const CycleBreakdown &B) {
  return A.Compute == B.Compute && A.PipeReversal == B.PipeReversal &&
         A.LineOverhead == B.LineOverhead && A.StripStartup == B.StripStartup &&
         A.Communication == B.Communication;
}

/// A service serving one round, with each stencil's first-sighting
/// cycles (repeats and restarts must reproduce them exactly).
class RoundRig {
public:
  RoundRig(const MachineConfig &M, const CacheDirs &Dirs, const Round &R)
      : TheRound(R), Cycles(R.Stencils.size()),
        Service(std::make_unique<StencilService>(
            M, serviceOptions("cm2", 1, Dirs))) {}

  bool done() const { return Next == TheRound.Jobs.size(); }

  /// Serves the round's next job; false when it failed or its cycles
  /// differ from its stencil's first sighting.
  bool step(double &LatencyMs, JobResult &Res, StencilService::JobId &Id) {
    const Job &J = TheRound.Jobs[Next++];
    Res = runJob(*Service, J, LatencyMs, Id);
    if (!jobOk(Res))
      return false;
    CycleBreakdown &Want = Cycles[static_cast<size_t>(J.Stencil)];
    if (J.First)
      Want = Res.Report.Cycles;
    return sameCycles(Want, Res.Report.Cycles);
  }

  const std::vector<CycleBreakdown> &cycles() const { return Cycles; }
  StencilService &service() { return *Service; }

private:
  const Round &TheRound;
  std::vector<CycleBreakdown> Cycles;
  std::unique_ptr<StencilService> Service;
  size_t Next = 0;
};

//===--- The §7 tripwire --------------------------------------------------===//

/// A paper row and its simulated cycles (Cycles.total() of a cm2
/// timeOnly run of Iterations iterations), as recorded when this
/// benchmark was written. Simulated cycles are paper numbers and must
/// stay bit-for-bit unchanged.
struct PaperCycles {
  PatternId Pattern;
  int SubRows, SubCols, Nodes, Iterations;
  long Cycles;
};

const PaperCycles RecordedPaperCycles[] = {
    {PatternId::Cross5, 64, 128, 16, 250, 113818},
    {PatternId::Cross5, 128, 256, 16, 100, 446106},
    {PatternId::Cross5, 256, 256, 16, 100, 883546},
    {PatternId::Square9, 64, 64, 16, 500, 83506},
    {PatternId::Square9, 64, 128, 16, 250, 166594},
    {PatternId::Square9, 128, 128, 16, 250, 328386},
    {PatternId::Square9, 128, 256, 16, 100, 656354},
    {PatternId::Square9, 256, 256, 16, 100, 1303522},
    {PatternId::Cross9R2, 64, 64, 16, 500, 97530},
    {PatternId::Cross9R2, 64, 128, 16, 250, 194682},
    {PatternId::Cross9R2, 128, 128, 16, 250, 380666},
    {PatternId::Cross9R2, 128, 256, 16, 100, 760954},
    {PatternId::Cross9R2, 256, 256, 16, 100, 1504762},
    {PatternId::Diamond13, 64, 64, 16, 500, 124146},
    {PatternId::Diamond13, 64, 128, 16, 250, 247730},
    {PatternId::Diamond13, 128, 128, 16, 250, 486130},
    {PatternId::Diamond13, 128, 256, 16, 100, 971698},
    {PatternId::Diamond13, 256, 256, 16, 100, 1925170},
    {PatternId::Diamond13, 128, 256, 2048, 100, 971698},
    {PatternId::Diamond13, 256, 256, 2048, 100, 1925170},
};

/// Compares every §7 row's simulated cycles with the recorded values.
void checkPaperRows(Tally &T) {
  for (const PaperCycles &Row : RecordedPaperCycles) {
    MachineConfig M = Row.Nodes == 16 ? MachineConfig::testMachine16()
                                      : MachineConfig::fullMachine2048();
    Expected<CompiledStencil> Plan =
        ConvolutionCompiler(M).compile(makePattern(Row.Pattern));
    std::unique_ptr<ExecutionBackend> Cm2 = createBackend("cm2", M);
    long Got = -1;
    if (Plan) {
      Expected<TimingReport> Rep =
          Cm2->timeOnly(*Plan, Row.SubRows, Row.SubCols, Row.Iterations);
      if (Rep)
        Got = Rep->Cycles.total();
    }
    T.check(Got == Row.Cycles,
            std::string("simulated cycles of paper row ") +
                patternName(Row.Pattern) + " " + std::to_string(Row.SubRows) +
                "x" + std::to_string(Row.SubCols) + " changed: " +
                std::to_string(Got) + " (recorded " +
                std::to_string(Row.Cycles) + ")");
  }
}

void addStats(ServiceStats &Sum, const ServiceStats &St) {
  Sum.JobsSubmitted += St.JobsSubmitted;
  Sum.SourceMemoHits += St.SourceMemoHits;
  Sum.CompilesPerformed += St.CompilesPerformed;
  Sum.CompileSecondsTotal += St.CompileSecondsTotal;
  Sum.Cache.Hits += St.Cache.Hits;
  Sum.Cache.Misses += St.Cache.Misses;
  Sum.Cache.DiskHits += St.Cache.DiskHits;
}

/// Median microseconds per stencil of \p Body over \p Stencils.
template <typename F>
double medianPerStencil(const std::vector<RandomStencil> &Stencils, F &&Body) {
  std::vector<double> Us;
  for (size_t I = 0; I != Stencils.size(); ++I) {
    const Clock::time_point T0 = Clock::now();
    Body(Stencils[I], static_cast<int>(I));
    Us.push_back(secondsSince(T0) * 1e6);
  }
  return median(Us);
}

/// frontend.*, core.*, cm2.* and the plan cache's disk write, timed by
/// calling each layer directly on one round's stencils.
void reportCompileLayers(Report &R, Tally &T, const MachineConfig &M,
                         const Round &Rd, const std::string &StoreDir) {
  R.layer("frontend.fortran_us",
          medianPerStencil(Rd.Stencils, [&](const RandomStencil &S, int) {
            DiagnosticEngine Diags;
            std::optional<fortran::AssignmentStmt> Stmt =
                fortran::Parser::assignmentFromSource(assignmentText(S), Diags);
            bool Ok = Stmt && Recognizer(Diags).recognize(*Stmt).has_value();
            T.check(Ok, "an assignment did not parse and recognize");
          }));
  R.layer("frontend.sexpr_us",
          medianPerStencil(Rd.Stencils, [&](const RandomStencil &S, int Id) {
            DiagnosticEngine Diags;
            T.check(sexpr::defStencilFromSource(defStencilText(S, Id), Diags)
                        .has_value(),
                    "a defstencil did not translate");
          }));
  ConvolutionCompiler CC(M);
  std::vector<StencilSpec> Specs;
  for (const RandomStencil &S : Rd.Stencils) {
    DiagnosticEngine Diags;
    std::optional<CompiledStencil> P = CC.compileAssignment(assignmentText(S),
                                                            Diags);
    T.check(P.has_value(), "a random stencil did not compile");
    if (!P)
      return;
    Specs.push_back(P->Spec);
  }
  std::vector<CompiledStencil> Plans;
  std::vector<double> CompileUs;
  for (const StencilSpec &Spec : Specs) {
    const Clock::time_point T0 = Clock::now();
    Expected<CompiledStencil> P = CC.compile(Spec);
    CompileUs.push_back(secondsSince(T0) * 1e6);
    if (!P)
      return;
    Plans.push_back(P.takeValue());
  }
  std::vector<double> StoreUs, LoadUs, TimeOnlyUs;
  PlanCache::Options StoreOpts;
  StoreOpts.DiskDir = StoreDir;
  PlanCache Store(M, StoreOpts);
  std::unique_ptr<ExecutionBackend> Cm2 = createBackend("cm2", M);
  for (const CompiledStencil &P : Plans) {
    Clock::time_point T0 = Clock::now();
    Store.insert(planFingerprint(P.Spec, M),
                 std::make_shared<const CompiledStencil>(P));
    StoreUs.push_back(secondsSince(T0) * 1e6);
    const std::string Text = writeCompiledStencil(P, M);
    T0 = Clock::now();
    Expected<CompiledStencil> Loaded = parseCompiledStencil(Text, M);
    LoadUs.push_back(secondsSince(T0) * 1e6);
    T.check(static_cast<bool>(Loaded), "a written plan did not load");
    T0 = Clock::now();
    Expected<TimingReport> Rep = Cm2->timeOnly(P, JobSub, JobSub, 1);
    TimeOnlyUs.push_back(secondsSince(T0) * 1e6);
    T.check(static_cast<bool>(Rep), "cm2 timeOnly failed");
  }
  R.layer("core.compile_us", median(CompileUs));
  R.layer("core.plan_load_us", median(LoadUs));
  R.layer("plancache.store_us", median(StoreUs));
  R.layer("cm2.time_only_us", median(TimeOnlyUs));
}

} // namespace

void runCompile(const RunConfig &Cfg, const Ceilings &, Report &R, Tally &T) {
  checkPaperRows(T);
  const MachineConfig M = MachineConfig::withNodeGrid(4, 4);
  const int Distinct = Cfg.Smoke ? 8 : 2 * ClassCount;
  MustBeZero Zero;

  // Set-up (to the first result) and restart (until every stencil of the
  // first round has been served once, from the disk tier). A restart
  // loads, re-verifies and rewrites 88 plans, and within one run single
  // restarts spread 0.4 of their median (disk writes varied 2.5x, the
  // rest 20%), so each cold start is followed by three restarts over the
  // disk tier it left; every restart finds the same plan files.
  std::vector<double> Setups, Restarts;
  ServiceStats RestartStats;
  auto StartPair = [&] {
    const CacheDirs Dirs =
        freshCacheDirs(Cfg, "start" + std::to_string(Setups.size()));
    std::vector<CycleBreakdown> Cold;
    settleDisk(Cfg);
    {
      const Clock::time_point T0 = Clock::now();
      SplitMix64 Rng(Cfg.Seed);
      const Round First = makeRound(Rng, Distinct);
      RoundRig Rig(M, Dirs, First);
      double Ms;
      JobResult Res;
      StencilService::JobId Id;
      bool Ok = Rig.step(Ms, Res, Id);
      Setups.push_back(secondsSince(T0));
      T.job(Ok, "first job of a cold start: " + Res.Message);
      while (!Rig.done()) {
        Ok = Rig.step(Ms, Res, Id);
        T.job(Ok, "cold-start round: " + Res.Message);
      }
      Cold = Rig.cycles();
      Zero.add(Rig.service().stats(), T);
    }
    for (int Again = 0; Again != RestartsPerStart; ++Again) {
      settleDisk(Cfg);
      const Clock::time_point T0 = Clock::now();
      SplitMix64 Rng(Cfg.Seed);
      const Round First = makeRound(Rng, Distinct);
      Round Once; // Each distinct stencil once, in its first form.
      for (const Job &J : First.Jobs)
        if (J.First)
          Once.Jobs.push_back(J);
      Once.Stencils = First.Stencils;
      RoundRig Rig(M, Dirs, Once);
      while (!Rig.done()) {
        double Ms;
        JobResult Res;
        StencilService::JobId Id;
        T.job(Rig.step(Ms, Res, Id), "restart: " + Res.Message);
      }
      Restarts.push_back(secondsSince(T0));
      for (size_t S = 0; S != Cold.size(); ++S)
        T.check(sameCycles(Cold[S], Rig.cycles()[S]),
                "a restarted plan's cm2 cycles differ from its cold compile");
      const ServiceStats St = Rig.service().stats();
      T.check(St.Cache.DiskHits == Distinct,
              "a restart did not load every plan from the disk tier");
      addStats(RestartStats, St);
      Zero.add(St, T);
    }
  };
  StartPair();

  // The timed phase: round after round, each on a fresh service (set up
  // and torn down with the clock paused) with no disk tier. A plan write
  // costs 40-700 us on a shared virtual disk, against 0.1 ms for the
  // compile itself: with it, job_p90_ms would time the host's storage,
  // not the compiler. The disk tier is timed by setup_s, restart_s and
  // plancache.store_us instead.
  SplitMix64 Rng(Cfg.Seed ^ 0x9e3779b97f4a7c15ull);
  int RoundNo = 0;
  Round Current;
  std::unique_ptr<RoundRig> Rig;
  JobDetail Detail;
  ServiceStats Served;
  bool Collect = false;
  auto Retire = [&] {
    if (!Rig)
      return;
    const ServiceStats St = Rig->service().stats();
    addStats(Served, St);
    Zero.add(St, T);
    Rig.reset();
  };
  auto NextRound = [&] {
    Retire();
    Current = makeRound(Rng, Distinct);
    ++RoundNo;
    Rig = std::make_unique<RoundRig>(M, CacheDirs(), Current);
  };
  StepFn Step = [&](ActiveClock &Clk, double &LatencyMs) {
    if (!Rig || Rig->done()) {
      Clk.pause();
      NextRound();
      Clk.resume();
    }
    JobResult Res;
    StencilService::JobId Id;
    const bool Ok = Rig->step(LatencyMs, Res, Id);
    if (Ok && Collect) {
      Clk.pause();
      Detail.record(Rig->service(), Id, Res.ExecuteSeconds,
                    Res.CompileSeconds);
      Clk.resume();
    }
    return Ok;
  };

  Collect = Cfg.Trace;
  const double Timed = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  const int MoreStarts = Cfg.Trace ? 0 : Cfg.setupRepeats() - 1;
  LoopStats L = runClosedLoop(Cfg.warmupSeconds(), Timed, T, Step, MoreStarts,
                              StartPair);
  Retire();
  const ServiceStats PhaseStats = Served;

  LoopStats Traced;
  if (Cfg.Trace) {
    Collect = false;
    obs::Trace::start(Cfg.Dir + "/trace.json");
    Traced = runClosedLoop(Cfg.warmupSeconds() / 4, Cfg.Seconds / 2, T, Step);
    obs::Trace::stop();
    Retire();
  }
  R.note(std::to_string(RoundNo) + " rounds of " +
         std::to_string(3 * Distinct) + " jobs (" + std::to_string(Distinct) +
         " first sightings each)");

  if (!Cfg.Trace) {
    reportStarts(R, Setups, Restarts);
    reportLoop(R, L);
    R.add("peak_rss_mb", peakRssMiB(), "MiB");
    return;
  }

  reportServiceLayers(R, PhaseStats, Detail, Zero);
  // Disk hits are what a restart does; the timed rounds never hit disk.
  R.layer("plancache.disk_hits",
          static_cast<double>(RestartStats.Cache.DiskHits) /
              static_cast<double>(Restarts.size()));
  R.layer("obs.trace_overhead_pct",
          (L.JobsPerSecond / Traced.JobsPerSecond - 1.0) * 100.0);
  reportCompileLayers(R, T, M, Current, Cfg.Dir + "/store");
}

} // namespace perfbench
