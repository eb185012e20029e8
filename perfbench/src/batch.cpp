//===- batch.cpp - suite-trace, suite-interp and tier-hostile -------------===//
//
// Batch workloads: each program runs on a fresh Engine, in rounds that
// visit every program once in an order drawn from the seed. An eval's
// wall time covers the engine's construction and the eval itself.
//
//   suite-trace   the SunSpider subset, default options (--tier=trace);
//   suite-interp  the same programs with the JIT off;
//   tier-hostile  the trace-hostile kernels under --tier=hybrid.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "api/engine.h"
#include "layers.h"
#include "perfbench.h"

using namespace tracejit;

namespace perfbench {
namespace {

struct Program {
  std::string Name;
  std::string Source;
  std::string Expected; ///< Output of the reference interpreter.
};

bool workloadConfig(const std::string &Name, std::string &Dir,
                    EngineOptions &O) {
  O = EngineOptions();
  O.Tier = TierMode::Trace; // pinned: TRACEJIT_TIER must not move the default
  if (Name == "suite-trace") {
    Dir = "suite";
  } else if (Name == "suite-interp") {
    Dir = "suite";
    O.EnableJit = false;
  } else if (Name == "tier-hostile") {
    Dir = "hostile";
    O.Tier = TierMode::Hybrid;
  } else {
    return false;
  }
  return true;
}

/// The workload's programs, sorted by name, with reference outputs.
std::vector<Program> loadPrograms(const std::string &Dir) {
  std::vector<Program> Ps;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".js")
      Ps.push_back({Entry.path().stem().string(),
                    readFile(Entry.path().string()), ""});
  if (Ps.empty())
    throw std::runtime_error("no programs in " + Dir);
  std::sort(Ps.begin(), Ps.end(),
            [](const Program &A, const Program &B) { return A.Name < B.Name; });
  for (Program &P : Ps) {
    Engine E(referenceOptions());
    E.setPrintHook([&P](const std::string &S) { P.Expected += S; });
    EvalResult Res = E.eval(P.Source);
    if (!Res.ok())
      throw std::runtime_error("reference interpreter rejects " + P.Name +
                               ": " + Res.Err.describe());
  }
  return Ps;
}

/// Runs \p P on a fresh engine and checks its output against the
/// reference. Returns the wall time of construction plus eval in ms. With
/// \p Spans, the listener observes the eval and \p Layers gets its figures.
double evalFresh(const Program &P, const EngineOptions &O, Report &R,
                 SpanListener *Spans = nullptr,
                 LayerSample *Layers = nullptr) {
  std::string Out;
  auto T0 = Clock::now();
  Engine E(O);
  E.setPrintHook([&Out](const std::string &S) { Out += S; });
  if (Spans)
    E.addEventListener(Spans);
  EvalResult Res = E.eval(P.Source);
  double Ms = msSince(T0);
  if (Spans) {
    E.removeEventListener(Spans);
    if (Layers)
      *Layers = LayerSample::of(E.stats(), Spans->NativeBytes);
    Spans->NativeBytes = 0;
    Spans->endEngine();
  }
  R.check(Res.ok() && Out == P.Expected, P.Name,
          Res.ok() ? "output '" + Out + "' != reference '" + P.Expected + "'"
                   : Res.Err.describe());
  return Ms;
}

std::vector<double> medians(const std::vector<std::vector<double>> &Samples) {
  std::vector<double> M;
  for (const auto &S : Samples)
    M.push_back(median(S));
  return M;
}

} // namespace

bool runBatch(const Args &A, Report &R) {
  std::string Dir;
  EngineOptions O;
  if (!workloadConfig(A.Workload, Dir, O)) {
    fprintf(stderr, "perfbench: unknown workload '%s'\n", A.Workload.c_str());
    return false;
  }
  if (A.Inject == "error")
    O.MaxHeapBytes = 1;

  std::vector<Program> Ps;
  double SetupS = timedSetups(SetupRepeats, [&] {
    Ps = loadPrograms(A.ProgramDir + "/" + Dir);
    if (A.Inject == "mismatch")
      Ps[0].Expected += "(corrupted)";
  });

  const size_t N = Ps.size();
  Rng Order(A.Seed);
  std::vector<size_t> Perm(N);
  std::iota(Perm.begin(), Perm.end(), 0);
  auto shuffle = [&] {
    for (size_t I = N - 1; I > 0; --I)
      std::swap(Perm[I], Perm[Order.below((uint32_t)I + 1)]);
  };

  if (!A.Trace) {
    std::vector<std::vector<double>> Ms(N);
    std::vector<double> All;
    auto T0 = Clock::now();
    do {
      shuffle();
      for (size_t I : Perm) {
        Ms[I].push_back(evalFresh(Ps[I], O, R));
        All.push_back(Ms[I].back());
      }
    } while (secondsSince(T0) < A.Seconds);
    double Elapsed = secondsSince(T0);
    R.set("eval_ms", geomean(medians(Ms)), "ms");
    R.set("req_per_s", (double)All.size() / Elapsed, "1/s");
    R.set("req_p50_ms", percentile(All, 0.5), "ms");
    R.set("req_p99_ms", percentile(All, 0.99), "ms");
    R.set("setup_s", SetupS, "s");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    return true;
  }

  probeEngineNew(R, O, 50);
  std::vector<std::string> Sources;
  for (const Program &P : Ps)
    Sources.push_back(P.Source);
  probeFrontend(R, Sources, 5);

  // Untraced and traced rounds alternate, so the difference between them
  // is the tracing overhead and host drift hits both sides alike.
  EngineOptions TracedO = O;
  TracedO.CollectStats = true;
  SpanListener Spans;
  std::vector<std::vector<double>> Plain(N), Traced(N);
  std::vector<std::vector<LayerSample>> Layers(N);
  double Seconds[2] = {0, 0};
  size_t Evals[2] = {0, 0};
  auto T0 = Clock::now();
  for (int Round = 0;; ++Round) {
    bool Tr = Round % 2 == 1;
    shuffle();
    auto RoundT0 = Clock::now();
    for (size_t I : Perm) {
      if (Tr) {
        LayerSample L;
        Traced[I].push_back(evalFresh(Ps[I], TracedO, R, &Spans, &L));
        Layers[I].push_back(L);
      } else {
        Plain[I].push_back(evalFresh(Ps[I], O, R));
      }
    }
    Seconds[Tr] += secondsSince(RoundT0);
    Evals[Tr] += N;
    if (Tr && secondsSince(T0) >= A.Seconds)
      break;
  }

  // Counts come from each program's first traced eval; every later eval
  // of the program must repeat them exactly. Times are per-program medians.
  LayerSample Sum;
  uint64_t Mismatches = 0;
  for (size_t I = 0; I < N; ++I) {
    LayerSample Rep = Layers[I][0];
    for (const LayerSample &L : Layers[I])
      Mismatches += L.Counts != Rep.Counts;
    for (size_t K = 0; K < NumActivities; ++K) {
      std::vector<double> S;
      for (const LayerSample &L : Layers[I])
        S.push_back(L.Seconds[K]);
      Rep.Seconds[K] = median(S);
    }
    Sum += Rep;
    R.set(Ps[I].Name + ".eval_ms", median(Plain[I]), "ms");
  }
  reportLayers(R, Sum, (double)N);
  reportSpans(R, Spans);
  R.set("repeat.mismatches", (double)Mismatches, "count");
  R.set("overhead.eval_ms",
        geomean(medians(Traced)) - geomean(medians(Plain)), "ms");
  R.set("overhead.req_per_s",
        (double)Evals[1] / Seconds[1] - (double)Evals[0] / Seconds[0], "1/s");

  // Work counts, and ratios and sizes made of them, must repeat exactly
  // from run to run and seed to seed; times need not.
  for (const auto &[Name, ValueUnit] : R.Metrics)
    if (ValueUnit.second == "count" || ValueUnit.second == "ratio" ||
        ValueUnit.second == "bytes")
      R.Deterministic.push_back(Name);
  return true;
}

} // namespace perfbench
