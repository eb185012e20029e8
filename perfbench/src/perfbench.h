//===- perfbench.h - Shared pieces of the repository benchmark ------------===//
//
// The benchmark drives the engine only through its public calls (Engine,
// ScriptServer, compileSource, analyzeScript, Engine::stats(),
// JitEventListener). Every workload fills one Report: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced run.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/options.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}
inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Deterministic generator (splitmix64): the same seed draws the same
/// inputs on every platform, unlike the <random> distributions.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint32_t below(uint32_t N) { return (uint32_t)(next() % N); }
  /// Uniform in [Lo, Hi].
  int range(int Lo, int Hi) { return Lo + (int)below((uint32_t)(Hi - Lo + 1)); }

private:
  uint64_t State;
};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ProgramDir = "perfbench/programs";
  /// Self-test fault: "mismatch" corrupts one input's reference output,
  /// "error" gives the measured engines a 1-byte heap quota, so evals that
  /// allocate end in OutOfMemory.
  /// Either must surface as failed operations, never as a clean run.
  std::string Inject;
};

/// Everything one run prints: the result line and any notes before it.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  /// Names of per-layer metrics that must repeat exactly across runs and
  /// seeds of this workload (the exact-repeat check).
  std::vector<std::string> Deterministic;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Count one checked operation; prints the first few failures.
  void check(bool Ok, const std::string &What, const std::string &Detail);
};

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 1].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
/// A / B, or 0 when B is 0 (a layer the workload never reaches).
inline double ratio(double A, double B) { return B != 0 ? A / B : 0; }

std::string readFile(const std::string &Path);
double peakRssMb();

/// The independent reference: the interpreter with the JIT off.
tracejit::EngineOptions referenceOptions();

/// Runs `Count` set-ups and returns the median duration in seconds; the
/// last set-up's state is the one the caller keeps.
template <typename F> double timedSetups(int Count, F &&SetUp) {
  std::vector<double> Seconds;
  for (int I = 0; I < Count; ++I) {
    auto T0 = Clock::now();
    SetUp();
    Seconds.push_back(secondsSince(T0));
  }
  return median(Seconds);
}

/// Set-ups per run; setup_s is their median.
constexpr int SetupRepeats = 3;

/// Workloads: suite-trace, suite-interp, tier-hostile (batch.cpp) and
/// serve-churn (serve.cpp). Return false on a set-up failure.
bool runBatch(const Args &A, Report &R);
bool runServe(const Args &A, Report &R);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
