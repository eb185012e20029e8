//===- main.cpp - Repository benchmark program ----------------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--programs <dir>] [--inject mismatch|error]
//
// Prints notes, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. perfbench/run.py builds this program and checks the
// metric set against BENCHMARK.json. Exit code 1 means the run could not
// be set up (unknown workload, unreadable inputs, an input the reference
// interpreter rejects) and no result line is printed.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>

#include "perfbench.h"

namespace perfbench {

void Report::check(bool Ok, const std::string &What,
                   const std::string &Detail) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    fprintf(stderr, "perfbench: %s failed: %s\n", What.c_str(),
            Detail.c_str());
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = (size_t)std::ceil(P * (double)V.size());
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / (double)V.size());
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

tracejit::EngineOptions referenceOptions() {
  tracejit::EngineOptions O;
  O.EnableJit = false;
  return O;
}

} // namespace perfbench

using namespace perfbench;

static bool parseArgs(int argc, char **argv, Args &A) {
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *K = argv[I], *V = argv[I + 1];
    if (!strcmp(K, "--workload"))
      A.Workload = V;
    else if (!strcmp(K, "--seed"))
      A.Seed = strtoull(V, nullptr, 10);
    else if (!strcmp(K, "--seconds"))
      A.Seconds = atof(V);
    else if (!strcmp(K, "--trace"))
      A.Trace = !strcmp(V, "1");
    else if (!strcmp(K, "--programs"))
      A.ProgramDir = V;
    else if (!strcmp(K, "--inject"))
      A.Inject = V;
    else
      return false;
  }
  return argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0 &&
         (A.Inject.empty() || A.Inject == "mismatch" || A.Inject == "error");
}

int main(int argc, char **argv) {
  Args A;
  if (!parseArgs(argc, argv, A)) {
    fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                    "--seconds <s> --trace <0|1> [--programs <dir>] "
                    "[--inject mismatch|error]\n");
    return 1;
  }
  Report R;
  bool SetUp = false;
  try {
    if (A.Workload == "serve-churn")
      SetUp = runServe(A, R);
    else
      SetUp = runBatch(A, R);
  } catch (const std::exception &E) {
    fprintf(stderr, "perfbench: %s\n", E.what());
    SetUp = false;
  }
  if (!SetUp)
    return 1;
  if (A.Trace)
    R.set("fail_rate", ratio((double)R.Failed, (double)R.Attempted), "ratio");

  if (A.Trace) {
    printf("{\"deterministic\": [");
    const char *Sep = "";
    for (const std::string &Name : R.Deterministic) {
      printf("%s\"%s\"", Sep, Name.c_str());
      Sep = ", ";
    }
    printf("]}\n");
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {",
         R.Failed == 0 ? "true" : "false", (unsigned long long)R.Attempted,
         (unsigned long long)R.Failed);
  const char *Sep = "";
  for (const auto &[Name, VU] : R.Metrics) {
    double V = std::isfinite(VU.first) ? VU.first : 0;
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Sep,
           Name.c_str(), V, VU.second.c_str());
    Sep = ", ";
  }
  printf("}}\n");
  return 0;
}
