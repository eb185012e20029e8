//===- layers.h - Per-layer metrics of the traced run ---------------------===//
//
// The traced run turns on EngineOptions::CollectStats and attaches a
// benchmark-owned JitEventListener. This file maps what those report onto
// the benchmark's layers (api, frontend, analysis, interp, vm, trace, lir,
// jit) and measures the frontend and analysis calls directly.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench.h"
#include "support/events.h"
#include "support/stats.h"

namespace perfbench {

/// Work counters that a deterministic engine must repeat exactly when it
/// runs the same program again on a fresh engine.
enum Counter : size_t {
  BytecodesInterpreted,
  BytecodesRecorded,
  BytecodesNative,
  TracesStarted,
  TracesCompleted,
  TracesAborted,
  SideExits,
  GCs,
  LoopsPromoted,
  LirRecorded,
  LirAfterForward,
  LirAfterBackward,
  GuardsEliminated,
  InsHoisted,
  LirInsVerified,
  NativeBytes,
  TreesCompiled,
  BranchesCompiled,
  JobsQueued,
  JobsDropped,
  CacheFlushes,
  MethodCompiles,
  MethodEnters,
  StaticGuardsElided,
  NumCounters
};

constexpr size_t NumActivities = (size_t)tracejit::Activity::NumActivities;

/// One eval's (or a sum of evals') layer figures.
struct LayerSample {
  std::array<uint64_t, NumCounters> Counts{};
  std::array<double, NumActivities> Seconds{};

  static LayerSample of(const tracejit::VMStats &S, uint64_t NativeBytes);
  LayerSample &operator+=(const LayerSample &O);
};

/// Writes every layer metric derived from \p Sum, divided by \p Evals so
/// each reads "per eval" (per program run, or per request).
void reportLayers(Report &R, const LayerSample &Sum, double Evals);

/// Benchmark-owned event listener. Turns the engine's event pairs into
/// spans timed on the benchmark's clock:
///   record:  RecordStart -> TreeCompiled | BranchCompiled | RecordAbort |
///            CompileJobQueued (recording ends when the job is queued);
///   method:  TierPromoted -> MethodCompiled of the same loop;
///   publish: CompileJobQueued -> the job's publication or drop (how long
///            an off-thread compile takes to land).
/// Record and method spans nest; a span's self time is its duration minus
/// the time its direct children cover. Also sums the native code bytes
/// each compile reports.
class SpanListener final : public tracejit::JitEventListener {
public:
  void onEvent(const tracejit::JitEvent &E) override;
  /// Forget spans still open; call when the engine under observation goes
  /// away.
  void endEngine();

  std::vector<double> RecordSelfUs;
  std::vector<double> MethodSelfUs;
  std::vector<double> PublishWaitUs;
  uint64_t NativeBytes = 0;

private:
  enum class Kind { Record, Method };
  struct Open {
    Kind K;
    uint64_t Key;
    Clock::time_point Start;
    double ChildUs = 0;
  };
  void open(Kind K, uint64_t Key, Clock::time_point Now);
  void close(Kind K, uint64_t Key, Clock::time_point Now);
  void published(uint32_t FragmentId, Clock::time_point Now);

  std::vector<Open> Stack; ///< Open record/method spans, oldest first.
  std::unordered_map<uint32_t, Clock::time_point> Queued;
};

/// Writes the span metrics (median and p99 record self time, median method
/// self time, median publish wait).
void reportSpans(Report &R, const SpanListener &L);

/// Times compileSource and analyzeScript on each source, \p Reps times on a
/// fresh JIT-off engine, and reports the mean over sources of each
/// source's median (frontend.compile_us, analysis.analyze_us) and the mean
/// published analysis facts per source (analysis.facts).
void probeFrontend(Report &R, const std::vector<std::string> &Sources,
                   int Reps);

/// Times Engine construction with the workload's options (api.engine_new_us).
void probeEngineNew(Report &R, const tracejit::EngineOptions &O, int Reps);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
