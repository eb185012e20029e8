//===- layers.cpp - Per-layer metrics of the traced run -------------------===//

#include "layers.h"

#include <algorithm>

#include "analysis/analysis.h"
#include "api/engine.h"
#include "frontend/parser.h"

using namespace tracejit;

namespace perfbench {

LayerSample LayerSample::of(const VMStats &S, uint64_t NativeBytes) {
  LayerSample L;
  auto &C = L.Counts;
  C[Counter::BytecodesInterpreted] = S.BytecodesInterpreted;
  C[Counter::BytecodesRecorded] = S.BytecodesRecorded;
  C[Counter::BytecodesNative] = S.BytecodesNative;
  C[Counter::TracesStarted] = S.TracesStarted;
  C[Counter::TracesCompleted] = S.TracesCompleted;
  C[Counter::TracesAborted] = S.TracesAborted;
  C[Counter::SideExits] = S.SideExits;
  C[Counter::GCs] = S.GCs;
  C[Counter::LoopsPromoted] = S.LoopsPromoted;
  C[Counter::LirRecorded] = S.LirEmitted;
  C[Counter::LirAfterForward] = S.LirAfterForwardFilters;
  C[Counter::LirAfterBackward] = S.LirAfterBackwardFilters;
  C[Counter::GuardsEliminated] = S.GuardsEliminated;
  C[Counter::InsHoisted] = S.InsHoisted;
  C[Counter::LirInsVerified] = S.LirInsVerified;
  C[Counter::NativeBytes] = NativeBytes;
  C[Counter::TreesCompiled] = S.TreesCompiled;
  C[Counter::BranchesCompiled] = S.BranchesCompiled;
  C[Counter::JobsQueued] = S.CompileJobsQueued;
  C[Counter::JobsDropped] = S.CompileJobsDropped;
  C[Counter::CacheFlushes] = S.CacheFlushes;
  C[Counter::MethodCompiles] = S.MethodCompiles;
  C[Counter::MethodEnters] = S.MethodEnters;
  C[Counter::StaticGuardsElided] = S.StaticGuardsElided;
  L.Seconds = S.ActivitySeconds;
  return L;
}

LayerSample &LayerSample::operator+=(const LayerSample &O) {
  for (size_t I = 0; I < NumCounters; ++I)
    Counts[I] += O.Counts[I];
  for (size_t I = 0; I < NumActivities; ++I)
    Seconds[I] += O.Seconds[I];
  return *this;
}

void reportLayers(Report &R, const LayerSample &Sum, double Evals) {
  const auto &C = Sum.Counts;
  auto Count = [&](Counter K) { return ratio((double)C[K], Evals); };
  auto Secs = [&](Activity A) { return ratio(Sum.Seconds[(size_t)A], Evals); };

  double InterpS = Secs(Activity::Interpret);
  R.set("interp.s", InterpS, "s");
  R.set("interp.bytecodes", Count(BytecodesInterpreted), "count");
  R.set("interp.ns_per_bytecode",
        ratio(InterpS * 1e9, Count(BytecodesInterpreted)), "ns");
  R.set("vm.gcs", Count(GCs), "count");

  R.set("trace.monitor_s", Secs(Activity::Monitor), "s");
  R.set("trace.record_s", Secs(Activity::RecordInterpret), "s");
  R.set("trace.traces_started", Count(TracesStarted), "count");
  R.set("trace.record_success",
        ratio((double)C[TracesCompleted], (double)C[TracesStarted]), "ratio");
  R.set("trace.aborts", Count(TracesAborted), "count");
  R.set("trace.bytecodes_recorded", Count(BytecodesRecorded), "count");
  R.set("trace.exit_s", Secs(Activity::ExitOverhead), "s");
  R.set("trace.side_exits", Count(SideExits), "count");
  R.set("trace.native_share",
        ratio((double)C[BytecodesNative],
              (double)(C[BytecodesNative] + C[BytecodesInterpreted])),
        "ratio");
  R.set("trace.loops_promoted", Count(LoopsPromoted), "count");

  R.set("lir.ins_recorded", Count(LirRecorded), "count");
  R.set("lir.ins_after_forward", Count(LirAfterForward), "count");
  R.set("lir.ins_after_backward", Count(LirAfterBackward), "count");
  R.set("lir.guards_eliminated", Count(GuardsEliminated), "count");
  R.set("lir.ins_hoisted", Count(InsHoisted), "count");
  R.set("lir.ins_verified", Count(LirInsVerified), "count");

  double CompileS = Secs(Activity::Compile);
  R.set("jit.compile_s", CompileS, "s");
  R.set("jit.compile_ns_per_lir_ins", ratio(CompileS * 1e9, Count(LirRecorded)),
        "ns");
  R.set("jit.native_s", Secs(Activity::Native), "s");
  R.set("jit.native_bytes", Count(NativeBytes), "bytes");
  R.set("jit.trees_compiled", Count(TreesCompiled), "count");
  R.set("jit.branches_compiled", Count(BranchesCompiled), "count");
  R.set("jit.jobs_queued", Count(JobsQueued), "count");
  R.set("jit.jobs_dropped_ratio",
        ratio((double)C[JobsDropped], (double)C[JobsQueued]), "ratio");
  R.set("jit.cache_flushes", Count(CacheFlushes), "count");
  R.set("jit.method_compiles", Count(MethodCompiles), "count");
  R.set("jit.method_enters", Count(MethodEnters), "count");

  R.set("analysis.guards_elided", Count(StaticGuardsElided), "count");
}

// --- Spans -----------------------------------------------------------------

static uint64_t loopKey(const JitEvent &E) {
  return (uint64_t)E.ScriptId << 32 | E.Pc;
}

void SpanListener::open(Kind K, uint64_t Key, Clock::time_point Now) {
  Stack.push_back({K, Key, Now});
}

void SpanListener::close(Kind K, uint64_t Key, Clock::time_point Now) {
  auto It = std::find_if(Stack.rbegin(), Stack.rend(), [&](const Open &O) {
    return O.K == K && O.Key == Key;
  });
  if (It == Stack.rend())
    return;
  size_t I = Stack.size() - 1 - (size_t)(It - Stack.rbegin());
  double Us = std::chrono::duration<double, std::micro>(Now - Stack[I].Start)
                  .count();
  double SelfUs = Us - Stack[I].ChildUs;
  (K == Kind::Record ? RecordSelfUs : MethodSelfUs).push_back(SelfUs);
  if (I > 0)
    Stack[I - 1].ChildUs += Us;
  Stack.erase(Stack.begin() + (ptrdiff_t)I);
}

void SpanListener::published(uint32_t FragmentId, Clock::time_point Now) {
  auto It = Queued.find(FragmentId);
  if (It == Queued.end())
    return;
  PublishWaitUs.push_back(
      std::chrono::duration<double, std::micro>(Now - It->second).count());
  Queued.erase(It);
}

void SpanListener::onEvent(const JitEvent &E) {
  Clock::time_point Now = Clock::now();
  switch (E.Kind) {
  case JitEventKind::RecordStart:
    open(Kind::Record, E.FragmentId, Now);
    break;
  case JitEventKind::CompileJobQueued:
    close(Kind::Record, E.FragmentId, Now);
    Queued[E.FragmentId] = Now;
    break;
  case JitEventKind::TreeCompiled:
  case JitEventKind::BranchCompiled:
  case JitEventKind::RecordAbort:
    NativeBytes += E.Kind == JitEventKind::RecordAbort ? 0 : E.Arg1;
    close(Kind::Record, E.FragmentId, Now);
    published(E.FragmentId, Now);
    break;
  case JitEventKind::CompileJobDropped:
    published(E.FragmentId, Now);
    break;
  case JitEventKind::TierPromoted:
    open(Kind::Method, loopKey(E), Now);
    break;
  case JitEventKind::MethodCompiled:
    NativeBytes += E.Arg1;
    close(Kind::Method, loopKey(E), Now);
    published(E.FragmentId, Now);
    break;
  default:
    break;
  }
}

void SpanListener::endEngine() {
  Stack.clear();
  Queued.clear();
}

void reportSpans(Report &R, const SpanListener &L) {
  R.set("trace.record_span_us", median(L.RecordSelfUs), "us");
  R.set("trace.record_span_p99_us", percentile(L.RecordSelfUs, 0.99), "us");
  R.set("trace.method_span_us", median(L.MethodSelfUs), "us");
  R.set("jit.publish_wait_us", median(L.PublishWaitUs), "us");
}

// --- Direct probes ---------------------------------------------------------

void probeFrontend(Report &R, const std::vector<std::string> &Sources,
                   int Reps) {
  double CompileUs = 0, AnalyzeUs = 0, Facts = 0;
  for (const std::string &Src : Sources) {
    std::vector<double> C, A;
    uint64_t SourceFacts = 0;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      Engine E(referenceOptions());
      VMContext &Ctx = E.context();
      size_t First = Ctx.Scripts.size();
      EngineError Err;
      auto T0 = Clock::now();
      FunctionScript *Top = compileSource(Ctx, Src, &Err);
      C.push_back(msSince(T0) * 1e3);
      if (!Top)
        continue; // the reference set-up already rejected such inputs
      T0 = Clock::now();
      SourceFacts = 0;
      for (size_t I = First; I < Ctx.Scripts.size(); ++I)
        SourceFacts +=
            analyzeScript(*Ctx.Scripts[I], (uint32_t)Ctx.Globals.size())
                ->factCount();
      A.push_back(msSince(T0) * 1e3);
    }
    CompileUs += median(C);
    AnalyzeUs += median(A);
    Facts += (double)SourceFacts;
  }
  double N = (double)Sources.size();
  R.set("frontend.compile_us", ratio(CompileUs, N), "us");
  R.set("analysis.analyze_us", ratio(AnalyzeUs, N), "us");
  R.set("analysis.facts", ratio(Facts, N), "count");
}

void probeEngineNew(Report &R, const EngineOptions &O, int Reps) {
  std::vector<double> Us;
  for (int I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    Engine E(O);
    Us.push_back(msSince(T0) * 1e3);
  }
  R.set("api.engine_new_us", median(Us), "us");
}

} // namespace perfbench
