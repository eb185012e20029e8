//===- micro_pipeline.cpp - Compiler-pipeline microbenchmarks --------------------------===//
//
// google-benchmark microbenchmarks for the machinery itself: LIR emission
// through the forward filter pipeline, backward filters, the x86-64
// assembler, and whole-trace compile latency ("to get good startup
// performance, the optimizations must run quickly", §5.1).
//
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "api/engine.h"
#include "jit/assembler_x64.h"
#include "jit/execmem.h"
#include "lir/backward.h"
#include "lir/filters.h"
#include "lir/lir.h"
#include "support/arena.h"

using namespace tracejit;

// Emit a synthetic trace-shaped stream: imports, arithmetic, stores.
static void emitSyntheticTrace(LirWriter &W, LIns *Tar, int Loads) {
  LIns *Acc = W.insImmI(0);
  for (int I = 0; I < Loads; ++I) {
    LIns *V = W.insLoad(LOp::LdI, Tar, I * 8);
    Acc = W.ins2(LOp::AddI, Acc, V);
    W.insStore(LOp::StI, Acc, Tar, (I % 7) * 8);
  }
  W.insStore(LOp::StI, Acc, Tar, 0);
}

static void BM_LirEmission_Raw(benchmark::State &State) {
  for (auto _ : State) {
    Arena A;
    LirBuffer Buf(A);
    LIns *Tar = Buf.ins0(LOp::ParamTar);
    emitSyntheticTrace(Buf, Tar, 256);
    benchmark::DoNotOptimize(Buf.size());
  }
}
BENCHMARK(BM_LirEmission_Raw);

static void BM_LirEmission_Filtered(benchmark::State &State) {
  for (auto _ : State) {
    Arena A;
    LirBuffer Buf(A);
    CseFilter Cse(&Buf);
    ExprFilter Expr(&Cse);
    LIns *Tar = Expr.ins0(LOp::ParamTar);
    emitSyntheticTrace(Expr, Tar, 256);
    benchmark::DoNotOptimize(Buf.size());
  }
}
BENCHMARK(BM_LirEmission_Filtered);

static void BM_BackwardFilters(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Arena A;
    LirBuffer Buf(A);
    LIns *Tar = Buf.ins0(LOp::ParamTar);
    emitSyntheticTrace(Buf, Tar, 256);
    State.ResumeTiming();
    eliminateDeadStores(Buf.instructions(), 4);
    eliminateDeadCode(Buf.instructions());
    benchmark::DoNotOptimize(Buf.instructions().size());
  }
}
BENCHMARK(BM_BackwardFilters);

static void BM_AssemblerThroughput(benchmark::State &State) {
  ExecMemPool Pool(1 << 20);
  static uint8_t Fallback[8192];
  for (auto _ : State) {
    // Every iteration assembles into the same reservation and hands it
    // back, so the pool never runs dry however many iterations run.
    uint8_t *Mem = Pool.valid() ? Pool.reserve(8192) : nullptr;
    Assembler A(Mem ? Mem : Fallback, 8192);
    for (int I = 0; I < 256; ++I) {
      A.movRM32(RCX, RBX, I * 8);
      A.addRR32(RCX, RDX);
      A.movMR32(RBX, I * 8, RCX);
    }
    A.ret();
    benchmark::DoNotOptimize(A.size());
    if (Mem)
      Pool.rewind();
  }
}
BENCHMARK(BM_AssemblerThroughput);

// Whole-VM compile latency: time from cold engine to compiled trace.
static void BM_ColdStartToCompiledTrace(benchmark::State &State) {
  const char *Src = "var s = 0; for (var i = 0; i < 100; ++i) s += i;";
  for (auto _ : State) {
    EngineOptions O;
    O.EnableJit = true;
    Engine E(O);
    auto R = E.eval(Src);
    benchmark::DoNotOptimize(R.ok());
  }
}
BENCHMARK(BM_ColdStartToCompiledTrace);

// Steady-state: cost of one monitor-mediated trace call (enter + exit).
static void BM_TraceCallRoundTrip(benchmark::State &State) {
  EngineOptions O;
  O.EnableJit = true;
  Engine E(O);
  E.setPrintHook([](const std::string &) {});
  // Compile the inner loop once.
  E.eval("function spin(n) { var s = 0; for (var i = 0; i < n; ++i) s += i;"
         " return s; } spin(1000);");
  for (auto _ : State) {
    auto R = E.eval("spin(64);");
    benchmark::DoNotOptimize(R.ok());
  }
}
BENCHMARK(BM_TraceCallRoundTrip);

BENCHMARK_MAIN();
