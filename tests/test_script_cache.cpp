//===- test_script_cache.cpp - Per-engine script cache --------------------===//
//
// Covers Engine's source-keyed script cache: a long-lived engine fed a
// seeded, interleaved stream of repeated serving-style sources prints
// exactly what a fresh interpreter prints for each request, under every
// tier, compile mode, code-cache size and IC setting; repeating a source
// keeps the engine's script, analysis and loop-state tables the same size;
// runtime and parse errors repeat faithfully (and parse errors are never
// cached); every run re-binds its own function declarations, to fresh
// objects, as a re-parse would; and the hit/miss counters survive
// ScriptServer engine recycles.
//
//===----------------------------------------------------------------------===//

#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "serve/server.h"
#include "trace/monitor.h"

using namespace tracejit;
using namespace tracejit::serve;

namespace {

/// Serving-style request templates (an int loop, a property loop, a string
/// build, double math); $0 is the trip count, $1/$2 per-request constants.
const char *const Templates[] = {
    "var t = $1;\n"
    "for (var i = 0; i < $0; ++i) { t = (t * 31 + i * $2) & 1048575; }\n"
    "print(t);\n",

    "var o = {};\n"
    "o.x = $1;\n"
    "o.y = $2;\n"
    "var t = 0;\n"
    "for (var i = 0; i < $0; ++i) {\n"
    "  o.x = (o.x + i) & 65535;\n"
    "  t = (t + o.x - o.y) & 1048575;\n"
    "}\n"
    "print(t);\n",

    "var s = \"\";\n"
    "for (var i = 0; i < $0; ++i) {\n"
    "  s = s + String.fromCharCode(97 + (i * $1 + $2) % 26);\n"
    "}\n"
    "print(s.length);\n"
    "print(s.charCodeAt($0 - 1));\n",

    "var x = $1 / 8;\n"
    "var t = 0.5;\n"
    "for (var i = 0; i < $0; ++i) { t = t + Math.sqrt(i + x) * $2 / 16; }\n"
    "print(t);\n",
};

std::string instantiate(const char *Template, const int (&Vals)[3]) {
  std::string Src = Template;
  for (int K = 0; K < 3; ++K) {
    std::string Key = "$";
    Key += std::to_string(K);
    std::string Val = std::to_string(Vals[K]);
    for (size_t At; (At = Src.find(Key)) != std::string::npos;)
      Src.replace(At, Key.size(), Val);
  }
  return Src;
}

/// Two sources per template, each with its own constants.
std::vector<std::string> makePool(std::mt19937 &G) {
  std::vector<std::string> Pool;
  for (const char *T : Templates)
    for (int V = 0; V < 2; ++V) {
      int Vals[3] = {(int)(300 + G() % 900), (int)(1 + G() % 25),
                     (int)(1 + G() % 15)};
      Pool.push_back(instantiate(T, Vals));
    }
  return Pool;
}

struct EvalRun {
  bool Ok = false;
  std::string Out;
  std::string Err;
};

EvalRun evalOn(Engine &E, const std::string &Src) {
  EvalRun R;
  E.setPrintHook([&R](const std::string &S) { R.Out += S; });
  EvalResult Res = E.eval(Src);
  R.Ok = Res.ok();
  if (!R.Ok)
    R.Err = Res.Err.describe();
  return R;
}

/// What a fresh JIT-off engine prints for \p Src.
EvalRun interpreted(const std::string &Src) {
  EngineOptions O;
  O.EnableJit = false;
  Engine E(O);
  return evalOn(E, Src);
}

} // namespace

TEST(ScriptCache, LongLivedEngineMatchesFreshInterpreterPerRequest) {
  std::mt19937 G(20090615);
  std::vector<std::string> Pool = makePool(G);
  std::vector<std::string> Want;
  for (const std::string &Src : Pool) {
    EvalRun R = interpreted(Src);
    ASSERT_TRUE(R.Ok) << R.Err;
    Want.push_back(R.Out);
  }
  std::vector<size_t> Stream;
  for (int I = 0; I < 64; ++I)
    Stream.push_back(G() % Pool.size());

  for (TierMode Mode : {TierMode::Trace, TierMode::Hybrid, TierMode::Method})
    for (bool OffThread : {false, true})
      for (size_t CacheBytes : {EngineOptions().CodeCacheBytes,
                                (size_t)16 * 1024})
        for (bool IC : {true, false}) {
          SCOPED_TRACE(std::string("tier=") + tierModeName(Mode) +
                       " off-thread=" + std::to_string(OffThread) +
                       " cache=" + std::to_string(CacheBytes) +
                       " ic=" + std::to_string(IC));
          EngineOptions O;
          O.Tier = Mode;
          O.OffThreadCompile = OffThread;
          O.CodeCacheBytes = CacheBytes;
          O.MaxCacheFlushes = 1u << 20; // keep the JIT on under churn
          O.EnableIC = IC;
          Engine E(O);
          size_t Misses = 0;
          std::vector<bool> Seen(Pool.size(), false);
          for (size_t Q : Stream) {
            EvalRun R = evalOn(E, Pool[Q]);
            ASSERT_TRUE(R.Ok) << R.Err;
            EXPECT_EQ(R.Out, Want[Q]) << "request source:\n" << Pool[Q];
            if (!Seen[Q])
              ++Misses;
            Seen[Q] = true;
          }
          E.waitForCompileQueue();
          VMStats S = E.stats();
          EXPECT_EQ(S.ScriptCacheMisses, Misses);
          EXPECT_EQ(S.ScriptCacheHits, Stream.size() - Misses);
          EXPECT_EQ(E.context().Scripts.size(), Misses)
              << "one top-level script per distinct source";
        }
}

TEST(ScriptCache, RepeatedSourceKeepsEngineTablesConstant) {
  std::string Src = "function sq(n) { var s = 0;\n"
                    "  for (var j = 0; j < n; ++j) s += j; return s; }\n"
                    "var t = 0;\n"
                    "for (var i = 0; i < 400; ++i) t += sq(i % 9);\n"
                    "print(t);\n";
  EngineOptions O;
  O.Tier = TierMode::Trace; // asserts trace-pipeline LoopStates
  Engine E(O);
  ASSERT_TRUE(evalOn(E, Src).Ok);
  VMContext &Ctx = E.context();
  ASSERT_NE(Ctx.Monitor, nullptr);
  size_t Scripts = Ctx.Scripts.size();
  size_t Analyses = Ctx.Analyses.size();
  size_t LoopStates = Ctx.Monitor->loopStateCount();
  EXPECT_EQ(Scripts, 2u) << "the top level and sq";
  EXPECT_GE(Analyses, 1u);
  EXPECT_GE(LoopStates, 1u);
  for (int I = 0; I < 25; ++I)
    ASSERT_TRUE(evalOn(E, Src).Ok);
  EXPECT_EQ(Ctx.Scripts.size(), Scripts);
  EXPECT_EQ(Ctx.Analyses.size(), Analyses);
  EXPECT_EQ(Ctx.Monitor->loopStateCount(), LoopStates);
  VMStats S = E.stats();
  EXPECT_EQ(S.ScriptCacheMisses, 1u);
  EXPECT_EQ(S.ScriptCacheHits, 25u);
  EXPECT_EQ(S.AnalysisRuns, Analyses) << "a hit skips the analyzer";
  EXPECT_NE(S.report().find("script cache: hits=25 misses=1"),
            std::string::npos);
}

TEST(ScriptCache, RuntimeErrorRepeatsOnEveryRun) {
  const std::vector<std::string> Sources = {
      "var u; u.x;",
      // Thrown from a hot loop, after its trace has compiled.
      "var t = 0;\n"
      "for (var i = 0; i < 1000; ++i) { t += i; if (i == 900) t.x.y; }\n",
  };
  for (const std::string &Src : Sources)
    for (bool Jit : {false, true}) {
      SCOPED_TRACE(Src + (Jit ? " [jit]" : " [interp]"));
      EngineOptions O;
      O.EnableJit = Jit;
      Engine E(O);
      EvalRun First = evalOn(E, Src);
      ASSERT_FALSE(First.Ok);
      EXPECT_EQ(First.Err, interpreted(Src).Err);
      for (int I = 0; I < 5; ++I) {
        EvalRun Again = evalOn(E, Src);
        EXPECT_FALSE(Again.Ok);
        EXPECT_EQ(Again.Err, First.Err);
      }
      EXPECT_EQ(E.stats().ScriptCacheHits, 5u);
      // The engine is still fully usable.
      EvalRun Ok = evalOn(E, "print(1 + 2);");
      EXPECT_TRUE(Ok.Ok) << Ok.Err;
      EXPECT_EQ(Ok.Out, "3\n");
    }
}

TEST(ScriptCache, ParseErrorIsNotCached) {
  const std::string Bad = "var x = ;";
  Engine E;
  EvalResult First = E.eval(Bad);
  ASSERT_FALSE(First.ok());
  EXPECT_EQ(First.Err.Kind, ErrorKind::Parse);
  for (int I = 0; I < 3; ++I) {
    EvalResult Again = E.eval(Bad);
    ASSERT_FALSE(Again.ok());
    EXPECT_EQ(Again.Err.describe(), First.Err.describe());
  }
  VMStats S = E.stats();
  EXPECT_EQ(S.ScriptCacheHits, 0u);
  EXPECT_EQ(S.ScriptCacheMisses, 4u) << "every parse error re-parses";
  EvalRun Ok = evalOn(E, "var x = 4; print(x * x);");
  EXPECT_TRUE(Ok.Ok) << Ok.Err;
  EXPECT_EQ(Ok.Out, "16\n");
}

TEST(ScriptCache, CachedScriptWithFunctionsGivesTheSameOutput) {
  std::string Src =
      "function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\n"
      "function norm(p) { return p.x * p.x + p.y * p.y; }\n"
      "function fill(n) {\n"
      "  var a = [];\n"
      "  for (var i = 0; i < n; ++i) a[i] = {x: i % 7, y: i % 5};\n"
      "  return a;\n"
      "}\n"
      "var pts = fill(300);\n"
      "var acc = 0;\n"
      "for (var k = 0; k < pts.length; ++k) acc += norm(pts[k]);\n"
      "print(acc);\n"
      "print(fib(15));\n";
  EvalRun Want = interpreted(Src);
  ASSERT_TRUE(Want.Ok) << Want.Err;
  for (bool Jit : {false, true}) {
    EngineOptions O;
    O.EnableJit = Jit;
    Engine E(O);
    for (int I = 0; I < 10; ++I) {
      EvalRun R = evalOn(E, Src);
      ASSERT_TRUE(R.Ok) << R.Err;
      EXPECT_EQ(R.Out, Want.Out) << "run " << I << (Jit ? " [jit]" : "");
    }
    EXPECT_EQ(E.stats().ScriptCacheHits, 9u);
  }
}

TEST(ScriptCache, InterleavedSourcesRebindTheirOwnFunctions) {
  // Both sources declare f (and call it from a hot loop) with different
  // bodies; each run must call its own f, whichever source ran last.
  const std::vector<std::string> Sources = {
      "function f(x) { return x + 1; }\n"
      "var t = 0;\n"
      "for (var i = 0; i < 600; ++i) t = f(t) & 4095;\n"
      "print(t);\n",
      "function f(x) { return x * 3 + 2; }\n"
      "var t = 0;\n"
      "for (var i = 0; i < 600; ++i) t = f(t) & 4095;\n"
      "print(t);\n",
  };
  std::vector<std::string> Want;
  for (const std::string &Src : Sources) {
    EvalRun R = interpreted(Src);
    ASSERT_TRUE(R.Ok) << R.Err;
    Want.push_back(R.Out);
  }
  ASSERT_NE(Want[0], Want[1]);
  const size_t Stream[] = {0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0};
  for (TierMode Mode : {TierMode::Trace, TierMode::Hybrid, TierMode::Method})
    for (bool Jit : {false, true}) {
      SCOPED_TRACE(std::string(tierModeName(Mode)) + (Jit ? " [jit]" : ""));
      EngineOptions O;
      O.Tier = Mode;
      O.EnableJit = Jit;
      Engine E(O);
      for (size_t Q : Stream) {
        EvalRun R = evalOn(E, Sources[Q]);
        ASSERT_TRUE(R.Ok) << R.Err;
        EXPECT_EQ(R.Out, Want[Q]) << "request source:\n" << Sources[Q];
      }
      EXPECT_EQ(E.stats().ScriptCacheHits, std::size(Stream) - 2);
    }
}

TEST(ScriptCache, EachRunBindsAFreshFunctionObject) {
  // What a re-parse would do: the declaration is re-bound although the last
  // run overwrote it, properties set on the function object do not carry
  // over, and the object is not the one an earlier run saw.
  const std::string Src = "function f() { return 1; }\n"
                          "print(f(), f.hits, seen === f);\n"
                          "f.hits = 5;\n"
                          "seen = f;\n"
                          "f = 7;\n"
                          "print(f);\n";
  // `seen` is an undeclared global: a fresh engine reads undefined.
  EvalRun Want = interpreted("var seen;\n" + Src);
  ASSERT_TRUE(Want.Ok) << Want.Err;
  for (bool Jit : {false, true}) {
    EngineOptions O;
    O.EnableJit = Jit;
    Engine E(O);
    ASSERT_TRUE(evalOn(E, "var seen;").Ok);
    for (int I = 0; I < 4; ++I) {
      EvalRun R = evalOn(E, Src);
      ASSERT_TRUE(R.Ok) << "run " << I << (Jit ? " [jit]: " : ": ") << R.Err;
      EXPECT_EQ(R.Out, Want.Out) << "run " << I << (Jit ? " [jit]" : "");
    }
    EXPECT_EQ(E.stats().ScriptCacheHits, 3u);
  }
}

TEST(ScriptCache, CachedCallsKeepTheirTrees) {
  // Each run binds f to a new function object, plainly and as a method.
  // Traces guard the callee's script, so the first run's tree keeps
  // matching instead of side-exiting into a new peer per run until the
  // loop runs out of peers.
  const std::string Src = "function f(x) { return (x * 3 + 1) & 65535; }\n"
                          "var o = {m: f};\n"
                          "var t = 0;\n"
                          "for (var i = 0; i < 3000; ++i) t = f(t) + o.m(i);\n"
                          "print(t);\n";
  EvalRun Want = interpreted(Src);
  ASSERT_TRUE(Want.Ok) << Want.Err;
  EngineOptions O;
  O.Tier = TierMode::Trace; // asserts trace-pipeline trees
  O.CollectStats = true;
  Engine E(O);
  ASSERT_TRUE(evalOn(E, Src).Ok);
  uint64_t Trees = E.stats().TreesCompiled;
  EXPECT_GE(Trees, 1u);
  for (int K = 1; K < 16; ++K) {
    SCOPED_TRACE("run " + std::to_string(K));
    uint64_t Before = E.stats().BytecodesNative;
    EvalRun R = evalOn(E, Src);
    ASSERT_TRUE(R.Ok) << R.Err;
    EXPECT_EQ(R.Out, Want.Out);
    EXPECT_GT(E.stats().BytecodesNative, Before + 100000)
        << "the cached loop fell back to the interpreter";
  }
  EXPECT_EQ(E.stats().TreesCompiled, Trees);
}

TEST(ScriptCache, CachedLoopKeepsTracingAsGlobalsGrow) {
  // Every other script adds a global, so each re-run of the cached loop
  // meets a larger entry type map than its earlier trees were built for.
  // Those trees must not use up the loop's peer slots.
  const std::string Loop =
      "var t = 0;\n"
      "for (var i = 0; i < 2000; ++i) t = (t + i) & 1023;\n"
      "print(t);\n";
  EvalRun Want = interpreted(Loop);
  ASSERT_TRUE(Want.Ok) << Want.Err;
  EngineOptions O;
  O.Tier = TierMode::Trace; // asserts trace-pipeline peers
  O.CollectStats = true;
  Engine E(O);
  for (int K = 0; K < 12; ++K) {
    SCOPED_TRACE("run " + std::to_string(K));
    uint64_t Before = E.stats().BytecodesNative;
    EvalRun R = evalOn(E, Loop);
    ASSERT_TRUE(R.Ok) << R.Err;
    EXPECT_EQ(R.Out, Want.Out);
    EXPECT_GT(E.stats().BytecodesNative, Before + 10000)
        << "the cached loop fell back to the interpreter";
    std::string Grow = "var g";
    Grow += std::to_string(K);
    Grow += " = 1;";
    ASSERT_TRUE(evalOn(E, Grow).Ok);
  }
}

TEST(ScriptCache, MethodBodyRecompilesAfterGlobalsGrow) {
  // The loop's method body calls out (String.fromCharCode), so its helpers
  // mirror the TAR's globals; a second script then grows the global table
  // before the cached script runs again.
  const std::string Build =
      "var s = '';\n"
      "for (var i = 0; i < 300; ++i)\n"
      "  s = s + String.fromCharCode(97 + i % 26);\n"
      "print(s.length, s.charCodeAt(299));\n";
  const std::string Grow = "var zz = 1; var yy = 2;";
  EvalRun Want = interpreted(Build);
  ASSERT_TRUE(Want.Ok) << Want.Err;
  for (TierMode Mode : {TierMode::Method, TierMode::Hybrid}) {
    SCOPED_TRACE(tierModeName(Mode));
    EngineOptions O;
    O.Tier = Mode;
    Engine E(O);
    EvalRun First = evalOn(E, Build);
    ASSERT_TRUE(First.Ok) << First.Err;
    EXPECT_EQ(First.Out, Want.Out);
    ASSERT_TRUE(evalOn(E, Grow).Ok);
    EvalRun Again = evalOn(E, Build);
    ASSERT_TRUE(Again.Ok) << Again.Err;
    EXPECT_EQ(Again.Out, Want.Out);
    VMStats S = E.stats();
    EXPECT_EQ(S.ScriptCacheHits, 1u);
    EXPECT_EQ(S.MethodCompiles, 2u)
        << "the grown global table retires the first body";
  }
}

TEST(ScriptCache, ServerBanksCacheCountersAcrossRecycles) {
  ServerConfig C;
  C.Workers = 1;
  C.QueueDepth = 16;
  C.RecycleAfterFailures = 1; // every failed request rebuilds the engine
  ScriptServer S(C);
  const std::string Good = "var t = 0; for (var i = 0; i < 200; ++i) t += i;"
                           " print(t);";
  for (int I = 0; I < 3; ++I)
    S.submit(Good); // miss, hit, hit
  S.submit("var u; u.x;"); // miss; its failure recycles the engine
  for (int I = 0; I < 3; ++I)
    S.submit(Good); // the new engine: miss, hit, hit
  S.stop();
  size_t Failed = 0;
  for (const RequestResult &R : S.takeResults()) {
    if (R.Ok)
      EXPECT_EQ(R.Output, "19900\n");
    else
      ++Failed;
  }
  EXPECT_EQ(Failed, 1u);
  ASSERT_EQ(S.workerRecycles()[0], 1u);
  const VMStats &W = S.workerStats()[0];
  EXPECT_EQ(W.ScriptCacheHits, 4u);
  EXPECT_EQ(W.ScriptCacheMisses, 3u);
}
