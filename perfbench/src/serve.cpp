//===- serve.cpp - serve-churn --------------------------------------------===//
//
// A ScriptServer with 2 workers, off-thread compile and a 16 KiB code cache
// per context, driven as a closed loop: the queue holds 2 requests, so with
// both workers busy the generator's submit() blocks until a slot frees and
// about 4 requests are in flight. Requests are short scripts drawn with
// the seed from a pool built from four templates with per-request
// constants. A request's latency runs from the generator's submit() call
// to its result (submit wait + RequestResult::TotalMs).
//
//===----------------------------------------------------------------------===//

#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "api/engine.h"
#include "layers.h"
#include "perfbench.h"
#include "serve/server.h"

using namespace tracejit;
using namespace tracejit::serve;

namespace perfbench {
namespace {

/// A request template: $0..$2 are replaced by constants drawn from
/// [Lo[i], Hi[i]]. $0 is the loop trip count, sized so a request takes
/// about a millisecond on the JIT.
struct Template {
  const char *Name;
  const char *Text;
  int Lo[3], Hi[3];
};

const Template Templates[] = {
    {"int-loop",
     "var t = $1;\n"
     "for (var i = 0; i < $0; ++i) { t = (t * 31 + i * $2) & 1048575; }\n"
     "print(t);\n",
     {30000, 0, 3},
     {60000, 999, 97}},
    {"prop-loop",
     "var o = {};\n"
     "o.x = $1;\n"
     "o.y = $2;\n"
     "var t = 0;\n"
     "for (var i = 0; i < $0; ++i) {\n"
     "  o.x = (o.x + i) & 65535;\n"
     "  t = (t + o.x - o.y) & 1048575;\n"
     "}\n"
     "print(t);\n",
     {20000, 0, 0},
     {40000, 9999, 9999}},
    {"string-build",
     "var s = \"\";\n"
     "for (var i = 0; i < $0; ++i) {\n"
     "  s = s + String.fromCharCode(97 + (i * $1 + $2) % 26);\n"
     "}\n"
     "print(s.length);\n"
     "print(s.charCodeAt($0 - 1));\n",
     {1000, 1, 0},
     {2000, 25, 25}},
    {"double-math",
     "var x = $1 / 8;\n"
     "var t = 0.5;\n"
     "for (var i = 0; i < $0; ++i) { t = t + Math.sqrt(i + x) * $2 / 16; }\n"
     "print(t);\n",
     {20000, 1, 1},
     {40000, 999, 15}},
};
constexpr uint32_t NumTemplates = sizeof(Templates) / sizeof(Templates[0]);

/// Distinct request scripts in the pool the generator draws from.
constexpr uint32_t PoolSize = 128;
/// Requests served before timing starts (warms both workers).
constexpr uint64_t WarmupRequests = 64;
/// Traced runs alternate chunks of this many requests between an
/// untraced and a traced server.
constexpr uint64_t ChunkRequests = 64;
/// Requests replayed on a listener-observed engine for the span metrics
/// (ScriptServer's engines take no listener).
constexpr uint64_t ReplayRequests = 200;

struct Request {
  uint32_t Template;
  std::string Source;
  std::string Expected; ///< Output of the reference interpreter.
};

std::vector<Request> makePool(Rng &G) {
  std::vector<Request> Pool;
  for (uint32_t I = 0; I < PoolSize; ++I) {
    uint32_t T = G.below(NumTemplates);
    std::string Src = Templates[T].Text;
    for (int K = 0; K < 3; ++K) {
      std::string Key = "$" + std::to_string(K);
      std::string Val =
          std::to_string(G.range(Templates[T].Lo[K], Templates[T].Hi[K]));
      for (size_t At; (At = Src.find(Key)) != std::string::npos;)
        Src.replace(At, Key.size(), Val);
    }
    Request Q{T, Src, ""};
    Engine E(referenceOptions());
    E.setPrintHook([&Q](const std::string &S) { Q.Expected += S; });
    EvalResult Res = E.eval(Q.Source);
    if (!Res.ok())
      throw std::runtime_error(std::string("reference interpreter rejects a ") +
                               Templates[T].Name +
                               " request: " + Res.Err.describe());
    Pool.push_back(std::move(Q));
  }
  return Pool;
}

ServerConfig serverConfig(const Args &A) {
  ServerConfig C;
  C.Workers = 2;
  C.QueueDepth = 2;
  C.Engine.Tier = TierMode::Trace;
  C.Engine.OffThreadCompile = true;
  C.Engine.CodeCacheBytes = 16 * 1024;
  C.Engine.MaxCacheFlushes = 1u << 20; // measure churn, not the kill switch
  if (A.Inject == "error")
    C.Engine.MaxHeapBytes = 1;
  return C;
}

/// Timings of served requests.
struct Tally {
  std::vector<std::vector<double>> EvalMs{NumTemplates};
  std::vector<double> LatencyMs, QueueMs, WaitMs, AllEvalMs;
  double Seconds = 0;

  double evalGeomean() const {
    std::vector<double> M;
    for (const auto &S : EvalMs)
      if (!S.empty())
        M.push_back(median(S));
    return geomean(M);
  }
  double perSecond() const { return ratio((double)LatencyMs.size(), Seconds); }
};

/// Closed loop: submits requests drawn from \p Pool while \p More(count)
/// holds, then drains the server. Checks every result and adds its timings
/// to \p T.
template <typename MoreFn>
void closedLoop(ScriptServer &S, const std::vector<Request> &Pool, Rng &G,
                Report &R, Tally &T, MoreFn More) {
  struct Flight {
    double WaitMs;
    uint32_t Req;
  };
  std::unordered_map<uint64_t, Flight> InFlight;
  auto Collect = [&] {
    for (RequestResult &RR : S.takeResults()) {
      auto It = InFlight.find(RR.Id);
      if (It == InFlight.end())
        continue;
      const Request &Q = Pool[It->second.Req];
      R.check(RR.Ok && RR.Output == Q.Expected, Templates[Q.Template].Name,
              RR.Ok ? "output '" + RR.Output + "' != reference '" +
                          Q.Expected + "'"
                    : RR.Error);
      T.EvalMs[Q.Template].push_back(RR.EvalMs);
      T.AllEvalMs.push_back(RR.EvalMs);
      T.LatencyMs.push_back(It->second.WaitMs + RR.TotalMs);
      T.QueueMs.push_back(RR.QueueMs);
      T.WaitMs.push_back(It->second.WaitMs);
      InFlight.erase(It);
    }
  };
  auto T0 = Clock::now();
  for (uint64_t N = 0; More(N); ++N) {
    uint32_t Q = G.below(PoolSize);
    auto Call = Clock::now();
    uint64_t Id = S.submit(Pool[Q].Source);
    InFlight[Id] = {msSince(Call), Q};
    Collect();
  }
  S.drain();
  Collect();
  T.Seconds += secondsSince(T0);
}

} // namespace

bool runServe(const Args &A, Report &R) {
  Rng G(A.Seed + 1); // the request stream; the pool has its own generator
  std::vector<Request> Pool;
  ServerConfig Cfg = serverConfig(A);
  std::vector<std::unique_ptr<ScriptServer>> Servers;
  double SetupS = timedSetups(SetupRepeats, [&] {
    Rng PoolRng(A.Seed);
    Pool = makePool(PoolRng);
    if (A.Inject == "mismatch")
      Pool[0].Expected += "(corrupted)";
    Servers.push_back(std::make_unique<ScriptServer>(Cfg));
    Tally Warm;
    closedLoop(*Servers.back(), Pool, G, R, Warm,
               [](uint64_t N) { return N < WarmupRequests; });
  });
  Servers.erase(Servers.begin(), Servers.end() - 1);
  ScriptServer &Plain = *Servers.back();

  if (!A.Trace) {
    Tally T;
    auto T0 = Clock::now();
    closedLoop(Plain, Pool, G, R, T,
               [&](uint64_t) { return secondsSince(T0) < A.Seconds; });
    R.set("eval_ms", T.evalGeomean(), "ms");
    R.set("req_per_s", T.perSecond(), "1/s");
    R.set("req_p50_ms", percentile(T.LatencyMs, 0.5), "ms");
    R.set("req_p99_ms", percentile(T.LatencyMs, 0.99), "ms");
    R.set("setup_s", SetupS, "s");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    return true;
  }

  EngineOptions WorkerO = Cfg.Engine;
  probeEngineNew(R, WorkerO, 50);
  std::vector<std::string> Sources;
  for (const Request &Q : Pool)
    Sources.push_back(Q.Source);
  probeFrontend(R, Sources, 3);

  // Untraced and traced chunks alternate; their difference is the tracing
  // overhead. The traced server's workers collect VMStats.
  ServerConfig TracedCfg = Cfg;
  TracedCfg.Engine.CollectStats = true;
  ScriptServer Traced(TracedCfg);
  Tally Warm, Plains, Traceds;
  closedLoop(Traced, Pool, G, R, Warm,
             [](uint64_t N) { return N < WarmupRequests; });
  auto T0 = Clock::now();
  for (int Chunk = 0;; ++Chunk) {
    bool Tr = Chunk % 2 == 1;
    closedLoop(Tr ? Traced : Plain, Pool, G, R, Tr ? Traceds : Plains,
               [](uint64_t N) { return N < ChunkRequests; });
    if (Tr && secondsSince(T0) >= A.Seconds)
      break;
  }
  Traced.stop();
  LayerSample Sum;
  for (const VMStats &S : Traced.workerStats())
    Sum += LayerSample::of(S, 0);
  reportLayers(R, Sum,
               (double)(Warm.LatencyMs.size() + Traceds.LatencyMs.size()));

  // Spans need a listener, which ScriptServer's engines do not take:
  // replay part of the request stream on one engine with the workers'
  // options, pumping compile results between requests as a worker does.
  SpanListener Spans;
  {
    EngineOptions ReplayO = WorkerO;
    ReplayO.CollectStats = true;
    Engine E(ReplayO);
    std::string Out;
    E.setPrintHook([&Out](const std::string &S) { Out += S; });
    E.addEventListener(&Spans);
    for (uint64_t I = 0; I < ReplayRequests; ++I) {
      const Request &Q = Pool[G.below(PoolSize)];
      Out.clear();
      EvalResult Res = E.eval(Q.Source);
      R.check(Res.ok() && Out == Q.Expected, Templates[Q.Template].Name,
              Res.ok() ? "output '" + Out + "' != reference '" + Q.Expected +
                             "'"
                       : Res.Err.describe());
      E.pumpCompileQueue();
    }
    E.waitForCompileQueue();
    E.removeEventListener(&Spans);
  }
  reportSpans(R, Spans);
  // The workers' VMStats carry no code size; take it from the replay.
  R.set("jit.native_bytes", ratio((double)Spans.NativeBytes, ReplayRequests),
        "bytes");

  for (uint32_t K = 0; K < NumTemplates; ++K)
    R.set(std::string(Templates[K].Name) + ".eval_ms",
          median(Plains.EvalMs[K]), "ms");
  R.set("serve.queue_ms", median(Plains.QueueMs), "ms");
  R.set("serve.eval_ms", median(Plains.AllEvalMs), "ms");
  R.set("serve.submit_wait_ms", median(Plains.WaitMs), "ms");
  R.set("overhead.eval_ms", Traceds.evalGeomean() - Plains.evalGeomean(),
        "ms");
  R.set("overhead.req_per_s", Traceds.perSecond() - Plains.perSecond(),
        "1/s");
  return true;
}

} // namespace perfbench
