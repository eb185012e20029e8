//===- test_interpreter.cpp - Language semantics on the baseline interpreter -===//

#include <gtest/gtest.h>

#include "api/engine.h"

using namespace tracejit;

namespace {

/// Run a program on the pure interpreter and return everything it printed.
std::string runInterp(const std::string &Src) {
  EngineOptions Opts;
  Opts.EnableJit = false;
  Engine E(Opts);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  auto R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << R.Err.describe() << "\nprogram:\n" << Src;
  return Out;
}

std::string runExpect(const std::string &Src, const std::string &Expected) {
  std::string Out = runInterp(Src);
  EXPECT_EQ(Out, Expected) << "program:\n" << Src;
  return Out;
}

} // namespace

TEST(Interp, Arithmetic) {
  runExpect("print(1 + 2 * 3);", "7\n");
  runExpect("print((1 + 2) * 3);", "9\n");
  runExpect("print(7 / 2);", "3.5\n");
  runExpect("print(7 % 3);", "1\n");
  runExpect("print(-7 % 3);", "-1\n");
  runExpect("print(2.5 + 0.25);", "2.75\n");
  runExpect("print(-5);", "-5\n");
  runExpect("print(10 - 3 - 2);", "5\n");
}

TEST(Interp, IntOverflowPromotesToDouble) {
  runExpect("print(2147483647 + 1);", "2147483648\n");
  runExpect("print(-2147483648 - 1);", "-2147483649\n");
  runExpect("print(100000 * 100000);", "10000000000\n");
}

TEST(Interp, BitOps) {
  runExpect("print(6 & 3);", "2\n");
  runExpect("print(6 | 3);", "7\n");
  runExpect("print(6 ^ 3);", "5\n");
  runExpect("print(1 << 10);", "1024\n");
  runExpect("print(-8 >> 1);", "-4\n");
  runExpect("print(-8 >>> 28);", "15\n");
  runExpect("print(~5);", "-6\n");
  runExpect("print(4294967296 | 0);", "0\n");
  runExpect("print(2147483648 | 0);", "-2147483648\n");
  runExpect("print(-1 >>> 0);", "4294967295\n");
}

TEST(Interp, Comparisons) {
  runExpect("print(1 < 2, 2 <= 2, 3 > 4, 4 >= 4);", "true true false true\n");
  runExpect("print(1 == 1.0, 1 === 1.0, 1 != 2, 1 !== 1);",
            "true true true false\n");
  runExpect("print('abc' < 'abd', 'a' == 'a');", "true true\n");
  runExpect("print(null == undefined, null === undefined);", "true false\n");
  runExpect("print(0/0 == 0/0, 0/0 < 1, 0/0 >= 0);", "false false false\n");
}

TEST(Interp, LogicalOperators) {
  runExpect("print(true && false, true || false);", "false true\n");
  runExpect("print(0 && 1, 2 && 3);", "0 3\n");
  runExpect("print(0 || 5, 6 || 7);", "5 6\n");
  runExpect("print(!0, !1, !'');", "true false true\n");
  // Short circuit: the second arm must not run.
  runExpect("var hits = 0;\n"
            "function bump() { hits = hits + 1; return true; }\n"
            "var r = false && bump();\n"
            "print(hits, r);",
            "0 false\n");
}

TEST(Interp, Ternary) {
  runExpect("print(1 < 2 ? 'yes' : 'no');", "yes\n");
  runExpect("print(false ? 1 : true ? 2 : 3);", "2\n");
}

TEST(Interp, VariablesAndAssignment) {
  runExpect("var x = 10; x += 5; print(x); x *= 2; print(x);", "15\n30\n");
  runExpect("var a = 1, b = 2; var t = a; a = b; b = t; print(a, b);",
            "2 1\n");
  runExpect("var x = 3; var y = (x = 7) + 1; print(x, y);", "7 8\n");
  runExpect("var x = 1; x <<= 4; print(x); x >>= 2; print(x);", "16\n4\n");
}

TEST(Interp, IncrementDecrement) {
  runExpect("var i = 5; print(i++); print(i); print(++i); print(i);",
            "5\n6\n7\n7\n");
  runExpect("var i = 5; print(i--); print(--i);", "5\n3\n");
  runExpect("var a = [10]; a[0]++; print(a[0]); print(a[0]++); print(a[0]);",
            "11\n11\n12\n");
  runExpect("var o = {n: 1}; ++o.n; print(o.n); print(o.n++, o.n);",
            "2\n2 3\n");
}

TEST(Interp, WhileLoop) {
  runExpect("var s = 0; var i = 0; while (i < 5) { s += i; i = i + 1; }"
            "print(s, i);",
            "10 5\n");
  runExpect("var i = 0; while (true) { i = i + 1; if (i >= 3) break; }"
            "print(i);",
            "3\n");
}

TEST(Interp, ForLoop) {
  runExpect("var s = 0; for (var i = 0; i < 10; ++i) s += i; print(s);",
            "45\n");
  runExpect("var s = 0; for (var i = 0; i < 10; ++i) {"
            "  if (i % 2 == 0) continue; s += i; } print(s);",
            "25\n");
  runExpect("var n = 0; for (;;) { n = n + 1; if (n == 4) break; } print(n);",
            "4\n");
}

TEST(Interp, DoWhileLoop) {
  runExpect("var i = 10; var n = 0; do { n = n + 1; i = i + 1; }"
            "while (i < 3); print(n);",
            "1\n");
  runExpect("var i = 0; do { i = i + 1; } while (i < 5); print(i);", "5\n");
}

TEST(Interp, NestedLoops) {
  runExpect("var c = 0;\n"
            "for (var i = 0; i < 4; ++i)\n"
            "  for (var j = 0; j < 5; ++j)\n"
            "    c = c + 1;\n"
            "print(c);",
            "20\n");
}

TEST(Interp, SieveFromThePaper) {
  // Figure 1, scaled: sieve of Eratosthenes over 100 entries.
  runExpect("var primes = Array(100);\n"
            "for (var p = 0; p < 100; ++p) primes[p] = true;\n"
            "for (var i = 2; i < 100; ++i) {\n"
            "  if (!primes[i]) continue;\n"
            "  for (var k = i + i; k < 100; k += i)\n"
            "    primes[k] = false;\n"
            "}\n"
            "var count = 0;\n"
            "for (var n = 2; n < 100; ++n) if (primes[n]) count = count + 1;\n"
            "print(count);",
            "25\n");
}

TEST(Interp, Functions) {
  runExpect("function add(a, b) { return a + b; } print(add(2, 3));", "5\n");
  runExpect("function f() { return 42; } print(f());", "42\n");
  runExpect("function f(x) { return x; } print(f());", "undefined\n");
  runExpect("function fib(n) { if (n < 2) return n;"
            "  return fib(n - 1) + fib(n - 2); } print(fib(15));",
            "610\n");
  runExpect("function g() {} print(g());", "undefined\n");
}

TEST(Interp, FunctionLocalsAreIndependent) {
  runExpect("var x = 1;\n"
            "function f(x) { x = x + 100; return x; }\n"
            "print(f(5), x);",
            "105 1\n");
}

TEST(Interp, Arrays) {
  runExpect("var a = [1, 2, 3]; print(a.length, a[0], a[2]);", "3 1 3\n");
  runExpect("var a = []; a[5] = 'x'; print(a.length, a[0], a[5]);",
            "6 undefined x\n");
  runExpect("var a = Array(4); print(a.length);", "4\n");
  runExpect("var a = [1]; a.push(2); a.push(3); print(a.length, a[2]);",
            "3 3\n");
  runExpect("print([1, 2, 3].join('-'));", "1-2-3\n");
}

TEST(Interp, Objects) {
  runExpect("var o = {x: 1, y: 'two'}; print(o.x, o.y);", "1 two\n");
  runExpect("var o = {}; o.a = 5; o.a = o.a + 1; print(o.a);", "6\n");
  runExpect("var p = {pos: {x: 3}}; print(p.pos.x);", "3\n");
  runExpect("var o = {n: 2}; o.n *= 10; print(o.n);", "20\n");
}

TEST(Interp, Strings) {
  runExpect("print('hello' + ' ' + 'world');", "hello world\n");
  runExpect("print('n=' + 5);", "n=5\n");
  runExpect("print(5 + 'n');", "5n\n");
  runExpect("var s = 'abc'; print(s.length, s.charAt(1), s.charCodeAt(0));",
            "3 b 97\n");
  runExpect("print('hello'.indexOf('ll'), 'hello'.indexOf('z'));", "2 -1\n");
  runExpect("print('abcdef'.substring(2, 4));", "cd\n");
  runExpect("print(String.fromCharCode(72, 105));", "Hi\n");
  runExpect("var s = 'xy'; print(s[0], s[1]);", "x y\n");
}

TEST(Interp, MathBuiltins) {
  runExpect("print(Math.abs(-3), Math.floor(2.7), Math.ceil(2.2));",
            "3 2 3\n");
  runExpect("print(Math.sqrt(16), Math.pow(2, 10));", "4 1024\n");
  runExpect("print(Math.min(3, 7), Math.max(3, 7));", "3 7\n");
  runExpect("print(Math.floor(Math.PI * 100));", "314\n");
  runExpect("var r = Math.random(); print(r >= 0 && r < 1);", "true\n");
}

TEST(Interp, TypeStabilityAcrossNumberKinds) {
  // Mixed int/double flows, the bread and butter of the tracer later.
  runExpect("var x = 1; x = x + 0.5; x = x + 0.5; print(x);", "2\n");
  runExpect("var x = 3; x = x / 2; print(x);", "1.5\n");
}

TEST(Interp, Errors) {
  EngineOptions Opts;
  Opts.EnableJit = false;
  {
    Engine E(Opts);
    auto R = E.eval("var x = ;");
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.Err.Kind, ErrorKind::Parse);
    EXPECT_EQ(R.Err.Line, 1u);
    EXPECT_EQ(R.Err.Col, 9u) << "column of the offending ';'";
    EXPECT_NE(R.Err.describe().find("SyntaxError"), std::string::npos);
  }
  {
    Engine E(Opts);
    auto R = E.eval("var a = 1;\n  var b = @;");
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.Err.Kind, ErrorKind::Lex) << "bad character is a lex error";
    EXPECT_EQ(R.Err.Line, 2u);
    EXPECT_EQ(R.Err.Col, 11u);
  }
  {
    Engine E(Opts);
    auto R = E.eval("var x = 1; x();");
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.Err.Kind, ErrorKind::Runtime);
    EXPECT_NE(R.Err.describe().find("RuntimeError"), std::string::npos);
  }
  {
    Engine E(Opts);
    auto R = E.eval("undefinedGlobal.x;");
    EXPECT_FALSE(R.ok());
  }
  {
    // A runtime error unwinds to the same report with the JIT on.
    EngineOptions JitOpts = Opts;
    JitOpts.EnableJit = true;
    Engine I(Opts), J(JitOpts);
    auto RI = I.eval("var u; u.x;");
    auto RJ = J.eval("var u; u.x;");
    EXPECT_FALSE(RI.ok());
    EXPECT_FALSE(RJ.ok());
    EXPECT_EQ(RI.Err.Kind, ErrorKind::Runtime);
    EXPECT_EQ(RI.Err.describe(), RJ.Err.describe());
  }
  {
    // Engine survives an error and can evaluate again.
    Engine E(Opts);
    EXPECT_FALSE(E.eval("var x = 1; x();").ok());
    EXPECT_TRUE(E.eval("var y = 2;").ok());
    EXPECT_EQ(E.getGlobal("y").toInt(), 2);
  }
}

TEST(Interp, LastExpressionValue) {
  EngineOptions Opts;
  Opts.EnableJit = false;
  Engine E(Opts);
  {
    auto R = E.eval("1 + 2;");
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.LastValue.toInt(), 3);
  }
  {
    // The *last* top-level expression statement wins; statements inside
    // loops or functions do not contribute.
    auto R = E.eval("function f(n) { n * 10; return n; }\n"
                    "var s = 0;\n"
                    "for (var i = 0; i < 10; ++i) { s + 1; s = s + f(1); }\n"
                    "s * 2;");
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.LastValue.toInt(), 20);
  }
  {
    // No top-level expression statement => undefined.
    auto R = E.eval("var q = 5;");
    ASSERT_TRUE(R.ok());
    EXPECT_TRUE(R.LastValue.isUndefined());
  }
}

TEST(Interp, GlobalAccessAcrossEvals) {
  EngineOptions Opts;
  Opts.EnableJit = false;
  Engine E(Opts);
  EXPECT_TRUE(E.eval("var counter = 10;").ok());
  EXPECT_TRUE(E.eval("counter = counter + 5;").ok());
  EXPECT_EQ(E.getGlobal("counter").toInt(), 15);
  E.setGlobalNumber("injected", 2.5);
  EXPECT_TRUE(E.eval("var twice = injected * 2;").ok());
  EXPECT_EQ(E.getGlobal("twice").numberValue(), 5.0);
}

TEST(Interp, HostNativeRegistration) {
  EngineOptions Opts;
  Opts.EnableJit = false;
  Engine E(Opts);
  E.registerNative("hostAdd", [](Interpreter &I, Value, const Value *Args,
                                 uint32_t N) -> Value {
    double S = 0;
    for (uint32_t K = 0; K < N; ++K)
      S += Interpreter::toNumber(Args[K]);
    return I.context().TheHeap.boxNumber(S);
  });
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  EXPECT_TRUE(E.eval("print(hostAdd(1, 2, 3.5));").ok());
  EXPECT_EQ(Out, "6.5\n");
}

TEST(Interp, GCDuringExecution) {
  // Heavy double churn forces collections through the preempt flag.
  EngineOptions Opts;
  Opts.EnableJit = false;
  Engine E(Opts);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  auto R = E.eval("var s = 0.1;\n"
                  "for (var i = 0; i < 200000; ++i) s = s + 0.1;\n"
                  "print(s > 20000 && s < 20001);");
  ASSERT_TRUE(R.ok()) << R.Err.describe();
  EXPECT_EQ(Out, "true\n");
}

TEST(Interp, DeepRecursionOverflowsGracefully) {
  EngineOptions Opts;
  Opts.EnableJit = false;
  Engine E(Opts);
  auto R = E.eval("function f(n) { return f(n + 1); } f(0);");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, ErrorKind::StackOverflow);
  EXPECT_NE(R.Err.describe().find("StackOverflowError"), std::string::npos);
  EXPECT_NE(R.Err.Message.find("too much recursion"), std::string::npos);
  // The overflow carries a source position (the recursive call site).
  EXPECT_GT(R.Err.Line, 0u);
}

// The dispatch loop keeps Pc and Sp in locals and writes them back to the
// interpreter only around calls that read them. A raising op that skipped
// that write would report the position of an earlier op; each program here
// raises from a different op, on a late iteration of a loop that the JIT
// (when on) has compiled by then.
TEST(Interp, RuntimeErrorPositionOfEachRaisingOp) {
  struct Case {
    const char *Src;
    ErrorKind Kind;
    uint32_t Line, Col;
    const char *Msg;
  };
  const Case Cases[] = {
      {"var o = {a: 1};\nvar s = 0;\nfor (var i = 0; i < 300; ++i) {\n"
       "  if (i == 250) o = 7;\n  s = s + o.a;\n}\n",
       ErrorKind::Runtime, 5, 13, "cannot read property of non-object"},
      {"var o = {a: 1};\nfor (var i = 0; i < 300; ++i) {\n"
       "  if (i == 250) o = 7;\n  o.a = i;\n}\n",
       ErrorKind::Runtime, 4, 9, "property store on a non-object"},
      {"var a = [1, 2, 3];\nvar s = 0;\nfor (var i = 0; i < 300; ++i) {\n"
       "  if (i == 250) a = 7;\n  s = s + a[i % 3];\n}\n",
       ErrorKind::Runtime, 5, 18, "indexing a non-object"},
      {"var a = [1, 2, 3];\nfor (var i = 0; i < 300; ++i) {\n"
       "  if (i == 250) a = {};\n  a[i % 3] = i;\n}\n",
       ErrorKind::Runtime, 4, 14, "element store on a non-array"},
      {"function f(x) { return x + 1; }\nvar s = 0;\n"
       "for (var i = 0; i < 300; ++i) {\n  if (i == 250) f = 3;\n"
       "  s = s + f(i);\n}\n",
       ErrorKind::Runtime, 5, 14, "calling a non-function"},
      {"function m(x) { return x; }\nvar o = {};\no.m = m;\nvar s = 0;\n"
       "for (var i = 0; i < 300; ++i) {\n  if (i == 250) o = 5;\n"
       "  s = s + o.m(i);\n}\n",
       ErrorKind::Runtime, 7, 16, "method call on unsupported receiver"},
      {"function f(n) {\n  return n == 0 ? 0 : 1 + f(n - 1);\n}\nvar s = 0;\n"
       "for (var i = 0; i < 300; ++i) s = s + f(i < 250 ? 10 : 100000);\n",
       ErrorKind::StackOverflow, 2, 34, "too much recursion"},
  };
  for (const Case &K : Cases) {
    for (bool Jit : {false, true}) {
      EngineOptions Opts;
      Opts.EnableJit = Jit;
      Engine E(Opts);
      auto R = E.eval(K.Src);
      ASSERT_FALSE(R.ok()) << K.Src;
      EXPECT_EQ(R.Err.Kind, K.Kind) << "jit=" << Jit << "\n" << K.Src;
      EXPECT_EQ(R.Err.Line, K.Line) << "jit=" << Jit << "\n" << K.Src;
      EXPECT_EQ(R.Err.Col, K.Col) << "jit=" << Jit << "\n" << K.Src;
      EXPECT_NE(R.Err.Message.find(K.Msg), std::string::npos)
          << R.Err.Message;
      // The engine stays usable after the error.
      EXPECT_TRUE(E.eval("var after = 1;").ok());
    }
  }
}

// gc() collects while fresh strings sit only on the operand stack: as array
// literal elements, call arguments and native arguments. The GC root scan
// reads the interpreter's Sp, so the native call must see the current one.
TEST(Interp, GcKeepsLiveOperandsOnTheStack) {
  const char *Progs[][2] = {
      {"var s = \"ab\";\nvar bad = 0;\nfor (var i = 0; i < 50; ++i) {\n"
       "  var a = [s + \"a\", gc(), s + i];\n"
       "  if (a[0] != \"aba\" || a[2] != \"ab\" + i) bad = bad + 1;\n}\n"
       "print(bad, a[0], a[2]);\n",
       "0 aba ab49\n"},
      {"function f(a, b) { return a; }\nvar s = \"ab\";\nvar r = \"\";\n"
       "for (var i = 0; i < 50; ++i) r = f(s + \"x\", gc()) + f(s + i, gc());\n"
       "print(r);\n",
       "abxab49\n"},
      {"var s = \"ab\";\n"
       "for (var i = 0; i < 3; ++i) print(s + \"1\", gc(), s + i);\n",
       "ab1 undefined ab0\nab1 undefined ab1\nab1 undefined ab2\n"},
  };
  for (const auto &P : Progs) {
    for (bool Jit : {false, true}) {
      EngineOptions Opts;
      Opts.EnableJit = Jit;
      Engine E(Opts);
      std::string Out;
      E.setPrintHook([&](const std::string &S) { Out += S; });
      auto R = E.eval(P[0]);
      ASSERT_TRUE(R.ok()) << R.Err.describe() << "\n" << P[0];
      EXPECT_EQ(Out, P[1]) << "jit=" << Jit << "\n" << P[0];
      EXPECT_GT(E.stats().GCs, 0u);
    }
  }
}

// Each executed op is counted exactly once, as interpreted or recorded,
// whichever dispatch table runs it. The loop below executes
//   9 ops of set-up (three pushconst/setglobal/pop),
//   1000 iterations x 23 ops (loopheader, the 4-op test, jump, the 11-op
//     body, the 6-op update), and
//   6 ops at exit (loopheader, the 4-op test, returnundef),
// 23015 in all. With the JIT on, every recording aborts at the mixed
// string/number `+`, so no op runs natively and each is interpreted or
// recorded.
TEST(Interp, BytecodeCountsAreExact) {
  const char *Src = "var s = 0;\nvar t = \"\";\n"
                    "for (var i = 0; i < 1000; ++i) {\n"
                    "  s = s + i;\n  t = \"x\" + i;\n}\n";
  for (bool Jit : {false, true}) {
    EngineOptions Opts;
    Opts.EnableJit = Jit;
    Opts.CollectStats = true;
    Opts.Tier = TierMode::Trace; // hybrid would promote the aborting loop
    Engine E(Opts);
    ASSERT_TRUE(E.eval(Src).ok());
    VMStats S = E.stats();
    EXPECT_EQ(S.BytecodesInterpreted + S.BytecodesRecorded, 23015u)
        << "jit=" << Jit;
    EXPECT_EQ(S.BytecodesNative, 0u);
    if (Jit) {
      EXPECT_GT(S.BytecodesRecorded, 0u) << "no recording was in flight";
    } else {
      EXPECT_EQ(S.BytecodesRecorded, 0u);
    }
  }
}
