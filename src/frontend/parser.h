//===- parser.h - One-pass parser / bytecode compiler ----------------------===//
//
// A single-pass recursive-descent + precedence-climbing compiler from
// MiniJS source to bytecode. There is no separate AST: like SpiderMonkey's
// bytecode compiler, we emit code while parsing, which also makes it easy
// to guarantee the paper's invariant that every backward branch targets a
// LoopHeader bytecode.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_FRONTEND_PARSER_H
#define TRACEJIT_FRONTEND_PARSER_H

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/result.h"
#include "frontend/bytecode.h"
#include "frontend/lexer.h"
#include "interp/vmcontext.h"

namespace tracejit {

class Parser {
public:
  Parser(VMContext &Ctx, std::string_view Source);

  /// Compile a whole program. Function declarations are compiled to their
  /// own scripts and listed in the top-level script's FunctionDecls, which
  /// Interpreter::run binds to globals; the returned script is the
  /// top-level code. Returns nullptr on error.
  FunctionScript *parseProgram();

  bool hadError() const { return HadError; }
  const std::string &errorMessage() const { return ErrorMsg; }
  /// Structured form of the first error (Kind is Lex for bad characters /
  /// unterminated strings, Parse otherwise), with the token's line/column.
  const EngineError &error() const { return Err; }

private:
  // --- Token plumbing -------------------------------------------------------
  void advance();
  bool check(Tok K) const { return Cur.Kind == K; }
  bool accept(Tok K);
  void expect(Tok K, const char *What);
  void errorAt(const Token &T, const std::string &Msg);

  // --- Function compilation state -------------------------------------------
  struct LoopCtx {
    uint32_t HeaderPc;
    uint32_t LoopIndex;
    std::vector<uint32_t> BreakPatches;
    std::vector<uint32_t> ContinuePatches;
    bool ContinueTargetsHeader; ///< while/do: continue jumps to the header.
  };

  FunctionScript *Script = nullptr;
  bool InFunction = false;
  std::unordered_map<std::string, uint16_t> Locals;
  std::vector<LoopCtx> LoopStack;
  int StackDepth = 0;
  /// Statement nesting depth; 1 = directly at program/function top level.
  /// Top-level (depth-1, non-function) expression statements emit PopResult
  /// so the engine can report the program's last expression value.
  int StmtDepth = 0;

  // --- Emission ---------------------------------------------------------------
  void emitOp(Op O, int StackDelta);
  void emitU8(uint8_t B) { Script->Code.push_back(B); }
  void emitU16(uint16_t V);
  void emitU32(uint32_t V);
  uint32_t here() const { return (uint32_t)Script->Code.size(); }
  /// Emit a jump with a placeholder target; returns the operand pc to patch.
  uint32_t emitJump(Op O, int StackDelta);
  void patchJump(uint32_t OperandPc, uint32_t Target);
  void adjustStack(int Delta);

  uint16_t addConst(Value V);
  uint16_t addNumberConst(double D);
  uint16_t addAtom(std::string_view Name);
  /// Reserve a fresh property inline-cache slot for a GetProp/SetProp site.
  uint16_t allocIC();

  // --- References (assignable expressions) ------------------------------------
  enum class RefKind : uint8_t { None, Local, Global, Prop, Elem };
  struct Ref {
    RefKind Kind = RefKind::None;
    uint16_t Slot = 0; ///< Local/Global slot or Prop atom index.
  };
  void loadRef(const Ref &R);
  void storeRef(const Ref &R); ///< Stack: [ref-operands] value -> value.
  void dupRefOperands(const Ref &R);

  // --- Grammar -----------------------------------------------------------------
  void statement();
  void block();
  void varStatement();
  void functionDeclaration();
  void ifStatement();
  void whileStatement();
  void doWhileStatement();
  void forStatement();
  void breakStatement();
  void continueStatement();
  void returnStatement();
  void expressionStatement();

  void expression() { parsePrecedence(PrecAssignment); }
  enum Precedence {
    PrecNone,
    PrecAssignment, // = += ...
    PrecTernary,    // ?:
    PrecOr,         // ||
    PrecAnd,        // &&
    PrecBitOr,      // |
    PrecBitXor,     // ^
    PrecBitAnd,     // &
    PrecEquality,   // == != === !==
    PrecRelational, // < > <= >=
    PrecShift,      // << >> >>>
    PrecAdditive,   // + -
    PrecMultiplicative, // * / %
    PrecUnary,
  };
  void parsePrecedence(int MinPrec);
  Ref parseUnaryRef();
  Ref parsePostfixChain(Ref R);
  void parsePrimaryInto(Ref &R);
  void callArguments(uint8_t &ArgC);

  static int binaryPrecedence(Tok T);
  static Op binaryOp(Tok T);
  static bool isAssignToken(Tok T);
  static Op compoundOp(Tok T);

  uint16_t localSlot(std::string_view Name, bool Declare);
  uint16_t globalSlot(std::string_view Name);

  VMContext &Ctx;
  Lexer Lex;
  Token Cur;
  Token Prev;
  bool HadError = false;
  std::string ErrorMsg;
  EngineError Err;
};

/// Convenience entry point: compile \p Source, returning the top-level
/// script or nullptr (structured error in the out-param).
FunctionScript *compileSource(VMContext &Ctx, std::string_view Source,
                              EngineError *ErrorOut);

/// Legacy convenience overload: error as a flat message string.
FunctionScript *compileSource(VMContext &Ctx, std::string_view Source,
                              std::string *ErrorOut);

} // namespace tracejit

#endif // TRACEJIT_FRONTEND_PARSER_H
