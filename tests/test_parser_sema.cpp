//===- tests/test_parser_sema.cpp - Parser and sema unit tests -------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "lang/AstPrinter.h"
#include "lang/ConstFold.h"

#include <gtest/gtest.h>

using namespace sest;
using namespace sest::test;

namespace {

TEST(Parser, MinimalMain) {
  auto C = compile("int main() { return 0; }");
  ASSERT_TRUE(C);
  const FunctionDecl *Main = C->fn("main");
  ASSERT_TRUE(Main);
  EXPECT_TRUE(Main->isDefined());
  EXPECT_TRUE(Main->type()->returnType()->isInt());
}

TEST(Parser, GlobalVariablesWithInitializers) {
  auto C = compile("int x = 3; double d = 2.5; int a[4] = {1,2,3,4};\n"
                   "int main() { return x; }");
  ASSERT_TRUE(C);
  EXPECT_EQ(C->unit().Globals.size(), 3u);
  EXPECT_TRUE(C->unit().Globals[2]->type()->isArray());
}

TEST(Parser, StructDeclarationAndUse) {
  auto C = compile("struct point { int x; int y; };\n"
                   "int main() { struct point p; p.x = 1; p.y = 2;\n"
                   "  return p.x + p.y; }");
  ASSERT_TRUE(C);
}

TEST(Parser, SelfReferentialStruct) {
  auto C = compile("struct node { int value; struct node *next; };\n"
                   "int main() { struct node n; n.next = NULL;\n"
                   "  return n.next == NULL; }");
  ASSERT_TRUE(C);
}

TEST(Parser, FunctionPointerDeclarator) {
  auto C = compile("int add(int a, int b) { return a + b; }\n"
                   "int main() { int (*op)(int, int); op = add;\n"
                   "  return op(2, 3); }");
  ASSERT_TRUE(C);
  // "op = add" is an address-of operation on add.
  EXPECT_EQ(C->fn("add")->addressTakenCount(), 1u);
}

TEST(Parser, ArrayOfFunctionPointers) {
  auto C = compile(
      "int one() { return 1; }\n"
      "int two() { return 2; }\n"
      "int (*table[2])() = { one, two };\n"
      "int main() { return table[0]() + table[1](); }");
  ASSERT_TRUE(C);
  EXPECT_EQ(C->fn("one")->addressTakenCount(), 1u);
  EXPECT_EQ(C->fn("two")->addressTakenCount(), 1u);
}

TEST(Parser, FunctionReturningPointer) {
  auto C = compile("char *first(char *s) { return s; }\n"
                   "int main() { return 0; }");
  ASSERT_TRUE(C);
  const FunctionDecl *F = C->fn("first");
  ASSERT_TRUE(F);
  EXPECT_TRUE(F->type()->returnType()->isPointer());
}

TEST(Parser, TwoDimensionalArrays) {
  auto C = compile("int m[2][3];\n"
                   "int main() { m[1][2] = 7; return m[1][2]; }");
  ASSERT_TRUE(C);
  EXPECT_EQ(C->unit().Globals[0]->type()->sizeInCells(), 6);
}

TEST(Parser, PrototypeThenDefinitionMerges) {
  auto C = compile("int f(int x);\n"
                   "int main() { return f(3); }\n"
                   "int f(int x) { return x * 2; }");
  ASSERT_TRUE(C);
  // Only one canonical f.
  unsigned Count = 0;
  for (const FunctionDecl *F : C->unit().Functions)
    if (F->name() == "f")
      ++Count;
  EXPECT_EQ(Count, 1u);
  EXPECT_TRUE(C->fn("f")->isDefined());
}

TEST(Parser, SizeofFoldsToCells) {
  auto C = compile("struct pair { int a; int b; };\n"
                   "int main() { return sizeof(struct pair) + "
                   "sizeof(int) + sizeof(int[10]); }");
  ASSERT_TRUE(C);
  RunResult R = run(*C);
  EXPECT_EQ(R.ExitCode, 2 + 1 + 10);
}

TEST(Parser, PrecedenceAndAssociativity) {
  EXPECT_EQ(compileAndRun("int main() { return 2 + 3 * 4; }").ExitCode, 14);
  EXPECT_EQ(compileAndRun("int main() { return (2 + 3) * 4; }").ExitCode,
            20);
  EXPECT_EQ(compileAndRun("int main() { return 20 - 6 - 4; }").ExitCode,
            10);
  EXPECT_EQ(compileAndRun("int main() { return 1 << 3 | 1; }").ExitCode, 9);
  EXPECT_EQ(
      compileAndRun("int main() { int x; int y; x = y = 5; return x; }")
          .ExitCode,
      5);
  EXPECT_EQ(compileAndRun("int main() { return 1 ? 2 : 3; }").ExitCode, 2);
  EXPECT_EQ(
      compileAndRun("int main() { return 0 ? 1 : 0 ? 2 : 3; }").ExitCode,
      3);
}

TEST(Parser, CastSyntax) {
  EXPECT_EQ(compileAndRun("int main() { return (int)3.9; }").ExitCode, 3);
  EXPECT_EQ(
      compileAndRun("int main() { double d; d = (double)7 / 2;\n"
                    "  return (int)(d * 2.0); }")
          .ExitCode,
      7);
}

//===----------------------------------------------------------------------===//
// Sema diagnostics
//===----------------------------------------------------------------------===//

TEST(Sema, UndeclaredIdentifier) {
  std::string E = compileExpectError("int main() { return zzz; }");
  EXPECT_NE(E.find("undeclared identifier"), std::string::npos) << E;
}

TEST(Sema, RedefinedVariable) {
  std::string E =
      compileExpectError("int main() { int x; int x; return 0; }");
  EXPECT_NE(E.find("redefinition"), std::string::npos) << E;
}

TEST(Sema, CallArityMismatch) {
  std::string E = compileExpectError(
      "int f(int a) { return a; } int main() { return f(1, 2); }");
  EXPECT_NE(E.find("argument"), std::string::npos) << E;
}

TEST(Sema, AssignToRvalue) {
  std::string E = compileExpectError("int main() { 3 = 4; return 0; }");
  EXPECT_NE(E.find("lvalue"), std::string::npos) << E;
}

TEST(Sema, PointerIntAssignmentRejected) {
  std::string E = compileExpectError(
      "int main() { int *p; p = 7; return 0; }");
  EXPECT_NE(E.find("cannot assign"), std::string::npos) << E;
}

TEST(Sema, NullPointerConstantAllowed) {
  auto C = compile("int main() { int *p; p = 0; return p == NULL; }");
  ASSERT_TRUE(C);
}

TEST(Sema, BreakOutsideLoop) {
  std::string E = compileExpectError("int main() { break; return 0; }");
  EXPECT_NE(E.find("break"), std::string::npos) << E;
}

TEST(Sema, ContinueInsideSwitchNeedsLoop) {
  std::string E = compileExpectError(
      "int main() { switch (1) { case 1: continue; } return 0; }");
  EXPECT_NE(E.find("continue"), std::string::npos) << E;
}

TEST(Sema, DuplicateCaseValue) {
  std::string E = compileExpectError(
      "int main() { switch (1) { case 2: break; case 2: break; }\n"
      "  return 0; }");
  EXPECT_NE(E.find("duplicate case"), std::string::npos) << E;
}

TEST(Sema, GotoUnknownLabel) {
  std::string E =
      compileExpectError("int main() { goto nowhere; return 0; }");
  EXPECT_NE(E.find("label"), std::string::npos) << E;
}

TEST(Sema, ReturnValueFromVoid) {
  std::string E = compileExpectError(
      "void f() { return 3; } int main() { return 0; }");
  EXPECT_NE(E.find("void"), std::string::npos) << E;
}

TEST(Sema, MissingReturnValue) {
  std::string E =
      compileExpectError("int f() { return; } int main() { return 0; }");
  EXPECT_NE(E.find("returns no value"), std::string::npos) << E;
}

TEST(Sema, CallsForbiddenInGlobalInitializers) {
  std::string E = compileExpectError(
      "int f() { return 1; } int g = f(); int main() { return 0; }");
  EXPECT_NE(E.find("global initializer"), std::string::npos) << E;
}

TEST(Sema, UnknownStructField) {
  std::string E = compileExpectError(
      "struct p { int x; }; int main() { struct p v; return v.y; }");
  EXPECT_NE(E.find("no field"), std::string::npos) << E;
}

TEST(Sema, ConflictingPrototype) {
  std::string E = compileExpectError(
      "int f(int);\n"
      "double f(int x) { return 1.0; }\n"
      "int main() { return 0; }");
  EXPECT_NE(E.find("conflicting"), std::string::npos) << E;
}

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

TEST(ConstFold, BasicArithmetic) {
  auto C = compile("int x = 2 + 3 * 4; int main() { return x; }");
  ASSERT_TRUE(C);
  auto V = foldIntConstant(C->unit().Globals[0]->init());
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 14);
}

/// -INT64_MIN wraps to INT64_MIN, as it does at run time in every engine.
TEST(ConstFold, NegationOfInt64MinWraps) {
  auto C = compile("int x = -(-9223372036854775807 - 1);\n"
                   "int main() { return x; }");
  ASSERT_TRUE(C);
  auto V = foldIntConstant(C->unit().Globals[0]->init());
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, INT64_MIN);
}

TEST(ConstFold, ShortCircuitWithNonConstRhs) {
  // "0 && f()" folds even though f() does not.
  auto C = compile("int f() { return 1; }\n"
                   "int main() { if (0 && f()) return 1; return 0; }");
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("main");
  ASSERT_TRUE(G);
  // Find the conditional branch and fold its condition.
  for (const auto &B : G->blocks()) {
    if (B->terminator() == TerminatorKind::CondBranch) {
      auto V = foldConstant(B->condOrValue());
      ASSERT_TRUE(V.has_value());
      EXPECT_FALSE(V->isTruthy());
    }
  }
}

TEST(ConstFold, DivisionByZeroDoesNotFold) {
  auto C = compile("int main() { int x = 1; if (x / 0 == 0) return 1;\n"
                   "  return 0; }");
  // Division by zero at runtime — but folding must simply decline.
  ASSERT_TRUE(C);
  const Cfg *G = C->cfg("main");
  for (const auto &B : G->blocks()) {
    if (B->terminator() == TerminatorKind::CondBranch) {
      EXPECT_FALSE(foldConstant(B->condOrValue()).has_value());
    }
  }
}

TEST(ConstFold, NonConstantExpressionsDecline) {
  auto C = compile("int g = 1; int main() { return g + 1; }");
  ASSERT_TRUE(C);
  // "g + 1" references memory: not a constant.
  const Cfg *G = C->cfg("main");
  const Expr *Ret = nullptr;
  for (const auto &B : G->blocks())
    if (B->terminator() == TerminatorKind::Return)
      Ret = B->condOrValue();
  ASSERT_TRUE(Ret);
  EXPECT_FALSE(foldConstant(Ret).has_value());
}

//===----------------------------------------------------------------------===//
// AST printing
//===----------------------------------------------------------------------===//

TEST(AstPrinter, RendersControlFlow) {
  auto C = compile("int main() { int i;\n"
                   "  for (i = 0; i < 3; i++) { if (i == 1) continue; }\n"
                   "  while (i > 0) i--;\n"
                   "  return i; }");
  ASSERT_TRUE(C);
  std::string S = printFunctionAst(C->fn("main"));
  EXPECT_NE(S.find("for (...)"), std::string::npos) << S;
  EXPECT_NE(S.find("while ((i > 0))"), std::string::npos) << S;
  EXPECT_NE(S.find("continue;"), std::string::npos) << S;
}

} // namespace
