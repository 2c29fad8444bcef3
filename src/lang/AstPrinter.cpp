//===- lang/AstPrinter.cpp - AST pretty printer ----------------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"

#include "support/StringUtils.h"

using namespace sest;

std::string sest::printExpr(const Expr *E) {
  if (!E)
    return "<null>";
  switch (E->kind()) {
  case ExprKind::IntLit:
    return std::to_string(exprCast<IntLitExpr>(E)->value());
  case ExprKind::DoubleLit:
    return formatDouble(exprCast<DoubleLitExpr>(E)->value(), 6);
  case ExprKind::StringLit:
    return "\"" + exprCast<StringLitExpr>(E)->value() + "\"";
  case ExprKind::DeclRef:
    return exprCast<DeclRefExpr>(E)->name();
  case ExprKind::Unary: {
    const auto *U = exprCast<UnaryExpr>(E);
    if (U->op() == UnaryOp::PostInc || U->op() == UnaryOp::PostDec)
      return concat("(", printExpr(U->operand()), unaryOpSpelling(U->op()),
                    ")");
    return concat("(", unaryOpSpelling(U->op()), printExpr(U->operand()),
                  ")");
  }
  case ExprKind::Binary: {
    const auto *B = exprCast<BinaryExpr>(E);
    return concat("(", printExpr(B->lhs()), " ", binaryOpSpelling(B->op()),
                  " ", printExpr(B->rhs()), ")");
  }
  case ExprKind::Assign: {
    const auto *A = exprCast<AssignExpr>(E);
    std::string Op =
        A->compoundOp() ? std::string(binaryOpSpelling(*A->compoundOp())) +
                              "="
                        : "=";
    return concat("(", printExpr(A->lhs()), " ", Op, " ", printExpr(A->rhs()),
                  ")");
  }
  case ExprKind::Conditional: {
    const auto *C = exprCast<ConditionalExpr>(E);
    return concat("(", printExpr(C->cond()), " ? ", printExpr(C->trueExpr()),
                  " : ", printExpr(C->falseExpr()), ")");
  }
  case ExprKind::Call: {
    const auto *C = exprCast<CallExpr>(E);
    std::string S = printExpr(C->callee()) + "(";
    for (size_t I = 0; I < C->args().size(); ++I) {
      if (I != 0)
        S += ", ";
      S += printExpr(C->args()[I]);
    }
    return S + ")";
  }
  case ExprKind::Index: {
    const auto *I = exprCast<IndexExpr>(E);
    return printExpr(I->base()) + "[" + printExpr(I->index()) + "]";
  }
  case ExprKind::Member: {
    const auto *M = exprCast<MemberExpr>(E);
    return printExpr(M->base()) + (M->isArrow() ? "->" : ".") +
           M->fieldName();
  }
  case ExprKind::Cast: {
    const auto *C = exprCast<CastExpr>(E);
    return concat("(", C->targetType()->str(), ")", printExpr(C->operand()));
  }
  case ExprKind::InitList: {
    const auto *L = exprCast<InitListExpr>(E);
    std::string S = "{";
    for (size_t I = 0; I < L->elements().size(); ++I) {
      if (I != 0)
        S += ", ";
      S += printExpr(L->elements()[I]);
    }
    return S + "}";
  }
  }
  return "<expr>";
}

namespace {

class AstTreePrinter {
public:
  AstTreePrinter(const AstPrintOptions &Options) : Options(Options) {}

  std::string run(const FunctionDecl *F) {
    Out += "function " + F->name() + " : " + F->type()->str() + "\n";
    printStmt(F->body(), 1);
    return std::move(Out);
  }

private:
  void line(unsigned Depth, const Stmt *S, const std::string &Text) {
    if (Options.StmtFrequencies) {
      auto It = Options.StmtFrequencies->find(S->nodeId());
      std::string Freq =
          It != Options.StmtFrequencies->end()
              ? formatDouble(It->second, 2)
              : std::string("-");
      Out += padLeft(Freq, 8) + "  ";
    }
    Out.append(Depth * 2, ' ');
    Out += Text;
    Out += '\n';
  }

  void printStmt(const Stmt *S, unsigned Depth) {
    if (!S)
      return;
    switch (S->kind()) {
    case StmtKind::Expr:
      line(Depth, S, printExpr(stmtCast<ExprStmt>(S)->expr()) + ";");
      return;
    case StmtKind::Decl: {
      const VarDecl *V = stmtCast<DeclStmt>(S)->var();
      std::string Text = V->type()->str() + " " + V->name();
      if (V->init())
        Text += concat(" = ", printExpr(V->init()));
      line(Depth, S, Text + ";");
      return;
    }
    case StmtKind::Compound:
      line(Depth, S, "{");
      for (const Stmt *Child : stmtCast<CompoundStmt>(S)->body())
        printStmt(Child, Depth + 1);
      line(Depth, S, "}");
      return;
    case StmtKind::If: {
      const auto *I = stmtCast<IfStmt>(S);
      line(Depth, S, concat("if (", printExpr(I->cond()), ")"));
      printStmt(I->thenStmt(), Depth + 1);
      if (I->elseStmt()) {
        line(Depth, S, "else");
        printStmt(I->elseStmt(), Depth + 1);
      }
      return;
    }
    case StmtKind::While: {
      const auto *W = stmtCast<WhileStmt>(S);
      line(Depth, S, concat("while (", printExpr(W->cond()), ")"));
      printStmt(W->body(), Depth + 1);
      return;
    }
    case StmtKind::DoWhile: {
      const auto *D = stmtCast<DoWhileStmt>(S);
      line(Depth, S, "do");
      printStmt(D->body(), Depth + 1);
      line(Depth, S, concat("while (", printExpr(D->cond()), ");"));
      return;
    }
    case StmtKind::For: {
      const auto *F = stmtCast<ForStmt>(S);
      line(Depth, S, "for (...)");
      printStmt(F->init(), Depth + 1);
      if (F->cond())
        line(Depth + 1, S, concat("cond: ", printExpr(F->cond())));
      if (F->step())
        line(Depth + 1, S, concat("step: ", printExpr(F->step())));
      printStmt(F->body(), Depth + 1);
      return;
    }
    case StmtKind::Switch: {
      const auto *Sw = stmtCast<SwitchStmt>(S);
      line(Depth, S, concat("switch (", printExpr(Sw->cond()), ")"));
      printStmt(Sw->body(), Depth + 1);
      return;
    }
    case StmtKind::CaseLabel:
      line(Depth, S,
           concat("case ",
                  std::to_string(stmtCast<CaseLabelStmt>(S)->value()), ":"));
      return;
    case StmtKind::DefaultLabel:
      line(Depth, S, "default:");
      return;
    case StmtKind::Break:
      line(Depth, S, "break;");
      return;
    case StmtKind::Continue:
      line(Depth, S, "continue;");
      return;
    case StmtKind::Return: {
      const auto *R = stmtCast<ReturnStmt>(S);
      line(Depth, S,
           R->value() ? concat("return ", printExpr(R->value()), ";")
                      : "return;");
      return;
    }
    case StmtKind::Goto:
      line(Depth, S, "goto " + stmtCast<GotoStmt>(S)->target() + ";");
      return;
    case StmtKind::Label:
      line(Depth, S, stmtCast<LabelStmt>(S)->name() + ":");
      return;
    case StmtKind::Null:
      line(Depth, S, ";");
      return;
    }
  }

  const AstPrintOptions &Options;
  std::string Out;
};

} // namespace

std::string sest::printFunctionAst(const FunctionDecl *F,
                                   const AstPrintOptions &Options) {
  if (!F->isDefined())
    return "function " + F->name() + " (no body)\n";
  AstTreePrinter P(Options);
  return P.run(F);
}
