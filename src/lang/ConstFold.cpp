//===- lang/ConstFold.cpp - Constant expression folding --------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "lang/ConstFold.h"

#include "support/WrapInt.h"

#include <cmath>
#include <cstdint>

using namespace sest;

static std::optional<ConstValue> foldUnary(const UnaryExpr *U) {
  auto Operand = foldConstant(U->operand());
  if (!Operand)
    return std::nullopt;
  switch (U->op()) {
  case UnaryOp::Neg:
    if (Operand->IsDouble)
      return ConstValue::makeDouble(-Operand->DoubleVal);
    return ConstValue::makeInt(wrapSub(0, Operand->IntVal));
  case UnaryOp::LogicalNot:
    return ConstValue::makeInt(Operand->isTruthy() ? 0 : 1);
  case UnaryOp::BitNot:
    if (Operand->IsDouble)
      return std::nullopt;
    return ConstValue::makeInt(~Operand->IntVal);
  default:
    return std::nullopt; // Deref/AddrOf/inc/dec touch memory.
  }
}

static std::optional<ConstValue> foldBinary(const BinaryExpr *B) {
  // Short-circuit forms first: the RHS need not be constant when the LHS
  // decides.
  if (B->op() == BinaryOp::LogicalAnd || B->op() == BinaryOp::LogicalOr) {
    auto L = foldConstant(B->lhs());
    if (!L)
      return std::nullopt;
    bool LTruthy = L->isTruthy();
    if (B->op() == BinaryOp::LogicalAnd && !LTruthy)
      return ConstValue::makeInt(0);
    if (B->op() == BinaryOp::LogicalOr && LTruthy)
      return ConstValue::makeInt(1);
    auto R = foldConstant(B->rhs());
    if (!R)
      return std::nullopt;
    return ConstValue::makeInt(R->isTruthy() ? 1 : 0);
  }

  auto L = foldConstant(B->lhs());
  auto R = foldConstant(B->rhs());
  if (!L || !R)
    return std::nullopt;

  bool AnyDouble = L->IsDouble || R->IsDouble;
  switch (B->op()) {
  case BinaryOp::Add:
    if (AnyDouble)
      return ConstValue::makeDouble(L->asDouble() + R->asDouble());
    return ConstValue::makeInt(wrapAdd(L->IntVal, R->IntVal));
  case BinaryOp::Sub:
    if (AnyDouble)
      return ConstValue::makeDouble(L->asDouble() - R->asDouble());
    return ConstValue::makeInt(wrapSub(L->IntVal, R->IntVal));
  case BinaryOp::Mul:
    if (AnyDouble)
      return ConstValue::makeDouble(L->asDouble() * R->asDouble());
    return ConstValue::makeInt(wrapMul(L->IntVal, R->IntVal));
  case BinaryOp::Div:
    if (AnyDouble)
      return ConstValue::makeDouble(L->asDouble() / R->asDouble());
    // INT64_MIN / -1 traps in the host; left to the engines, which wrap.
    if (R->IntVal == 0 || (R->IntVal == -1 && L->IntVal == INT64_MIN))
      return std::nullopt;
    return ConstValue::makeInt(L->IntVal / R->IntVal);
  case BinaryOp::Rem:
    if (AnyDouble || R->IntVal == 0 ||
        (R->IntVal == -1 && L->IntVal == INT64_MIN))
      return std::nullopt;
    return ConstValue::makeInt(L->IntVal % R->IntVal);
  case BinaryOp::Shl:
    if (AnyDouble || R->IntVal < 0 || R->IntVal >= 63)
      return std::nullopt;
    return ConstValue::makeInt(L->IntVal << R->IntVal);
  case BinaryOp::Shr:
    if (AnyDouble || R->IntVal < 0 || R->IntVal >= 63)
      return std::nullopt;
    return ConstValue::makeInt(L->IntVal >> R->IntVal);
  case BinaryOp::BitAnd:
    if (AnyDouble)
      return std::nullopt;
    return ConstValue::makeInt(L->IntVal & R->IntVal);
  case BinaryOp::BitOr:
    if (AnyDouble)
      return std::nullopt;
    return ConstValue::makeInt(L->IntVal | R->IntVal);
  case BinaryOp::BitXor:
    if (AnyDouble)
      return std::nullopt;
    return ConstValue::makeInt(L->IntVal ^ R->IntVal);
  case BinaryOp::Lt:
    return ConstValue::makeInt(AnyDouble ? L->asDouble() < R->asDouble()
                                         : L->IntVal < R->IntVal);
  case BinaryOp::Gt:
    return ConstValue::makeInt(AnyDouble ? L->asDouble() > R->asDouble()
                                         : L->IntVal > R->IntVal);
  case BinaryOp::Le:
    return ConstValue::makeInt(AnyDouble ? L->asDouble() <= R->asDouble()
                                         : L->IntVal <= R->IntVal);
  case BinaryOp::Ge:
    return ConstValue::makeInt(AnyDouble ? L->asDouble() >= R->asDouble()
                                         : L->IntVal >= R->IntVal);
  case BinaryOp::Eq:
    return ConstValue::makeInt(AnyDouble ? L->asDouble() == R->asDouble()
                                         : L->IntVal == R->IntVal);
  case BinaryOp::Ne:
    return ConstValue::makeInt(AnyDouble ? L->asDouble() != R->asDouble()
                                         : L->IntVal != R->IntVal);
  case BinaryOp::LogicalAnd:
  case BinaryOp::LogicalOr:
    break; // handled above
  }
  return std::nullopt;
}

std::optional<ConstValue> sest::foldConstant(const Expr *E) {
  if (!E)
    return std::nullopt;
  switch (E->kind()) {
  case ExprKind::IntLit:
    return ConstValue::makeInt(exprCast<IntLitExpr>(E)->value());
  case ExprKind::DoubleLit:
    return ConstValue::makeDouble(exprCast<DoubleLitExpr>(E)->value());
  case ExprKind::Unary:
    return foldUnary(exprCast<UnaryExpr>(E));
  case ExprKind::Binary:
    return foldBinary(exprCast<BinaryExpr>(E));
  case ExprKind::Conditional: {
    const auto *C = exprCast<ConditionalExpr>(E);
    auto Cond = foldConstant(C->cond());
    if (!Cond)
      return std::nullopt;
    return foldConstant(Cond->isTruthy() ? C->trueExpr() : C->falseExpr());
  }
  case ExprKind::Cast: {
    const auto *C = exprCast<CastExpr>(E);
    auto V = foldConstant(C->operand());
    if (!V)
      return std::nullopt;
    const Type *T = C->targetType();
    if (T->isDouble())
      return ConstValue::makeDouble(V->asDouble());
    if (T->isIntegral())
      return ConstValue::makeInt(V->IsDouble
                                     ? static_cast<int64_t>(V->DoubleVal)
                                     : V->IntVal);
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

std::optional<int64_t> sest::foldIntConstant(const Expr *E) {
  auto V = foldConstant(E);
  if (!V || V->IsDouble)
    return std::nullopt;
  return V->IntVal;
}
