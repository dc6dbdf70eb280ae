package repro.core

import scala.collection.mutable
import Ast._

/** Remote-call normalization (a mini A-normal form).
  *
  * The splitting algorithm of §2.3 suspends a function *at the statement
  * that makes a remote call*. To make every split point a whole statement,
  * this pass hoists each remote call out of nested expression positions into
  * its own assignment `$rN = target.method(args)` whose receiver and
  * arguments are themselves remote-free. Conditions of `if`/`while` and
  * loop iterables are hoisted too (a `while` condition is re-hoisted at the
  * end of the loop body so it is re-evaluated each iteration, preserving the
  * original semantics). Short-circuit `and`/`or` with a remote call on the
  * right-hand side is rewritten into an `if` so the call stays conditional.
  *
  * Postcondition (checked by [[Anf.isNormalized]]): remote calls appear
  * *only* as the entire right-hand side of an `Assign`, and nowhere else.
  */
object Anf {

  /** Normalize every method of every class. */
  def normalize(p: Program): Program =
    Program(p.classes.map(c => c.copy(methods = c.methods.map(normalize))))

  /** Normalize one method. Temp names are `$r0, $r1, ...` per method. */
  def normalize(fd: FunctionDef): FunctionDef = {
    val n = new Normalizer
    fd.copy(body = n.body(fd.body))
  }

  private final class Normalizer {
    private var counter = 0
    private def fresh(): String = { val v = s"$$r$counter"; counter += 1; v }

    def body(stmts: List[Stmt]): List[Stmt] = stmts.flatMap(stmt)

    private def stmt(s: Stmt): List[Stmt] = s match {
      // Direct `x = target.m(args)` keeps x as the call's result variable
      // (matches the paper's buy_item example where `is_removed` becomes the
      // parameter of the continuation block).
      case Assign(nm, t, RemoteCall(tg, m, as)) =>
        val (p1, tg2) = hoist(tg)
        val (p2, as2) = hoistAll(as)
        p1 ++ p2 :+ Assign(nm, t, RemoteCall(tg2, m, as2))
      case Assign(nm, t, v) =>
        val (p, v2) = hoist(v)
        p :+ Assign(nm, t, v2)
      case SetVar(nm, v) =>
        val (p, v2) = hoist(v)
        p :+ SetVar(nm, v2)
      case SetField(nm, v) =>
        val (p, v2) = hoist(v)
        p :+ SetField(nm, v2)
      case ExprStmt(RemoteCall(tg, m, as)) =>
        val (p1, tg2) = hoist(tg)
        val (p2, as2) = hoistAll(as)
        val tmp = fresh()
        p1 ++ p2 :+ Assign(tmp, EType.TInfer, RemoteCall(tg2, m, as2))
      case ExprStmt(e) =>
        val (p, e2) = hoist(e)
        p :+ ExprStmt(e2)
      case Return(v) =>
        val (p, v2) = hoist(v)
        p :+ Return(v2)
      case If(c, t, e) =>
        val (p, c2) = hoist(c)
        p :+ If(c2, body(t), body(e))
      case ForEach(nm, et, it, b) =>
        val (p, it2) = hoist(it)
        p :+ ForEach(nm, et, it2, body(b))
      case While(c, b) if hasRemote(c) =>
        // while(c) body  ==>  p; $t = c'; while($t) { body; p; $t = c' }
        val (p, c2) = hoist(c)
        val tmp = fresh()
        p ++ List(
          Assign(tmp, EType.TBool, c2),
          While(Var(tmp), body(b) ++ p :+ SetVar(tmp, c2)),
        )
      case While(c, b) =>
        List(While(c, body(b)))
    }

    private def hoistAll(es: List[Expr]): (List[Stmt], List[Expr]) = {
      val ps = mutable.ListBuffer.empty[Stmt]
      val out = es.map { e => val (p, e2) = hoist(e); ps ++= p; e2 }
      (ps.toList, out)
    }

    /** Returns (prelude statements, remote-free expression). */
    private def hoist(e: Expr): (List[Stmt], Expr) = {
      if (!hasRemote(e)) return (Nil, e)
      e match {
        case RemoteCall(tg, m, as) =>
          val (p1, tg2) = hoist(tg)
          val (p2, as2) = hoistAll(as)
          val tmp = fresh()
          (p1 ++ p2 :+ Assign(tmp, EType.TInfer, RemoteCall(tg2, m, as2)), Var(tmp))
        case BinOp(op @ ("and" | "or"), l, r) if hasRemote(r) =>
          // Keep the right-hand side conditional: rewrite to an if.
          val (pl, l2) = hoist(l)
          val (pr, r2) = hoist(r)
          val tmp = fresh()
          val guard = if (op == "and") Var(tmp) else Not(Var(tmp))
          (pl ++ List(
            Assign(tmp, EType.TBool, l2),
            If(guard, pr :+ SetVar(tmp, r2), Nil),
          ), Var(tmp))
        case BinOp(op, l, r) =>
          val (pl, l2) = hoist(l)
          val (pr, r2) = hoist(r)
          (pl ++ pr, BinOp(op, l2, r2))
        case Not(x) => val (p, x2) = hoist(x); (p, Not(x2))
        case Neg(x) => val (p, x2) = hoist(x); (p, Neg(x2))
        case MakeList(t, items) =>
          val (p, items2) = hoistAll(items)
          (p, MakeList(t, items2))
        case Builtin(n2, args) =>
          val (p, args2) = hoistAll(args)
          (p, Builtin(n2, args2))
        case SelfCall(m, args) =>
          // The checker guarantees self-call targets are remote-free, but
          // their *arguments* may contain remote calls.
          val (p, args2) = hoistAll(args)
          (p, SelfCall(m, args2))
        case leaf => (Nil, leaf)
      }
    }
  }

  /** The postcondition splitting relies on. */
  def isNormalized(fd: FunctionDef): Boolean = {
    def okExpr(e: Expr): Boolean = !hasRemote(e)
    def okBody(b: List[Stmt]): Boolean = b.forall {
      case Assign(_, _, RemoteCall(tg, _, as)) => okExpr(tg) && as.forall(okExpr)
      case If(c, t, e)                         => okExpr(c) && okBody(t) && okBody(e)
      case ForEach(_, _, it, bd)               => okExpr(it) && okBody(bd)
      case While(c, bd)                        => okExpr(c) && okBody(bd)
      case s                                   => stmtExprs(s).forall(okExpr)
    }
    okBody(fd.body)
  }
}
