package repro.core

import Ast._
import StateMachine._

/** The names behind an array of values: slot `i` holds the value named
  * `names(i)`. The names are distinct and sorted, so walking the slots in
  * order visits the names in the order the codec writes them, and a class's
  * state or a method's variables encode to the same text as the map they
  * replace. A `null` slot is unbound (a variable not yet assigned).
  * Equality is by names, so equal programs compile to equal layouts. */
final class Layout private (val names: Array[String]) extends Serializable {
  private lazy val index: Map[String, Int] = names.iterator.zipWithIndex.toMap

  def size: Int = names.length

  /** The slot of `name`, or -1. */
  def slotOf(name: String): Int = index.getOrElse(name, -1)

  def slot(name: String): Int = index.getOrElse(name, throw new NoSuchElementException(s"no slot for $name"))

  /** The bound slots of `values` as a map. */
  def toMap(values: Array[Value]): Map[String, Value] = {
    val b = Map.newBuilder[String, Value]
    var i = 0
    while (i < names.length) { if (values(i) != null) b += names(i) -> values(i); i += 1 }
    b.result()
  }

  /** `m` as an array under this layout; names missing from `m` are unbound,
    * and a name without a slot throws. */
  def array(m: Map[String, Value]): Array[Value] = updated(new Array[Value](names.length), m)

  /** A copy of `values` with the entries of `m` written into their slots. */
  def updated(values: Array[Value], m: Map[String, Value]): Array[Value] = {
    val a = values.clone()
    m.foreach { case (k, v) => a(slot(k)) = v }
    a
  }

  /** `env`'s bound values in a fresh array under this layout: a copy of
    * its array when it is under this layout, else matched by name. */
  def remap(env: Env): Array[Value] =
    if (env.layout == this) env.values.clone()
    else {
      val a = new Array[Value](names.length)
      var i = 0
      while (i < env.values.length) {
        if (env.values(i) != null) a(slot(env.layout.names(i))) = env.values(i)
        i += 1
      }
      a
    }

  override def equals(o: Any): Boolean = o match {
    case l: Layout => (l eq this) || names.sameElements(l.names)
    case _         => false
  }
  override def hashCode: Int = names.toSeq.hashCode
  override def toString: String = names.mkString("Layout(", ", ", ")")
}

object Layout {
  def of(names: Iterable[String]): Layout = new Layout(names.toArray.distinct.sorted)

  /** A layout of names already distinct and sorted (as the codec reads
    * them), or None. */
  def sorted(names: Array[String]): Option[Layout] = {
    var i = 1
    while (i < names.length && names(i - 1) < names(i)) i += 1
    if (i >= names.length) Some(new Layout(names)) else None
  }
}

/** A variable environment as events carry it: values under a layout. A
  * method's own events use its variable layout; an event read off the wire
  * has a layout of just the names it carries. Equality is by content, the
  * bound (name, value) pairs, so two envs that bind the same names to the
  * same values are equal whatever their layouts. `values` is never written
  * once the env is built. */
final class Env(val layout: Layout, val values: Array[Value]) extends Serializable {

  def apply(name: String): Value = {
    val i = layout.slotOf(name)
    if (i < 0 || values(i) == null) throw new NoSuchElementException(s"unbound var $name")
    values(i)
  }

  def toMap: Map[String, Value] = layout.toMap(values)

  /** This env with `name` bound to `v`: a copy of the array with `v` in its
    * slot, or, when the layout has no slot for `name`, a named env. */
  def updated(name: String, v: Value): Env = {
    val i = layout.slotOf(name)
    if (i < 0) Env(toMap + (name -> v))
    else { val a = values.clone(); a(i) = v; new Env(layout, a) }
  }

  private def bound: Iterator[(String, Value)] =
    layout.names.iterator.zip(values.iterator).filter(_._2 != null)

  override def equals(o: Any): Boolean = o match {
    case e: Env => bound.sameElements(e.bound)
    case _      => false
  }
  override def hashCode: Int = bound.toList.hashCode
  override def toString: String = bound.map { case (k, v) => s"$k -> $v" }.mkString("Env(", ", ", ")")
}

object Env {
  def apply(m: Map[String, Value]): Env = {
    val kvs = m.toArray
    kvs.sortInPlaceBy(_._1)
    new Env(Layout.sorted(kvs.map(_._1)).get, kvs.map(_._2)) // a map's keys are distinct
  }

  /** The env of `names(i)` bound to `values(i)`, in the order the codec
    * read them; a name read twice keeps its last value. */
  def read(names: Array[String], values: Array[Value]): Env = Layout.sorted(names) match {
    case Some(l) => new Env(l, values)
    case None    => Env(names.iterator.zip(values.iterator).toMap)
  }
}

/** The resolve pass: rewrites every variable and field access to a slot
  * index, binds each builtin call to its [[Builtins.table]] entry and each
  * `self` call to its target, once, at compile time.
  *
  * A method's variable layout holds its parameters and every variable its
  * body assigns (declarations, reassignments, loop variables and the
  * split's call-result variables), plus any it only reads, so that reading
  * a variable never assigned fails at run time, as before, with an unbound
  * slot. Fields resolve against the class's [[Ast.ClassDef.layout]]; an
  * undeclared field fails here. Names are kept next to the slots, so
  * `Block.params`/`defines` and tree equality are unchanged.
  */
object Resolve {

  /** A method body resolved to slots: `vars` is its variable layout and
    * `params` the slots of its parameters, in order. */
  final case class Code(fd: FunctionDef, vars: Layout) {
    val params: Array[Int] = fd.params.map(p => vars.slot(p._1)).toArray
  }

  /** A `self` call's target. [[ClassSlots]] binds it once every target of
    * the class is resolved, so that methods may call each other (or
    * themselves) through `self`. */
  final class Callee extends Serializable {
    private[core] var code: Code = _
  }

  /** The resolved bodies of one class. `selfTargets` are the methods run
    * whole (inline), the only ones a `self` call may reach; [[codes]]
    * holds them resolved. */
  final class ClassSlots(cd: ClassDef, selfTargets: List[FunctionDef]) {
    private val callees: Map[String, Callee] = selfTargets.map(_.name -> new Callee).toMap

    val codes: Map[String, Code] = selfTargets.map(fd => fd.name -> body(fd)).toMap
    callees.foreach { case (m, c) => c.code = codes(m) }

    private def callee(m: String): Callee =
      callees.getOrElse(m, throw new NoSuchElementException(s"${cd.name} has no method $m to call on self"))

    /** `fd` resolved under a layout of its own variables. */
    private def body(fd: FunctionDef): Code = {
      val vars = Layout.of(fd.params.map(_._1) ++ varNames(fd.body))
      val r = new Rewrite(cd, vars, callee)
      Code(fd.copy(body = fd.body.map(r.stmt)), vars)
    }

    /** `sm`'s blocks resolved under one layout of all the machine's
      * variables; ids, entry and targets are unchanged. */
    def split(sm: SplitFunction): (SplitFunction, Layout) = {
      val bs = sm.blocks.values.toList
      val vars = Layout.of(sm.params.map(_._1) ++ bs.flatMap { b =>
        varNames(b.stmts) ++ (b.term match {
          case CallTerm(_, _, _, r, _) => r :: Nil
          case _                       => Nil
        }) ++ termExprs(b.term).flatMap(exprVars)
      })
      val r = new Rewrite(cd, vars, callee)
      (sm.copy(blocks = bs.map(b => b.id -> Block(b.id, b.stmts.map(r.stmt), r.term(b.term))).toMap), vars)
    }
  }

  private def termExprs(t: Terminator): List[Expr] = t match {
    case Goto(_)                  => Nil
    case CondBr(c, _, _)          => List(c)
    case CallTerm(tg, _, as, _, _) => tg :: as
    case Ret(v)                   => List(v)
  }

  private def exprVars(e: Expr): List[String] = subExprs(e).collect { case Var(n) => n }

  /** Every variable `b` assigns or reads, nested bodies included. */
  private def varNames(b: List[Stmt]): List[String] =
    bodyExprs(b).flatMap(exprVars) ++ b.flatMap {
      case Assign(n, _, _)           => List(n)
      case SetVar(n, _)              => List(n)
      case If(_, t, e)               => varNames(t) ++ varNames(e)
      case ForEach(n, _, _, body)    => n :: varNames(body)
      case While(_, body)            => varNames(body)
      case _                         => Nil
    }

  private final class Rewrite(cd: ClassDef, vars: Layout, callee: String => Callee) {
    def expr(e: Expr): Expr = e match {
      case c: Const             => c
      case Var(n)               => at(Var(n), vars.slot(n))
      case FieldGet(n)          => at(FieldGet(n), field(n))
      case BinOp(op, l, r)      => BinOp(op, expr(l), expr(r))
      case Not(x)               => Not(expr(x))
      case Neg(x)               => Neg(expr(x))
      case MakeList(t, xs)      => MakeList(t, xs.map(expr))
      case Builtin(n, as)       =>
        val b = Builtin(n, as.map(expr))
        b.entry = Builtins.table.getOrElse(n, throw new IllegalArgumentException(s"unknown builtin $n/${as.length}"))
        b
      case RemoteCall(t, m, as) => RemoteCall(expr(t), m, as.map(expr))
      case SelfCall(m, as)      =>
        val c = SelfCall(m, as.map(expr))
        c.callee = callee(m)
        c
    }

    def stmt(s: Stmt): Stmt = s match {
      case Assign(n, t, v)       => at(Assign(n, t, expr(v)), vars.slot(n))
      case SetVar(n, v)          => at(SetVar(n, expr(v)), vars.slot(n))
      case SetField(n, v)        => at(SetField(n, expr(v)), field(n))
      case If(c, t, e)           => If(expr(c), t.map(stmt), e.map(stmt))
      case ForEach(n, t, it, b)  => at(ForEach(n, t, expr(it), b.map(stmt)), vars.slot(n))
      case While(c, b)           => While(expr(c), b.map(stmt))
      case Return(v)             => Return(expr(v))
      case ExprStmt(x)           => ExprStmt(expr(x))
    }

    def term(t: Terminator): Terminator = t match {
      case g: Goto                   => g
      case CondBr(c, a, b)           => CondBr(expr(c), a, b)
      case CallTerm(tg, m, as, r, k) => CallTerm(expr(tg), m, as.map(expr), r, k)
      case Ret(v)                    => Ret(expr(v))
    }

    private def at[A <: Slotted](a: A, slot: Int): A = { a.slot = slot; a }

    private def field(n: String): Int = {
      val i = cd.layout.slotOf(n)
      if (i < 0) throw new NoSuchElementException(s"class ${cd.name} has no field $n")
      i
    }
  }
}
