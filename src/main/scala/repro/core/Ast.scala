package repro.core

/** Abstract syntax of the stateful-entity language.
  *
  * This is the Scala rendering of the Python fragment StateFlow's static
  * analyzer accepts (§2.1): typed assignments, conditionals, for-loops over
  * lists, general while loops, and method calls on typed entity references.
  * A `ClassDef` corresponds to a Python class annotated with `@stateflow`;
  * an instance of such a class is a *stateful entity*, keyed by `keyField`
  * (the paper's `__key__`).
  */
object Ast {

  // ----------------------------------------------------------------- exprs

  sealed trait Expr
  /** Literal constant. */
  final case class Const(v: Value) extends Expr
  /** Local variable read. */
  final case class Var(name: String) extends Expr
  /** `self.<name>` field read. */
  final case class FieldGet(name: String) extends Expr
  /** Binary operator: `+ - * / % < <= > >= == != and or`. */
  final case class BinOp(op: String, l: Expr, r: Expr) extends Expr
  /** Logical negation. */
  final case class Not(e: Expr) extends Expr
  /** Arithmetic negation. */
  final case class Neg(e: Expr) extends Expr
  /** List literal `[e1, e2, ...]` with declared element type. */
  final case class MakeList(elem: EType, items: List[Expr]) extends Expr
  /** Call of a built-in pure function; [[Builtins.table]] lists them, each
    * with its type rule and implementation. */
  final case class Builtin(name: String, args: List[Expr]) extends Expr
  /** Method call on an entity reference — *possibly remote* (§2.2): the
    * receiver expression must have type `TRef(c)` and the event is routed to
    * class `c`'s operator partition for the receiver's key. */
  final case class RemoteCall(target: Expr, method: String, args: List[Expr]) extends Expr
  /** Method call on `self`. Restricted to methods that are themselves free
    * of remote calls (enforced by the TypeChecker), so it executes inline
    * inside the current operator without an event hop. */
  final case class SelfCall(method: String, args: List[Expr]) extends Expr

  // ----------------------------------------------------------------- stmts

  sealed trait Stmt
  /** First (declaring) assignment: `x: T = e`. The paper requires declared
    * types on all variables. */
  final case class Assign(name: String, tpe: EType, value: Expr) extends Stmt
  /** Re-assignment of an already-declared variable. */
  final case class SetVar(name: String, value: Expr) extends Stmt
  /** `self.f = e`. */
  final case class SetField(name: String, value: Expr) extends Stmt
  /** `if cond: then else: els`. */
  final case class If(cond: Expr, thenB: List[Stmt], elseB: List[Stmt]) extends Stmt
  /** `for v in iterable:` — iterable must be a list (§2.1). */
  final case class ForEach(name: String, elemType: EType, iterable: Expr, body: List[Stmt]) extends Stmt
  /** General while loop. */
  final case class While(cond: Expr, body: List[Stmt]) extends Stmt
  /** `return e`. */
  final case class Return(value: Expr) extends Stmt
  /** Expression evaluated for effect (e.g. a remote call whose result is
    * ignored). */
  final case class ExprStmt(e: Expr) extends Stmt

  // ------------------------------------------------------------ defs

  /** An entity field with its declared type and initial value. */
  final case class FieldDef(name: String, tpe: EType, init: Value)

  /** A method of a stateful entity. */
  final case class FunctionDef(
      name: String,
      params: List[(String, EType)],
      returnType: EType,
      body: List[Stmt],
  )

  /** A `@stateflow`-annotated class: fields, a designated key field (the
    * paper's `__key__` returns it; it must never change — enforced
    * statically here, unlike the paper which trusts the programmer), and
    * methods. */
  final case class ClassDef(
      name: String,
      keyField: String,
      fields: List[FieldDef],
      methods: List[FunctionDef],
  ) {
    def method(name: String): FunctionDef =
      methods.find(_.name == name)
        .getOrElse(throw new NoSuchElementException(s"$this has no method $name"))
    def field(name: String): FieldDef =
      fields.find(_.name == name)
        .getOrElse(throw new NoSuchElementException(s"class ${this.name} has no field $name"))
    /** Field defaults, built once: every seed and every fresh entity starts
      * from them. */
    val defaults: Map[String, Value] = fields.map(f => f.name -> f.init).toMap
    /** Declared field types by name, built once for the state codec. */
    val fieldTypes: Map[String, EType] = fields.map(f => f.name -> f.tpe).toMap
    /** Initial field state of a fresh entity with the given key. */
    def initialState(key: String): Map[String, Value] = defaults + (keyField -> Value.VStr(key))
    override def toString: String = s"class $name"
  }

  /** A whole application: the set of entity classes. */
  final case class Program(classes: List[ClassDef]) {
    def clazz(name: String): ClassDef =
      classes.find(_.name == name)
        .getOrElse(throw new NoSuchElementException(s"program has no class $name"))
  }

  // ------------------------------------------------------------ traversal

  /** All sub-expressions of `e`, including `e` itself, pre-order. */
  def subExprs(e: Expr): List[Expr] = e :: (e match {
    case BinOp(_, l, r)        => subExprs(l) ++ subExprs(r)
    case Not(x)                => subExprs(x)
    case Neg(x)                => subExprs(x)
    case MakeList(_, items)    => items.flatMap(subExprs)
    case Builtin(_, args)      => args.flatMap(subExprs)
    case RemoteCall(t, _, as)  => subExprs(t) ++ as.flatMap(subExprs)
    case SelfCall(_, as)       => as.flatMap(subExprs)
    case _                     => Nil
  })

  /** Top-level expressions directly contained in a statement. */
  def stmtExprs(s: Stmt): List[Expr] = s match {
    case Assign(_, _, v)      => List(v)
    case SetVar(_, v)         => List(v)
    case SetField(_, v)       => List(v)
    case If(c, _, _)          => List(c)
    case ForEach(_, _, it, _) => List(it)
    case While(c, _)          => List(c)
    case Return(v)            => List(v)
    case ExprStmt(e)          => List(e)
  }

  /** True when expression `e` contains a remote call anywhere. */
  def hasRemote(e: Expr): Boolean = subExprs(e).exists(_.isInstanceOf[RemoteCall])

  /** Every expression of statement list `b`, including those of nested
    * `if`/`for`/`while` bodies; each statement's own expressions come
    * before those of its bodies. */
  def bodyExprs(b: List[Stmt]): List[Expr] = b.flatMap { s =>
    stmtExprs(s) ++ (s match {
      case If(_, t, e)          => bodyExprs(t) ++ bodyExprs(e)
      case ForEach(_, _, _, bd) => bodyExprs(bd)
      case While(_, bd)         => bodyExprs(bd)
      case _                    => Nil
    })
  }

  /** True when statement list `b` contains a remote call anywhere
    * (including nested control flow). */
  def bodyHasRemote(b: List[Stmt]): Boolean = bodyExprs(b).exists(hasRemote)
}
