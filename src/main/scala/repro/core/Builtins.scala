package repro.core

import EType._
import Value._

/** The language's built-in pure functions, each defined once: its type rule
  * over argument types next to its implementation over values.
  * `TypeChecker` applies the rule and `Eval` runs the implementation (the
  * resolve pass binds each call to its entry), so a call the checker
  * accepts runs to a value of the type it inferred. Only the *value* can still fail: `get` out of range,
  * `int` of a non-numeral string.
  */
object Builtins {

  /** One builtin. `rule` is defined on the argument types it accepts and
    * gives the result type; `impl` is defined on the argument values it
    * implements. Resolved `Builtin` calls hold their entry, so it travels
    * with a compiled graph; it is serialized by name and read back as the
    * table's own entry. */
  final class Entry(val name: String, @transient rule: PartialFunction[List[EType], EType],
                    @transient impl: PartialFunction[List[Value], Value]) extends Serializable {
    @transient private val badArgs: List[Value] => Value = args =>
      throw new IllegalArgumentException(s"builtin $name has no case for ${render(args.map(_.tpe))}")

    /** The result type for these argument types; None when no rule matches. */
    def resultType(args: List[EType]): Option[EType] = Option(rule.applyOrElse(args, noRule))

    def run(args: List[Value]): Value = impl.applyOrElse(args, badArgs)

    private def readResolve(): AnyRef = table(name)
  }

  /** `applyOrElse` fallback of the rules: no rule matched. */
  private val noRule: List[EType] => EType = _ => null

  /** Argument types as a call site shows them: `(List[int], str)`. */
  def render(args: List[EType]): String = args.map(_.render).mkString("(", ", ", ")")

  private val minMaxRule: PartialFunction[List[EType], EType] = {
    case a :: b :: Nil if numeric(a) && numeric(b) => if (a == TDouble || b == TDouble) TDouble else TInt
  }

  /** Every builtin by name. `ref`'s type is the class its first argument
    * names, so its rule needs that argument's literal: the checker types
    * `ref("C", k)` with a known class `C` itself, and the empty rule here
    * rejects every other `ref` call. */
  val table: Map[String, Entry] = List(
    new Entry("len", { case (TList(_) | TStr) :: Nil => TInt },
      { case VList(_, xs) :: Nil => VInt(xs.length); case VStr(s) :: Nil => VInt(s.length) }),
    new Entry("get", { case TList(e) :: TInt :: Nil => e },
      { case VList(_, xs) :: VInt(i) :: Nil => xs(i.toInt) }),
    new Entry("append", { case (l @ TList(e)) :: x :: Nil if typesMatch(e, x) => l },
      { case VList(t, xs) :: x :: Nil => VList(t, xs :+ x) }),
    new Entry("concat", { case (l @ TList(a)) :: TList(b) :: Nil if typesMatch(a, b) => l },
      { case VList(t, a) :: VList(_, b) :: Nil => VList(t, a ++ b) }),
    new Entry("contains", { case TList(_) :: _ :: Nil => TBool },
      { case VList(_, xs) :: x :: Nil => VBool(xs.contains(x)) }),
    new Entry("indexof", { case TList(_) :: _ :: Nil => TInt },
      { case VList(_, xs) :: x :: Nil => VInt(xs.indexOf(x)) }),
    new Entry("slice", { case (l @ TList(_)) :: TInt :: TInt :: Nil => l },
      { case VList(t, xs) :: VInt(a) :: VInt(b) :: Nil => VList(t, xs.slice(a.toInt, b.toInt)) }),
    new Entry("min", minMaxRule,
      { case a :: b :: Nil if numeric(a.tpe) && numeric(b.tpe) => if (a.asDouble <= b.asDouble) a else b }),
    new Entry("max", minMaxRule,
      { case a :: b :: Nil if numeric(a.tpe) && numeric(b.tpe) => if (a.asDouble >= b.asDouble) a else b }),
    new Entry("abs", { case TInt :: Nil => TInt; case TDouble :: Nil => TDouble },
      { case VInt(i) :: Nil => VInt(math.abs(i)); case VDouble(d) :: Nil => VDouble(math.abs(d)) }),
    new Entry("str", { case _ :: Nil => TStr },
      { case v :: Nil => VStr(Eval.show(v)) }),
    new Entry("int", { case (TStr | TDouble | TInt) :: Nil => TInt },
      { case VStr(s) :: Nil => VInt(s.toLong); case VDouble(d) :: Nil => VInt(d.toLong)
        case (v: VInt) :: Nil => v }),
    new Entry("range", { case TInt :: Nil => TList(TInt) },
      { case VInt(n) :: Nil => VList(TInt, (0L until n).map(VInt.apply).toVector) }),
    new Entry("ref", PartialFunction.empty,
      { case VStr(clazz) :: key :: Nil => VRef(clazz, Eval.show(key)) }),
    new Entry("refkey", { case TRef(_) :: Nil => TStr },
      { case (r: VRef) :: Nil => VStr(r.key) }),
    new Entry("sqrt", { case t :: Nil if numeric(t) => TDouble },
      { case v :: Nil if numeric(v.tpe) => VDouble(math.sqrt(v.asDouble)) }),
  ).map(e => e.name -> e).toMap
}
