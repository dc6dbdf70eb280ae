package repro.core

import scala.collection.mutable
import Ast._

/** Shared evaluation core: expressions and remote-free statement lists.
  *
  * Exactly one module implements the language's local semantics; the direct
  * reference interpreter, the split-function block executor (OperatorExec),
  * and inline `self` calls all delegate here, so "split ≡ unsplit" tests
  * compare control-flow handling, not two divergent evaluators.
  *
  * Remote calls are *not* handled here — callers that may encounter them
  * (the reference Interpreter) pass a `remote` callback; the block executor
  * never sees one (ANF + splitting guarantee remote calls only occur as
  * block terminators) and passes a thrower.
  */
object Eval {

  /** Synchronous remote-call hook: (target, method, args) => return value. */
  type RemoteFn = (Value.VRef, String, List[Value]) => Value

  /** Thrower used where remote calls are statically impossible. */
  val noRemote: RemoteFn = (r, m, _) =>
    throw new IllegalStateException(s"unexpected remote call $r.$m in remote-free context")

  /** Human-readable rendering used by the `str` builtin and key coercion. */
  def show(v: Value): String = v match {
    case Value.VInt(i)      => i.toString
    case Value.VDouble(d)   => d.toString
    case Value.VBool(b)     => b.toString
    case Value.VStr(s)      => s
    case Value.VUnit        => "None"
    case Value.VList(_, xs) => xs.map(show).mkString("[", ", ", "]")
    case Value.VRef(c, k)   => s"$c:$k"
  }

  private def numBin(op: String, l: Value, r: Value): Value = (l, r) match {
    case (Value.VInt(a), Value.VInt(b)) =>
      op match {
        case "+" => Value.VInt(a + b)
        case "-" => Value.VInt(a - b)
        case "*" => Value.VInt(a * b)
        case "/" => Value.VDouble(a.toDouble / b.toDouble)
        case "//" => Value.VInt(Math.floorDiv(a, b))
        case "%" => Value.VInt(Math.floorMod(a, b))
      }
    case _ =>
      val (a, b) = (l.asDouble, r.asDouble)
      op match {
        case "+" => Value.VDouble(a + b)
        case "-" => Value.VDouble(a - b)
        case "*" => Value.VDouble(a * b)
        case "/" => Value.VDouble(a / b)
        case "//" => Value.VDouble(math.floor(a / b))
        case "%" => Value.VDouble(a % b)
      }
  }

  private def cmp(op: String, l: Value, r: Value): Value = {
    val res = (l, r) match {
      case (Value.VStr(a), Value.VStr(b)) =>
        op match {
          case "<" => a < b; case "<=" => a <= b; case ">" => a > b; case ">=" => a >= b
        }
      case _ =>
        val (a, b) = (l.asDouble, r.asDouble)
        op match {
          case "<" => a < b; case "<=" => a <= b; case ">" => a > b; case ">=" => a >= b
        }
    }
    Value.VBool(res)
  }

  /** Evaluate expression `e`. `vars` and `fields` are the local variable
    * environment and the entity's field state (mutable maps — statements
    * update them in place). */
  def expr(
      e: Expr,
      vars: mutable.Map[String, Value],
      fields: mutable.Map[String, Value],
      selfClass: ClassDef,
      remote: RemoteFn,
  ): Value = {
    def ev(x: Expr): Value = expr(x, vars, fields, selfClass, remote)
    e match {
      case Const(v)    => v
      case Var(n)      => vars.getOrElse(n, throw new NoSuchElementException(s"unbound var $n"))
      case FieldGet(n) => fields.getOrElse(n, throw new NoSuchElementException(s"unbound field $n of ${selfClass.name}"))
      case Not(x)      => Value.VBool(!ev(x).asBool)
      case Neg(x)      => ev(x) match {
        case Value.VInt(i)    => Value.VInt(-i)
        case Value.VDouble(d) => Value.VDouble(-d)
        case o                => throw new IllegalStateException(s"cannot negate $o")
      }
      case MakeList(t, items) => Value.VList(t, items.map(ev).toVector)
      case BinOp("and", l, r) => Value.VBool(ev(l).asBool && ev(r).asBool)
      case BinOp("or", l, r)  => Value.VBool(ev(l).asBool || ev(r).asBool)
      case BinOp("==", l, r)  => Value.VBool(ev(l) == ev(r))
      case BinOp("!=", l, r)  => Value.VBool(ev(l) != ev(r))
      case BinOp(op @ ("<" | "<=" | ">" | ">="), l, r) => cmp(op, ev(l), ev(r))
      case BinOp(op, l, r)    => (ev(l), ev(r)) match {
        case (Value.VStr(a), Value.VStr(b)) if op == "+" => Value.VStr(a + b)
        case (Value.VList(t, a), Value.VList(_, b)) if op == "+" => Value.VList(t, a ++ b)
        case (a, b) => numBin(op, a, b)
      }
      case Builtin(name, args) => builtin(name, args.map(ev))
      case RemoteCall(t, m, as) => remote(ev(t).asRef, m, as.map(ev))
      case SelfCall(m, as) =>
        val fd = selfClass.method(m)
        invokeLocal(fd, as.map(ev), fields, selfClass, remote)
    }
  }

  /** Built-in pure functions on already-evaluated arguments. */
  def builtin(name: String, args: List[Value]): Value = (name, args) match {
    case ("len", List(Value.VList(_, xs))) => Value.VInt(xs.length)
    case ("len", List(Value.VStr(s)))      => Value.VInt(s.length)
    case ("get", List(Value.VList(_, xs), Value.VInt(i))) => xs(i.toInt)
    case ("append", List(Value.VList(t, xs), x)) => Value.VList(t, xs :+ x)
    case ("concat", List(Value.VList(t, a), Value.VList(_, b))) => Value.VList(t, a ++ b)
    case ("contains", List(Value.VList(_, xs), x)) => Value.VBool(xs.contains(x))
    case ("indexof", List(Value.VList(_, xs), x)) => Value.VInt(xs.indexOf(x))
    case ("slice", List(Value.VList(t, xs), Value.VInt(a), Value.VInt(b))) =>
      Value.VList(t, xs.slice(a.toInt, b.toInt))
    case ("min", List(a, b)) => if (a.asDouble <= b.asDouble) a else b
    case ("max", List(a, b)) => if (a.asDouble >= b.asDouble) a else b
    case ("abs", List(Value.VInt(i)))    => Value.VInt(math.abs(i))
    case ("abs", List(Value.VDouble(d))) => Value.VDouble(math.abs(d))
    case ("str", List(v))    => Value.VStr(show(v))
    case ("int", List(Value.VStr(s)))    => Value.VInt(s.toLong)
    case ("int", List(Value.VDouble(d))) => Value.VInt(d.toLong)
    case ("int", List(v: Value.VInt))    => v
    case ("range", List(Value.VInt(n))) =>
      Value.VList(EType.TInt, (0L until n).map(Value.VInt.apply).toVector)
    case ("ref", List(Value.VStr(clazz), key)) => Value.VRef(clazz, show(key))
    case ("refkey", List(r: Value.VRef)) => Value.VStr(r.key)
    case ("sqrt", List(v)) => Value.VDouble(math.sqrt(v.asDouble))
    case _ => throw new IllegalArgumentException(
      s"unknown builtin $name/${args.length} for ${args.map(_.tpe.render)}")
  }

  /** Result of executing a statement list: either fell through or returned. */
  sealed trait Flow
  case object FellThrough extends Flow
  final case class Returned(v: Value) extends Flow

  /** Execute statements sequentially, mutating `vars`/`fields`. The caller
    * is responsible for ensuring remote calls are either absent or handled
    * by `remote`. */
  def exec(
      stmts: List[Stmt],
      vars: mutable.Map[String, Value],
      fields: mutable.Map[String, Value],
      selfClass: ClassDef,
      remote: RemoteFn,
  ): Flow = {
    def ev(e: Expr): Value = expr(e, vars, fields, selfClass, remote)
    var rest = stmts
    while (rest.nonEmpty) {
      rest.head match {
        case Assign(n, _, v) => vars(n) = ev(v)
        case SetVar(n, v)    => vars(n) = ev(v)
        case SetField(n, v)  => fields(n) = ev(v)
        case ExprStmt(e)     => ev(e)
        case Return(v)       => return Returned(ev(v))
        case If(c, t, f) =>
          val flow = exec(if (ev(c).asBool) t else f, vars, fields, selfClass, remote)
          if (flow != FellThrough) return flow
        case ForEach(n, _, it, body) =>
          val items = ev(it).asList
          var i = 0
          while (i < items.length) {
            vars(n) = items(i)
            val flow = exec(body, vars, fields, selfClass, remote)
            if (flow != FellThrough) return flow
            i += 1
          }
        case While(c, body) =>
          while (ev(c).asBool) {
            val flow = exec(body, vars, fields, selfClass, remote)
            if (flow != FellThrough) return flow
          }
      }
      rest = rest.tail
    }
    FellThrough
  }

  /** Run a whole method on the given field state with fresh locals;
    * returns its value (VUnit on fall-through). */
  def invokeLocal(
      fd: FunctionDef,
      args: List[Value],
      fields: mutable.Map[String, Value],
      selfClass: ClassDef,
      remote: RemoteFn,
  ): Value = {
    require(args.length == fd.params.length,
      s"${selfClass.name}.${fd.name}: expected ${fd.params.length} args, got ${args.length}")
    val vars = mutable.Map.empty[String, Value]
    fd.params.zip(args).foreach { case ((n, _), v) => vars(n) = v }
    exec(fd.body, vars, fields, selfClass, remote) match {
      case Returned(v)  => v
      case FellThrough  => Value.VUnit
    }
  }
}
