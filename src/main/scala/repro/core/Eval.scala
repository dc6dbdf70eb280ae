package repro.core

import Ast._

/** Shared evaluation core: expressions and remote-free statement lists.
  *
  * Exactly one module implements the language's local semantics; the direct
  * reference interpreter, the split-function block executor (OperatorExec),
  * and inline `self` calls all delegate here, so "split ≡ unsplit" tests
  * compare control-flow handling, not two divergent evaluators.
  *
  * It runs trees that [[Resolve]] has resolved to slots, over two arrays:
  * the call's variables, under the method's variable layout, and the
  * entity's fields, under the class's field layout. Statements write both
  * in place. An unbound slot read throws `NoSuchElementException` naming
  * the variable or field.
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

  /** Evaluate expression `e` over the variable and field arrays. */
  def expr(e: Expr, vars: Array[Value], fields: Array[Value], remote: RemoteFn): Value = {
    def ev(x: Expr): Value = expr(x, vars, fields, remote)
    e match {
      case Const(v)    => v
      case x: Var      =>
        val v = vars(x.slot)
        if (v == null) throw new NoSuchElementException(s"unbound var ${x.name}")
        v
      case f: FieldGet =>
        val v = fields(f.slot)
        if (v == null) throw new NoSuchElementException(s"unbound field ${f.name}")
        v
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
      case b: Builtin           => b.entry.run(b.args.map(ev))
      case RemoteCall(t, m, as) => remote(ev(t).asRef, m, as.map(ev))
      case c: SelfCall          => invoke(c.callee.code, c.args.map(ev), fields, remote)
    }
  }

  /** Built-in pure functions on already-evaluated arguments; each one's
    * implementation is its [[Builtins.table]] entry. */
  def builtin(name: String, args: List[Value]): Value = Builtins.table.get(name) match {
    case Some(b) => b.run(args)
    case None    => throw new IllegalArgumentException(s"unknown builtin $name/${args.length}")
  }

  /** Result of executing a statement list: either fell through or returned. */
  sealed trait Flow
  case object FellThrough extends Flow
  final case class Returned(v: Value) extends Flow

  /** Execute statements sequentially, writing `vars`/`fields` in place. The
    * caller is responsible for ensuring remote calls are either absent or
    * handled by `remote`. */
  def exec(stmts: List[Stmt], vars: Array[Value], fields: Array[Value], remote: RemoteFn): Flow = {
    def ev(e: Expr): Value = expr(e, vars, fields, remote)
    var rest = stmts
    while (rest.nonEmpty) {
      rest.head match {
        case s: Assign   => vars(s.slot) = ev(s.value)
        case s: SetVar   => vars(s.slot) = ev(s.value)
        case s: SetField => fields(s.slot) = ev(s.value)
        case ExprStmt(e) => ev(e)
        case Return(v)   => return Returned(ev(v))
        case If(c, t, f) =>
          val flow = exec(if (ev(c).asBool) t else f, vars, fields, remote)
          if (flow != FellThrough) return flow
        case s: ForEach =>
          val items = ev(s.iterable).asList
          var i = 0
          while (i < items.length) {
            vars(s.slot) = items(i)
            val flow = exec(s.body, vars, fields, remote)
            if (flow != FellThrough) return flow
            i += 1
          }
        case While(c, body) =>
          while (ev(c).asBool) {
            val flow = exec(body, vars, fields, remote)
            if (flow != FellThrough) return flow
          }
      }
      rest = rest.tail
    }
    FellThrough
  }

  /** Run a whole method on the given field state with fresh variables;
    * returns its value (VUnit on fall-through). */
  def invoke(code: Resolve.Code, args: List[Value], fields: Array[Value], remote: RemoteFn): Value = {
    val fd = code.fd
    require(args.length == fd.params.length,
      s"${fd.name}: expected ${fd.params.length} args, got ${args.length}")
    val vars = new Array[Value](code.vars.size)
    var i = 0
    args.foreach { a => vars(code.params(i)) = a; i += 1 }
    exec(fd.body, vars, fields, remote) match {
      case Returned(v)  => v
      case FellThrough  => Value.VUnit
    }
  }
}
