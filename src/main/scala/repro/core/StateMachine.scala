package repro.core

import Ast._

/** The per-function state machine produced by splitting (§2.3, Fig. 2).
  *
  * Each [[Block]] is one of the paper's split function definitions
  * (`buy_item_0`, `buy_item_1`, ...): a run of straight-line remote-free
  * statements plus a terminator that either transfers control locally
  * ([[Goto]], [[CondBr]]), suspends the function at a remote call
  * ([[CallTerm]]), or returns ([[Ret]]). Invoking a split function starts at
  * [[SplitFunction.entry]]; the event carries the variable environment (the
  * paper's *execution graph* intermediate results) between blocks.
  */
object StateMachine {

  sealed trait Terminator {
    /** Block ids this terminator can transfer to. */
    def targets: List[Int] = this match {
      case Goto(t)                  => List(t)
      case CondBr(_, t, f)          => List(t, f)
      case CallTerm(_, _, _, _, k)  => List(k)
      case Ret(_)                   => Nil
    }

    /** This terminator with every block id it can transfer to mapped by `f`. */
    def mapTargets(f: Int => Int): Terminator = this match {
      case Goto(t)                   => Goto(f(t))
      case CondBr(c, t, e)           => CondBr(c, f(t), f(e))
      case CallTerm(tg, m, as, r, k) => CallTerm(tg, m, as, r, f(k))
      case r: Ret                    => r
    }
  }

  /** Unconditional local transfer (no event hop — same operator, same
    * invocation). */
  final case class Goto(target: Int) extends Terminator

  /** The split of an `if`/loop condition: one block evaluates the
    * conditional, distinct blocks hold the true and false paths (paper:
    * "an if-statement is split into three new definitions"). */
  final case class CondBr(cond: Expr, ifTrue: Int, ifFalse: Int) extends Terminator

  /** Suspension point: evaluate receiver and arguments, emit an invocation
    * event to the callee entity, and resume at `cont` when the return-value
    * event comes back, with `resultVar` bound. */
  final case class CallTerm(target: Expr, method: String, args: List[Expr],
                            resultVar: String, cont: Int) extends Terminator

  /** Function return: pops the distributed call stack or exits to egress. */
  final case class Ret(value: Expr) extends Terminator

  /** One split function definition. `stmts` are straight-line and
    * remote-free (guaranteed by ANF + construction). */
  final case class Block(id: Int, stmts: List[Stmt], term: Terminator) {
    /** Variables this block reads before writing them — the paper's "each
      * function that was split takes the variables it uses as parameters". */
    def params: Set[String] = {
      var defined = Set.empty[String]
      var used = Set.empty[String]
      def scan(e: Expr): Unit = subExprs(e).foreach {
        case Var(n) if !defined(n) => used += n
        case _                     => ()
      }
      stmts.foreach { s =>
        stmtExprs(s).foreach(scan)
        s match {
          case Assign(n, _, _) => defined += n
          case SetVar(n, _)    => defined += n
          case _               => ()
        }
      }
      term match {
        case Goto(_)                   => ()
        case CondBr(c, _, _)           => scan(c)
        case CallTerm(t, _, as, _, _)  => scan(t); as.foreach(scan)
        case Ret(v)                    => scan(v)
      }
      used
    }

    /** Variables this block defines — the paper's "returns all the
      * variables that it defined". */
    def defines: Set[String] = {
      val fromStmts = stmts.collect {
        case Assign(n, _, _) => n
        case SetVar(n, _)    => n
      }.toSet
      term match {
        case CallTerm(_, _, _, r, _) => fromStmts + r
        case _                       => fromStmts
      }
    }
  }

  /** The state machine of one method after splitting. */
  final case class SplitFunction(
      clazz: String,
      name: String,
      params: List[(String, EType)],
      returnType: EType,
      entry: Int,
      blocks: Map[Int, Block],
  ) {
    def block(id: Int): Block = blocks(id)

    /** Number of split function definitions (paper: buy_item → 2). */
    def size: Int = blocks.size

    /** Remote calls reachable in this state machine. */
    def callSites: List[CallTerm] =
      blocks.values.toList.sortBy(_.id).collect { case b if b.term.isInstanceOf[CallTerm] =>
        b.term.asInstanceOf[CallTerm]
      }

    /** Structural sanity: entry exists, every edge lands on a block, every
      * statement is remote-free and straight-line. */
    def validate(): Unit = {
      require(blocks.contains(entry), s"$clazz.$name: entry $entry missing")
      blocks.values.foreach { b =>
        b.term.targets.foreach(t => require(blocks.contains(t),
          s"$clazz.$name: block ${b.id} targets missing block $t"))
        b.stmts.foreach {
          case _: If | _: While | _: ForEach =>
            throw new IllegalStateException(s"$clazz.$name: control flow inside block ${b.id}")
          case s =>
            require(stmtExprs(s).forall(e => !hasRemote(e)),
              s"$clazz.$name: remote call inside block ${b.id} statements")
        }
        b.term match {
          case CallTerm(t, _, as, _, _) =>
            require(!hasRemote(t) && as.forall(e => !hasRemote(e)),
              s"$clazz.$name: nested remote call in call terminator of block ${b.id}")
          case CondBr(c, _, _) => require(!hasRemote(c), s"remote call in branch cond of ${b.id}")
          case Ret(v)          => require(!hasRemote(v), s"remote call in return of ${b.id}")
          case _               => ()
        }
      }
    }
  }

  /** How a method is executed by an operator: either inline (no remote
    * calls — the straightforward case of §2.3's opening) or via its split
    * state machine. `writes` is the method's write set as the checker
    * computed it (`TypeChecker.TypeInfo.writes`); it sits in a second
    * parameter list, so a match on a method's code does not name it. */
  sealed trait CompiledMethod {
    def name: String
    def params: List[(String, EType)]
    def writes: Set[String]
  }
  final case class InlineMethod(clazz: String, fd: FunctionDef)(val writes: Set[String])
      extends CompiledMethod {
    def name: String = fd.name
    def params: List[(String, EType)] = fd.params
  }
  final case class SplitMethod(sm: SplitFunction)(val writes: Set[String]) extends CompiledMethod {
    def name: String = sm.name
    def params: List[(String, EType)] = sm.params
  }
}
