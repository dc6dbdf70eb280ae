package repro.core

import scala.collection.mutable
import Ast._
import StateMachine._

/** The function-splitting algorithm of §2.3.
  *
  * Input: an ANF-normalized method (remote calls only as whole `Assign`
  * right-hand sides). The algorithm "traverses the statements of a function
  * definition and the function is split when either a remote call or control
  * flow element is encountered":
  *
  *  - a remote-call assignment ends the current block with a [[CallTerm]]
  *    (evaluate receiver + args, suspend, resume at the continuation with
  *    the result variable bound) — the `buy_item_0` / `buy_item_1` split;
  *  - an `if` becomes a block that evaluates the conditional ([[CondBr]])
  *    plus separate true-path and false-path blocks;
  *  - a `for v in xs` is desugared to an indexed `while` (iterable block,
  *    body path, after-loop path — the paper's three definitions) and the
  *    algorithm recurses into the body;
  *  - a `while` becomes a condition block branching to body or exit.
  *
  * A cleanup pass removes empty pass-through blocks, prunes unreachable
  * ones, and renumbers in breadth-first order so block ids are stable for
  * tests and the wire format.
  */
object Splitter {

  /** Split one method. Callers must have run [[Anf.normalize]] first. */
  def split(clazz: String, fd: FunctionDef): SplitFunction = {
    require(Anf.isNormalized(fd), s"$clazz.${fd.name}: splitter input must be ANF-normalized")
    val b = new Builder
    val exit = b.alloc()
    b.define(exit, Nil, Ret(Const(Value.VUnit)))
    val entry = b.compileBody(fd.body, exit)
    val sm = cleanup(SplitFunction(clazz, fd.name, fd.params, fd.returnType, entry, b.result))
    sm.validate()
    sm
  }

  private def isSimple(s: Stmt): Boolean = s match {
    case Assign(_, _, v) => !v.isInstanceOf[RemoteCall]
    case _: SetVar | _: SetField | _: ExprStmt => true
    case _ => false
  }

  private final class Builder {
    private val blocks = mutable.Map.empty[Int, Block]
    private var next = 0
    private var loopCounter = 0

    def alloc(): Int = { next += 1; next - 1 }
    def define(id: Int, stmts: List[Stmt], term: Terminator): Unit =
      blocks(id) = Block(id, stmts, term)
    def result: Map[Int, Block] = blocks.toMap

    /** Compile `stmts`; control continues at block `cont` on fall-through.
      * Returns the entry block id. */
    def compileBody(stmts: List[Stmt], cont: Int): Int = {
      val (simples, rest) = stmts.span(isSimple)
      def blockWith(term: Terminator): Int = {
        val id = alloc(); define(id, simples, term); id
      }
      rest match {
        case Nil =>
          if (simples.isEmpty) cont else blockWith(Goto(cont))
        case Assign(n, _, RemoteCall(tg, m, as)) :: tail =>
          val k = compileBody(tail, cont)
          blockWith(CallTerm(tg, m, as, n, k))
        case If(c, t, e) :: tail =>
          val k = compileBody(tail, cont)
          val tEntry = compileBody(t, k)
          val eEntry = compileBody(e, k)
          blockWith(CondBr(c, tEntry, eEntry))
        case While(c, body) :: tail =>
          val k = compileBody(tail, cont)
          val head = alloc()
          val bodyEntry = compileBody(body, head)
          define(head, Nil, CondBr(c, bodyEntry, k))
          if (simples.isEmpty) head else blockWith(Goto(head))
        case ForEach(n, et, it, body) :: tail =>
          // Desugar to an indexed while so iteration state (the index and the
          // materialized iterable) lives in ordinary variables that travel
          // with the event between suspensions.
          val iterVar = s"$$it$loopCounter"
          val idxVar  = s"$$ix$loopCounter"
          loopCounter += 1
          val desugared = List(
            Assign(iterVar, EType.TList(et), it),
            Assign(idxVar, EType.TInt, Const(Value.VInt(0))),
            While(
              BinOp("<", Var(idxVar), Builtin("len", List(Var(iterVar)))),
              (Assign(n, et, Builtin("get", List(Var(iterVar), Var(idxVar)))) :: body) :+
                SetVar(idxVar, BinOp("+", Var(idxVar), Const(Value.VInt(1)))),
            ),
          )
          compileBody(simples ++ desugared ++ tail, cont)
        case Return(v) :: _ =>
          blockWith(Ret(v))
        case other :: _ =>
          throw new IllegalStateException(s"unexpected statement in splitter: $other")
      }
    }
  }

  // ------------------------------------------------------------- cleanup

  private def cleanup(sm: SplitFunction): SplitFunction = {
    // 1. Resolve empty pass-through blocks (no stmts, Goto terminator).
    val resolve = mutable.Map.empty[Int, Int]
    def target(id: Int): Int = resolve.get(id) match {
      case Some(t) => val r = target(t); resolve(id) = r; r
      case None =>
        sm.blocks(id) match {
          case Block(_, Nil, Goto(t)) if t != id =>
            resolve(id) = t; val r = target(t); resolve(id) = r; r
          case _ => id
        }
    }
    val remapped = sm.blocks.values.map(b => b.id -> b.copy(term = b.term.mapTargets(target))).toMap
    val entry = target(sm.entry)

    // 2. Prune unreachable, 3. renumber breadth-first from the entry.
    val order = mutable.LinkedHashSet.empty[Int]
    val queue = mutable.Queue(entry)
    while (queue.nonEmpty) {
      val id = queue.dequeue()
      if (!order.contains(id)) {
        order += id
        remapped(id).term.targets.foreach(queue.enqueue)
      }
    }
    val renum = order.zipWithIndex.toMap
    val blocks = order.map { oldId =>
      val b = remapped(oldId)
      renum(oldId) -> Block(renum(oldId), b.stmts, b.term.mapTargets(renum))
    }.toMap
    sm.copy(entry = renum(entry), blocks = blocks)
  }
}
