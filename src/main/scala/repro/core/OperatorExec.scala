package repro.core

import scala.collection.mutable
import Events._
import StateMachine._
import Dataflow._

/** The operator logic every target runtime shares (§2.2).
  *
  * Given an invocation event and the entity's current field state, execute
  * function blocks *until the next suspension point*: run straight-line
  * statements and local control transfers inside this operator, and stop
  * when either a remote call must be made (emit an [[Events.Invoke]] to the
  * callee's operator — one event hop) or the function returns (pop the
  * distributed call stack, or emit an [[Events.Reply]] to the egress).
  *
  * This mirrors the paper precisely: "the entity's state is retrieved from
  * the local operator state [...] the function is executed using the
  * arguments found in the calling event, as well as the state of the entity
  * at the moment that the function is called."
  *
  * Every runtime drives the same egress/re-entry loop ([[reenter]]) and
  * differs only in where state lives (HashMap, Spark GroupState or a state
  * `Dataset`, external KV) and how one wave of events runs (in-process
  * steps, a cogroup round or micro-batch, one FaaS invocation per event) —
  * exactly the paper's portability claim.
  */
object OperatorExec {

  /** Sentinel block id meaning "fresh call: start at the method entry". */
  val EntryBlock: Int = -1

  /** Result of processing one event at one operator: the entity's updated
    * field state and exactly one output event (the next hop or the reply).
    * `changed` is false only when the hop ran a method with an empty write
    * set on an entity that was already materialized: `fields` is then the
    * input map itself, and a runtime need not store it back. */
  final case class StepResult(fields: Map[String, Value], out: Event, changed: Boolean)

  /** One event at its operator, ready to run: the routed method, the
    * entity's field map and the call's variable map. [[enter]] builds it;
    * [[resume]] runs it. `stored` is the field map the hop started from
    * (None = not yet materialized). */
  final case class Activation(
      graph: DataflowGraph,
      ev: Invoke,
      cd: Ast.ClassDef,
      method: CompiledMethod,
      stored: Option[Map[String, Value]],
      fields: mutable.Map[String, Value],
      vars: mutable.Map[String, Value],
  )

  /** Process `ev` against entity state `fields0` (None = entity not yet
    * materialized; it is created from field defaults). */
  def step(graph: DataflowGraph, fields0: Option[Map[String, Value]], ev: Invoke): StepResult =
    resume(enter(graph, fields0, ev))

  /** StateFlow's part of a hop (§4): route the event to its operator and
    * method, and construct the entity's field map and the call's variable
    * map ("object construction"). */
  def enter(graph: DataflowGraph, fields0: Option[Map[String, Value]], ev: Invoke): Activation = {
    val op = graph.operator(ev.target.clazz)
    val fields = mutable.Map.empty[String, Value]
    fields ++= fields0.getOrElse(op.initialState(ev.target.key))
    Activation(graph, ev, op.cd, op.method(ev.method), fields0, fields,
               mutable.Map.empty[String, Value] ++ ev.env)
  }

  /** The application's part of a hop: execute blocks until the next
    * suspension point and build the output event. */
  def resume(act: Activation): StepResult = {
    val Activation(graph, ev, cd, method, stored, fields, vars) = act
    def result(out: Event): StepResult = stored match {
      case Some(st) if method.writes.isEmpty => StepResult(st, out, changed = false)
      case _                                 => StepResult(fields.toMap, out, changed = true)
    }
    method match {
      case InlineMethod(_, fd) =>
        require(ev.block == EntryBlock,
          s"${ev.target.clazz}.${ev.method} is inline but got continuation block ${ev.block}")
        val ret = Eval.exec(fd.body, vars, fields, cd, Eval.noRemote) match {
          case Eval.Returned(v) => v
          case Eval.FellThrough => Value.VUnit
        }
        result(finish(ev, ret))

      case SplitMethod(sm) =>
        var cur = if (ev.block == EntryBlock) sm.entry else ev.block
        while (true) {
          val b = sm.block(cur)
          Eval.exec(b.stmts, vars, fields, cd, Eval.noRemote) match {
            case Eval.Returned(v) =>
              throw new IllegalStateException(s"return inside block statements of ${sm.clazz}.${sm.name}")
            case Eval.FellThrough => ()
          }
          b.term match {
            case Goto(t) => cur = t
            case CondBr(c, t, f) =>
              cur = if (Eval.expr(c, vars, fields, cd, Eval.noRemote).asBool) t else f
            case CallTerm(tg, m, as, resultVar, cont) =>
              val ref = Eval.expr(tg, vars, fields, cd, Eval.noRemote).asRef
              val argVals = as.map(a => Eval.expr(a, vars, fields, cd, Eval.noRemote))
              val calleeEnv = bindArgs(graph, ref.clazz, m, argVals, Some(sm))
              val frame = Frame(ev.target, ev.method, cont, vars.toMap, resultVar)
              val out = Invoke(ev.requestId, ev.seq + 1, EntityAddr(ref.clazz, ref.key),
                               m, EntryBlock, calleeEnv, frame :: ev.stack)
              return result(out)
            case Ret(v) =>
              val ret = Eval.expr(v, vars, fields, cd, Eval.noRemote)
              return result(finish(ev, ret))
          }
        }
        throw new IllegalStateException("unreachable")
    }
  }

  /** A function returned `ret`: resume the suspended caller (passing the
    * return value in the event, Table 1) or reply to the client. */
  private def finish(ev: Invoke, ret: Value): Event = ev.stack match {
    case Nil => Reply(ev.requestId, ret)
    case frame :: rest =>
      Invoke(ev.requestId, ev.seq + 1, frame.caller, frame.method, frame.contBlock,
             frame.env + (frame.resultVar -> ret), rest)
  }

  /** The egress/re-entry loop (§3): the egress routes every output event
    * back to the ingress "until an event has been processed in full".
    * `initial` is the first wave; `runWave` runs one wave on the runtime and
    * returns each emitted item as `Left(event)`, which re-enters in the next
    * wave, or `Right((requestId, value))`, a reply to the client. What a wave
    * carries is the runtime's choice: [[Events.Invoke]]s in memory, or
    * encoded packets that the driver passes on without decoding. Returns the
    * replies by request id, the number of waves and the number of events
    * run. Holds no state outside the call, so concurrent calls are safe. */
  def reenter[E](initial: Seq[E])(runWave: Seq[E] => Seq[Either[E, (String, Value)]])
      : (Map[String, Value], Int, Long) = {
    val replies = Map.newBuilder[String, Value]
    var wave = initial
    var waves = 0
    var hops = 0L
    while (wave.nonEmpty) {
      waves += 1
      hops += wave.size
      val next = Seq.newBuilder[E]
      runWave(wave).foreach {
        case Left(ev)    => next += ev
        case Right(rply) => replies += rply
      }
      wave = next.result()
    }
    (replies.result(), waves, hops)
  }

  /** An output event as [[reenter]] takes it: a hop that re-enters, or a
    * reply to the client. */
  def egress(out: Event): Either[Invoke, (String, Value)] = out match {
    case next: Invoke  => Left(next)
    case Reply(rid, v) => Right(rid -> v)
  }

  /** Build the client's initial invocation event. */
  def initialEvent(graph: DataflowGraph, requestId: String, target: EntityAddr,
                   method: String, args: List[Value]): Invoke =
    Invoke(requestId, 0L, target, method, EntryBlock, bindArgs(graph, target.clazz, method, args, None), Nil)

  /** The callee's variable map for a call of `clazz.method` with `args`:
    * each parameter bound to its argument. An arity error names the callee
    * and, for a call from a split function, the `caller`. */
  private def bindArgs(graph: DataflowGraph, clazz: String, method: String, args: List[Value],
                       caller: Option[SplitFunction]): Map[String, Value] = {
    val params = graph.operator(clazz).method(method).params
    if (params.length != args.length)
      throw new IllegalArgumentException(
        s"$clazz.$method expects ${params.length} args, got ${args.length}" +
          caller.fold("")(sm => s" at call from ${sm.clazz}.${sm.name}"))
    params.map(_._1).zip(args).toMap
  }
}
