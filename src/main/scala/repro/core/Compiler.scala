package repro.core

import Ast._
import StateMachine._
import Dataflow._

/** The StateFlow compiler pipeline (Fig. 1).
  *
  * Stages, in order:
  *  1. static analysis (TypeChecker): declared types, remote-call discovery
  *     via entity-reference annotations, key checks;
  *  2. normalization (Anf): hoist remote calls to whole-statement positions;
  *  3. function splitting (Splitter): CPS-style state machine per method
  *     with at least one remote call; remote-free methods stay inline;
  *  4. resolution (Resolve): variables and fields to slots, builtins and
  *     `self` calls to their targets;
  *  5. IR assembly (Dataflow): one operator per class + the call-edge
  *     topology.
  *
  * The resulting [[Dataflow.DataflowGraph]] is target-independent; each
  * runtime (`runtime/`, `spark/`, `faas/`, `sim/`) deploys it unchanged.
  */
object Compiler {

  def compile(program: Program): DataflowGraph = {
    val info = TypeChecker.checkOrThrow(program)
    val operators = program.classes.map { cd =>
      val slots = new Resolve.ClassSlots(cd, cd.methods.filter(fd => info.remoteFree((cd.name, fd.name))))
      val methods: Map[String, CompiledMethod] = cd.methods.map { fd =>
        val writes = info.writes((cd.name, fd.name))
        val compiled: CompiledMethod =
          if (info.remoteFree((cd.name, fd.name))) InlineMethod(cd.name, slots.codes(fd.name))(writes)
          else {
            val (sm, vars) = slots.split(Splitter.split(cd.name, Anf.normalize(fd)))
            SplitMethod(sm)(writes, vars)
          }
        fd.name -> compiled
      }.toMap
      cd.name -> OperatorDef(cd, methods)
    }.toMap
    val edges = info.callEdges.map { case (a, b, c, d) => CallEdge(a, b, c, d) }
    DataflowGraph(operators, edges)
  }
}
