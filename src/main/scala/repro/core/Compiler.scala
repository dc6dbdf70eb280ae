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
  *  4. IR assembly (Dataflow): one operator per class + the call-edge
  *     topology.
  *
  * The resulting [[Dataflow.DataflowGraph]] is target-independent; each
  * runtime (`runtime/`, `spark/`, `faas/`, `sim/`) deploys it unchanged.
  */
object Compiler {

  def compile(program: Program): DataflowGraph = {
    val info = TypeChecker.checkOrThrow(program)
    val operators = program.classes.map { cd =>
      val methods: Map[String, CompiledMethod] = cd.methods.map { fd =>
        val compiled: CompiledMethod =
          if (info.remoteFree((cd.name, fd.name))) InlineMethod(cd.name, fd)
          else SplitMethod(Splitter.split(cd.name, Anf.normalize(fd)))
        fd.name -> compiled
      }.toMap
      cd.name -> OperatorDef(cd.name, cd.keyField, cd.fields, methods)
    }.toMap
    val edges = info.callEdges.map { case (a, b, c, d) => CallEdge(a, b, c, d) }
    DataflowGraph(program, operators, edges)
  }
}
