package repro.core

import Ast._
import StateMachine._

/** StateFlow's intermediate representation (§2.2–2.3).
  *
  * A stateful dataflow graph: one keyed [[OperatorDef]] per entity class
  * (holding the class's compiled methods, field schema, and key field), an
  * ingress router that keys incoming invocation events by (class, key), an
  * egress router that either replies to the client or loops an event back to
  * the ingress (the paper's Kafka re-entry, because most streaming systems
  * reject cyclic dataflows), and the edges implied by observed remote calls.
  */
object Dataflow {

  /** A dataflow operator: one entity class (its state schema and key
    * field) and its compiled methods. */
  final case class OperatorDef(cd: ClassDef, methods: Map[String, CompiledMethod]) {
    def method(name: String): CompiledMethod =
      methods.getOrElse(name, throw new NoSuchElementException(s"operator ${cd.name} has no method $name"))

    /** Initial field state for a fresh entity with the given key. */
    def initialState(key: String): Map[String, Value] = cd.initialState(key)
  }

  /** A static call edge discovered during compilation: class `from`'s method
    * `fromMethod` invokes class `to`'s method `toMethod` at some call site.
    * These edges are the dataflow graph's topology (§2.2's function call
    * graph projected onto operators). */
  final case class CallEdge(from: String, fromMethod: String, to: String, toMethod: String)

  /** The complete IR handed to every target runtime. */
  final case class DataflowGraph(operators: Map[String, OperatorDef], edges: List[CallEdge]) {
    def operator(clazz: String): OperatorDef =
      operators.getOrElse(clazz, throw new NoSuchElementException(s"no operator for class $clazz"))

    /** All split state machines (methods with at least one remote call). */
    def splitMethods: List[SplitFunction] =
      operators.values.toList.flatMap(_.methods.values).collect { case SplitMethod(sm) => sm }
        .sortBy(sm => (sm.clazz, sm.name))
  }
}
