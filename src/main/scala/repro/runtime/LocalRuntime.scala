package repro.runtime

import scala.collection.mutable
import repro.core._
import repro.core.Events._
import repro.core.Dataflow.DataflowGraph

/** The Local target runtime (§3).
  *
  * Executes the compiled dataflow graph in-process with HashMap state — the
  * environment the paper recommends for debugging and unit-testing a
  * StateFlow program before deploying it to a distributed runtime ("state is
  * kept in a local HashMap data structure instead of a state management
  * backend"). Events run through the shared egress/re-entry loop
  * ([[OperatorExec.reenter]]), one wave at a time, each wave's events in
  * order; each event run is one "hop" (what Kafka re-entry does in the
  * distributed deployments), so [[hops]] counts exactly the events a
  * distributed runtime would move.
  */
final class LocalRuntime(val graph: DataflowGraph) {

  /** Total events processed (initial invocations + all remote-call and
    * return hops). */
  var hops: Long = 0L

  /** Hop traces of the latest [[run]] (or [[invoke]]) call: per request id,
    * the entity addresses that processed an event for the request, in order.
    * [[run]] clears it on entry, so it holds one call's requests, not every
    * request served. Used by the discrete-event simulator to replay real
    * request chains, and by tests to check hop routes. */
  val traces = mutable.Map.empty[String, Vector[EntityAddr]]

  /** Entity field arrays, under their class's layout, by (class, key), for
    * entities that materialized. */
  private val state = mutable.HashMap.empty[EntityAddr, Array[Value]]

  private var nextRequest = 0L

  /** Seed an entity's state directly (workload initialization): `fields`
    * are merged onto the entity's current state. */
  def seed(clazz: String, key: String, fields: Map[String, Value]): Unit = {
    val addr = EntityAddr(clazz, key)
    val cd = graph.operator(clazz).cd
    state(addr) = cd.layout.updated(state.getOrElse(addr, cd.initialFields(key)), fields)
  }

  /** Invoke an entity method and run the dataflow to completion; returns
    * the client-visible return value. */
  def invoke(clazz: String, key: String, method: String, args: List[Value]): Value = {
    val rid = f"r$nextRequest%012d"
    nextRequest += 1
    val replies = run(List(OperatorExec.initialEvent(graph, rid, EntityAddr(clazz, key), method, args)))
    replies(rid)
  }

  /** Process a batch of initial events to completion; returns the reply
    * value per request id. */
  def run(initial: List[Invoke]): Map[String, Value] = {
    traces.clear()
    val (replies, _, n) = OperatorExec.reenter(initial)(_.map(hop))
    hops += n
    replies
  }

  /** One event at its entity: record the hop, step, store the state if
    * the hop changed it. */
  private def hop(ev: Invoke): Either[Invoke, (String, Value)] = {
    traces.updateWith(ev.requestId)(t => Some(t.getOrElse(Vector.empty) :+ ev.target))
    val res = OperatorExec.stepFields(graph, state.get(ev.target), ev)
    if (res.changed) state(ev.target) = res.fields
    OperatorExec.egress(res.out)
  }

  /** Snapshot of one entity's state (defaults if never touched). */
  def snapshot(clazz: String, key: String): Map[String, Value] = {
    val cd = graph.operator(clazz).cd
    state.get(EntityAddr(clazz, key)).fold(cd.initialState(key))(cd.layout.toMap)
  }
}
