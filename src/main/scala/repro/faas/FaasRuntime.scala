package repro.faas

import java.util.concurrent.{Executors, TimeUnit}
import repro.core._
import repro.core.Events._
import repro.core.Dataflow.DataflowGraph

/** FaaS target runtime (§3 "FaaS", the paper's AWS Lambda interface).
  *
  * "A single Lambda invocation will execute a full function with all the
  * split function blocks in it. The ingress routes an event to the
  * appropriate function block, and the egress routes an output event back
  * to the ingress router until an event has been processed in full."
  *
  * Concretely: one [[invocation]] = load the target entity's state from the
  * external KV store (one get), run [[OperatorExec.step]] (which executes
  * blocks up to the next suspension), store the state back (one put) if
  * the hop may have changed it, and hand the output event to the egress.
  * A hop whose method has an empty write set, on an entity already stored,
  * puts nothing, so read-only hops never write stale state back over a
  * concurrent writer's. State is stored in the typed state text
  * ([[Codec.encodeState]]). Cross-entity hops become *new invocations*
  * through the ingress loop, and state consistency depends entirely on the
  * KV store: without locking (the paper's setting) concurrent
  * read-modify-write invocations of the same entity can lose updates —
  * unlike the dataflow runtimes, which serialize per key. The
  * `FaasRuntimeSpec` demonstrates exactly this anomaly.
  */
final class FaasRuntime(graph: DataflowGraph, val kv: SimKV = new SimKV()) {

  /** Invocation counter (the paper's Lambda concurrency telemetry). */
  val invocations = new java.util.concurrent.atomic.AtomicLong(0)

  private def stateKey(addr: EntityAddr): String = addr.routingKey

  private def classDef(clazz: String): Ast.ClassDef = graph.operator(clazz).cd

  def seed(clazz: String, key: String, fields: Map[String, Value]): Unit =
    kv.put(stateKey(EntityAddr(clazz, key)),
           Codec.encodeState(classDef(clazz), snapshot(clazz, key) ++ fields))

  /** One Lambda invocation: state load → block execution → state store,
    * skipped when the hop changed nothing; the output event goes to the
    * egress. */
  private def invocation(ev: Invoke): Either[Invoke, (String, Value)] = {
    invocations.incrementAndGet()
    val key = stateKey(ev.target)
    val cd = classDef(ev.target.clazz)
    OperatorExec.egress(kv.withKeyLock(key) {
      val res = OperatorExec.step(graph, kv.get(key).map(Codec.decodeState(cd, _)), ev)
      if (res.changed) kv.put(key, Codec.encodeState(cd, res.fields))
      res.out
    })
  }

  /** Run one request through the shared egress/re-entry loop
    * ([[OperatorExec.reenter]]): its chain is a run of one-event waves, one
    * invocation each, until the event is processed in full and a client
    * reply is produced. */
  def invoke(clazz: String, key: String, method: String, args: List[Value],
             requestId: String = f"f${System.nanoTime()}%d"): Value = {
    val ev = OperatorExec.initialEvent(graph, requestId, EntityAddr(clazz, key), method, args)
    OperatorExec.reenter(List(ev))(_.map(invocation))._1(requestId)
  }

  /** Run many requests concurrently on `parallelism` threads (the paper's
    * burst of concurrent Lambda invocations). Returns per-request results
    * in input order. */
  def invokeConcurrently(
      requests: Seq[(String, String, String, List[Value])],
      parallelism: Int,
  ): Seq[Value] = {
    val pool = Executors.newFixedThreadPool(parallelism)
    try {
      val futures = requests.zipWithIndex.map { case ((c, k, m, a), i) =>
        pool.submit(new java.util.concurrent.Callable[Value] {
          def call(): Value = invoke(c, k, m, a, requestId = f"c$i%09d")
        })
      }
      futures.map(_.get())
    } finally {
      pool.shutdown()
      pool.awaitTermination(60, TimeUnit.SECONDS)
    }
  }

  def snapshot(clazz: String, key: String): Map[String, Value] =
    kv.get(stateKey(EntityAddr(clazz, key))).map(Codec.decodeState(classDef(clazz), _))
      .getOrElse(graph.operator(clazz).initialState(key))
}
