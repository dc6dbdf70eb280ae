package hotelbench

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}
import repro.core._
import repro.core.Events._
import repro.core.Dataflow.DataflowGraph
import repro.faas.SimKV
import repro.spark.EntityOp
import repro.spark.EntityOp._

/** Replays of each runtime's hop loop, made only in traced runs. A replay
  * takes the hops in the order its runtime takes them and times the calls
  * into each layer's public functions around them; the runtimes themselves
  * are never instrumented. Its replies are checked like the runtime's. */
object Trace {

  /** Hops per request, per endpoint. */
  final class Hops {
    private val requests, hops = mutable.Map.empty[String, Long].withDefaultValue(0L)
    def add(endpoint: String, n: Long): Unit = { requests(endpoint) += 1; hops(endpoint) += n }
    def addAll(o: Hops): Unit = o.requests.keys.foreach { e =>
      requests(e) += o.requests(e); hops(e) += o.hops(e)
    }
    def requestCount: Long = requests.values.sum
    def mean(endpoint: String): Double =
      if (requests(endpoint) == 0) 0.0 else hops(endpoint).toDouble / requests(endpoint)
  }

  /** `LocalRuntime.run`'s loop: state in a map, one `OperatorExec.step`
    * per hop. */
  final class LocalReplay(graph: DataflowGraph, seeds: Seq[(String, String, Map[String, Value])]) {
    private val store = mutable.HashMap.empty[(String, String), Map[String, Value]]
    seeds.foreach { case (c, k, f) => store((c, k)) = graph.operator(c).initialState(k) ++ f }
    val step = new Acc
    val hops = new Hops

    def invoke(rid: String, endpoint: String, call: (String, String, String, List[Value])): Value = {
      var ev: Event = OperatorExec.initialEvent(graph, rid, EntityAddr(call._1, call._2), call._3, call._4)
      var n = 0L
      while (true) ev match {
        case i: Invoke =>
          val k = (i.target.clazz, i.target.key)
          val st = store.get(k)
          val t = System.nanoTime()
          val res = OperatorExec.step(graph, st, i)
          step.add(System.nanoTime() - t)
          store(k) = res.fields
          ev = res.out
          n += 1
        case Reply(_, v) =>
          hops.add(endpoint, n)
          return v
      }
      throw new IllegalStateException("unreachable")
    }
  }

  /** One thread's spans in a [[FaasReplay]]. */
  final class FaasSpans {
    val get, put, decode, encode, step = new Acc
    val hops = new Hops
    def addAll(o: FaasSpans): Unit = {
      get.addAll(o.get); put.addAll(o.put); decode.addAll(o.decode)
      encode.addAll(o.encode); step.addAll(o.step); hops.addAll(o.hops)
    }
  }

  /** `FaasRuntime.invoke`'s loop: per hop one invocation that gets the
    * entity's state from the store, decodes it, steps, encodes and puts it
    * back. */
  final class FaasReplay(graph: DataflowGraph, seeds: Seq[(String, String, Map[String, Value])]) {
    val kv = new SimKV()
    seeds.foreach { case (c, k, f) =>
      kv.put(EntityAddr(c, k).routingKey, Codec.encodeEnv(graph.operator(c).initialState(k) ++ f))
    }

    def invoke(sp: FaasSpans, rid: String, endpoint: String,
               call: (String, String, String, List[Value])): Value = {
      var ev: Event = OperatorExec.initialEvent(graph, rid, EntityAddr(call._1, call._2), call._3, call._4)
      var n = 0L
      while (true) ev match {
        case i: Invoke =>
          val key = i.target.routingKey
          val t0 = System.nanoTime()
          val raw = kv.get(key)
          val t1 = System.nanoTime()
          val st = raw.map(Codec.decodeEnv)
          val t2 = System.nanoTime()
          val res = OperatorExec.step(graph, st, i)
          val t3 = System.nanoTime()
          val out = Codec.encodeEnv(res.fields)
          val t4 = System.nanoTime()
          kv.put(key, out)
          val t5 = System.nanoTime()
          sp.get.add(t1 - t0); sp.decode.add(t2 - t1, raw.map(_.length.toLong).getOrElse(0L))
          sp.step.add(t3 - t2); sp.encode.add(t4 - t3, out.length.toLong); sp.put.add(t5 - t4)
          ev = res.out
          n += 1
        case Reply(_, v) =>
          sp.hops.add(endpoint, n)
          return v
      }
      throw new IllegalStateException("unreachable")
    }
  }

  /** The Spark runtimes' per-key fold, replayed on the driver: each wave of
    * packets is grouped by routing key and folded by
    * `EntityOp.processKey` over the key's serialized state, as a cogroup
    * round or a `flatMapGroupsWithState` micro-batch does. Each fold is
    * timed whole (`packet`), and its inputs are run once more through
    * `Events` and `OperatorExec.step` one call at a time to time the event
    * codec. */
  final class PacketReplay(graph: DataflowGraph) {
    val state = mutable.HashMap.empty[String, String]
    var packet, eventDecode, eventEncode = new Acc

    /** Forget the spans recorded so far; the state stays. */
    def resetSpans(): Unit = {
      packet = new Acc; eventDecode = new Acc; eventEncode = new Acc
    }

    def seed(seeds: Seq[(String, String, Map[String, Value])]): Unit = {
      state.clear()
      seeds.map { case (c, k, f) => seedPacket(c, k, f) }.groupBy(_.key).foreach { case (key, ps) =>
        EntityOp.processKey(graph, key, None, ps)._1.foreach(state(key) = _)
      }
    }

    /** Run one call's requests to completion; returns the replies by
      * request id. */
    def call(initial: Seq[Invoke]): Map[String, Value] = {
      val replies = mutable.Map.empty[String, Value]
      var wave: Seq[PacketRow] = initial.map(eventPacket)
      while (wave.nonEmpty) {
        val next = Seq.newBuilder[PacketRow]
        wave.groupBy(_.key).toSeq.sortBy(_._1).foreach { case (key, ps) =>
          val st0 = state.get(key)
          layers(st0, ps)
          val t = System.nanoTime()
          val (st1, outs) = EntityOp.processKey(graph, key, st0, ps)
          packet.ns += System.nanoTime() - t
          packet.calls += ps.size
          st1.foreach(state(key) = _)
          outs.foreach {
            case OutRow(_, _, rid, _, KindReply, body) => replies(rid) = Codec.decodeValue(body)
            case OutRow(_, k, rid, seq, KindEvent, body) => next += PacketRow(k, rid, seq, KindEvent, body)
            case other => throw new IllegalStateException(s"unexpected row $other")
          }
        }
        wave = next.result()
      }
      replies.toMap
    }

    /** `processKey`'s event codec work on one key, one call at a time. */
    private def layers(st0: Option[String], ps: Seq[PacketRow]): Unit = {
      var fields = st0.map(Codec.decodeEnv)
      ps.sortBy(sortKey).foreach { p =>
        val t = System.nanoTime()
        val ev = Events.decode(p.body).asInstanceOf[Invoke]
        eventDecode.add(System.nanoTime() - t, p.body.length.toLong)
        val res = OperatorExec.step(graph, fields, ev)
        fields = Some(res.fields)
        val u = System.nanoTime()
        val out = res.out match {
          case next: Invoke  => Events.encode(next)
          case Reply(_, v)   => Codec.encodeValue(v)
        }
        eventEncode.add(System.nanoTime() - u, out.length.toLong)
      }
    }
  }

  /** Job and task events from Spark's listener bus. */
  final class JobCounter extends SparkListener {
    val jobs, tasks, taskMs = new AtomicLong(0)
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.incrementAndGet()
      taskMs.addAndGet(e.taskInfo.duration)
    }
  }

  /** Micro-batch progress of streaming queries, batches with input only. */
  final class ProgressLog extends StreamingQueryListener {
    val batches = new java.util.concurrent.ConcurrentLinkedQueue[StreamingQueryProgress]()
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
    override def onQueryIdle(e: StreamingQueryListener.QueryIdleEvent): Unit = ()
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit =
      if (e.progress.numInputRows > 0) batches.add(e.progress)
  }

  /** Wait until the listener bus has delivered what `done` waits for. */
  def awaitEvents(done: => Boolean, timeoutMs: Long = 10000): Unit = {
    val end = System.currentTimeMillis() + timeoutMs
    while (!done && System.currentTimeMillis() < end) Thread.sleep(20)
  }
}
