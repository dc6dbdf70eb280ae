package repro.overhead

import repro.core._
import repro.core.Ast._
import repro.core.EType._
import repro.core.Value._
import repro.core.Events.{EntityAddr, Invoke, Reply}
import repro.faas.SimKV

/** The §4 "System overhead" experiment: per-event component timing on the
  * operator path every runtime runs, with entity state padded from 50 to
  * 200 KB.
  *
  * Each event goes through the stages of one FaaS invocation, plus the
  * event decode a dataflow hop pays, each timed on the function the
  * runtimes call, and attributed as the paper does:
  *
  *  - event decode (`Events.decode`) — runtime (the engine's serializers:
  *    Kafka/Flink deserialize events before user code runs);
  *  - state read (`SimKV.get`) and decode (`Codec.decodeFields`) — runtime;
  *  - routing and object construction (`OperatorExec.enter`) — **StateFlow**
  *    ("some of the components, like object construction, are attributed to
  *    StateFlow's overhead");
  *  - block execution (`OperatorExec.resume`) — application;
  *  - state encode (`Codec.encodeState`) and write (`SimKV.put`) — runtime
  *    ("others, like state storage, are attributed to the runtime").
  *
  * The paper's claim to reproduce: StateFlow's share of total per-event
  * time is < 1 %.
  */
object OverheadProbe {

  /** Synthetic entity: a big opaque payload plus a counter the function
    * writes, so execution does real (small) work while state dominates, and
    * every event re-encodes the whole state, as in the paper's setup. */
  val program: Program = Program(List(ClassDef(
    name = "Blob",
    keyField = "id",
    fields = List(
      FieldDef("id", TStr, str("")),
      FieldDef("payload", TStr, str("")),
      FieldDef("n", TInt, int(0)),
    ),
    methods = List(
      FunctionDef("bump", List("by" -> TInt), TInt, List(
        SetField("n", BinOp("+", FieldGet("n"), Var("by"))),
        Return(FieldGet("n")),
      )),
    ),
  )))

  final case class Breakdown(
      stateKb: Int,
      events: Int,
      enterNs: Double,
      headerDecodeNs: Double,
      stateDecodeNs: Double,
      execNs: Double,
      stateEncodeNs: Double,
      storeNs: Double,
      lastReply: Value,
  ) {
    /** Components attributed to StateFlow itself: routing and object
      * construction. */
    def stateflowNs: Double = enterNs
    /** Components attributed to the runtime (event serializers + state
      * backend). */
    def runtimeNs: Double = headerDecodeNs + stateDecodeNs + stateEncodeNs + storeNs
    def totalNs: Double = stateflowNs + runtimeNs + execNs
    /** The paper's headline number: StateFlow's share of total time. */
    def stateflowShare: Double = stateflowNs / totalNs
  }

  /** Time the operator path for `events` events over a `stateKb`-KB entity.
    * `storePenaltyNs` is a model constant for the state backend's cost per
    * event beyond pure serialization, charged as `SimKV`'s latency, half on
    * the read and half on the write. 100 µs is a conservative RocksDB
    * WAL+memtable put for a 50–200 KB value (the paper's backends write to
    * Flink managed state or DynamoDB, which costs far more). 1000 warm-up
    * events run the full path before measurement so JIT compilation does
    * not pollute the first sampled configuration. */
  def run(stateKb: Int, events: Int, storePenaltyNs: Long = 100_000L): Breakdown = {
    val warmup = 1000
    val graph = Compiler.compile(program)
    val addr = EntityAddr("Blob", "b1")
    val kv = new SimKV(latencyNanos = storePenaltyNs / 2)
    val cd = graph.operator("Blob").cd
    kv.put(addr.routingKey, Codec.encodeState(cd,
      cd.initialState("b1") + ("payload" -> str("x" * (stateKb * 1024)))))
    val eventJson = Events.encode(OperatorExec.initialEvent(graph, "r1", addr, "bump", List(int(1))))

    var tHeader, tDecode, tEnter, tExec, tEncode, tStore = 0.0
    var measure = false
    def timed[A](body: => A)(add: Double => Unit): A = {
      val t0 = System.nanoTime()
      val a = body
      if (measure) add((System.nanoTime() - t0).toDouble)
      a
    }

    var lastReply: Value = VUnit
    for (i <- -warmup until events) {
      measure = i >= 0
      val ev = timed(Events.decode(eventJson).asInstanceOf[Invoke])(tHeader += _)
      val stored = timed(kv.get(addr.routingKey).get)(tStore += _)
      val fields = timed(Codec.decodeFields(cd, stored))(tDecode += _)
      val act = timed(OperatorExec.enter(graph, Some(fields), ev))(tEnter += _)
      val res = timed(OperatorExec.resume(act))(tExec += _)
      val encoded = timed(Codec.encodeState(cd, res.fields))(tEncode += _)
      timed(kv.put(addr.routingKey, encoded))(tStore += _)
      lastReply = res.out.asInstanceOf[Reply].value
    }

    Breakdown(stateKb, events,
      enterNs = tEnter / events,
      headerDecodeNs = tHeader / events,
      stateDecodeNs = tDecode / events,
      execNs = tExec / events,
      stateEncodeNs = tEncode / events,
      storeNs = tStore / events,
      lastReply = lastReply)
  }
}
