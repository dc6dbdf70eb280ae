package repro.overhead

import scala.collection.mutable
import repro.core._
import repro.core.Ast._
import repro.core.EType._
import repro.core.Value._
import repro.core.Events.{EntityAddr, Invoke}

/** The §4 "System overhead" experiment: per-event component timing on a
  * hand copy of the operator path, with entity state padded from 50 to
  * 200 KB.
  *
  * For each event we time the same stages every runtime executes and
  * attribute them as the paper does:
  *
  *  - routing (event routing key → operator/method lookup) — **StateFlow**;
  *  - event envelope decode — runtime (the engine's serializers: Kafka/
  *    Flink deserialize events before user code runs);
  *  - state deserialization (state backend read)            — runtime;
  *  - object (re)construction (field map → entity binding)  — **StateFlow**
  *    ("some of the components, like object construction, are attributed to
  *    StateFlow's overhead");
  *  - user function execution                               — application;
  *  - state serialization + store write                     — runtime
  *    ("others, like state storage, are attributed to the runtime").
  *
  * The paper's claim to reproduce: StateFlow's share of total per-event
  * time is < 1 %.
  */
object OverheadProbe {

  /** Synthetic entity: a big opaque payload plus a counter the function
    * touches, so execution does real (small) work while state dominates. */
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
      routingNs: Double,
      headerDecodeNs: Double,
      stateDecodeNs: Double,
      constructNs: Double,
      execNs: Double,
      stateEncodeNs: Double,
      storeNs: Double,
  ) {
    /** Components attributed to StateFlow itself. */
    def stateflowNs: Double = routingNs + constructNs
    /** Components attributed to the runtime (event serializers + state
      * backend). */
    def runtimeNs: Double = headerDecodeNs + stateDecodeNs + stateEncodeNs + storeNs
    def totalNs: Double = stateflowNs + runtimeNs + execNs
    /** The paper's headline number: StateFlow's share of total time. */
    def stateflowShare: Double = stateflowNs / totalNs
  }

  /** Time the operator path for `events` events over a `stateKb`-KB entity.
    * `storePenaltyNs` models the state backend's write cost beyond pure
    * serialization — 100 µs is a conservative RocksDB WAL+memtable put for
    * a 50–200 KB value (the paper's backends write to Flink managed state
    * or DynamoDB, which costs far more). `warmup` iterations run the full
    * path before measurement so JIT compilation does not pollute the first
    * sampled configuration. */
  def run(stateKb: Int, events: Int, storePenaltyNs: Long = 100_000L,
          warmup: Int = 1000): Breakdown = {
    val graph = Compiler.compile(program)
    val op = graph.operator("Blob")
    val cd = program.clazz("Blob")
    val fd = cd.method("bump")

    val payload = "x" * (stateKb * 1024)
    var stateJson = Codec.encodeEnv(Map(
      "id" -> str("b1"), "payload" -> str(payload), "n" -> int(0)))

    var tRouting, tHeader, tDecode, tConstruct, tExec, tEncode, tStore = 0.0
    val store = mutable.Map.empty[String, String]

    val headerJson = Events.encode(Invoke("r1", 0, EntityAddr("Blob", "b1"), "bump",
      OperatorExec.EntryBlock, Map("by" -> int(1)), Nil))

    var i = -warmup
    while (i < events) {
      val measure = i >= 0

      var t0 = System.nanoTime()
      val ev = Events.decode(headerJson).asInstanceOf[Invoke]
      var t1 = System.nanoTime()
      if (measure) tHeader += (t1 - t0)

      t0 = System.nanoTime()
      val addr = EntityAddr.fromRoutingKey(ev.target.routingKey)
      val method = graph.operator(addr.clazz).method(ev.method)
      t1 = System.nanoTime()
      if (measure) tRouting += (t1 - t0)

      t0 = System.nanoTime()
      val fieldsMap = Codec.decodeEnv(stateJson)
      t1 = System.nanoTime()
      if (measure) tDecode += (t1 - t0)

      t0 = System.nanoTime()
      val entity = mutable.Map.empty[String, Value]
      entity ++= fieldsMap
      val vars = mutable.Map.empty[String, Value]
      vars ++= ev.env
      t1 = System.nanoTime()
      if (measure) tConstruct += (t1 - t0)

      t0 = System.nanoTime()
      Eval.exec(fd.body, vars, entity, program, cd, Eval.noRemote)
      t1 = System.nanoTime()
      if (measure) tExec += (t1 - t0)

      t0 = System.nanoTime()
      val encoded = Codec.encodeEnv(entity.toMap)
      t1 = System.nanoTime()
      if (measure) tEncode += (t1 - t0)

      t0 = System.nanoTime()
      store(addr.routingKey) = encoded
      val spinEnd = System.nanoTime() + storePenaltyNs
      while (System.nanoTime() < spinEnd) {}
      t1 = System.nanoTime()
      if (measure) tStore += (t1 - t0)

      stateJson = encoded
      val _ = method
      i += 1
    }

    Breakdown(stateKb, events,
      routingNs = tRouting / events,
      headerDecodeNs = tHeader / events,
      stateDecodeNs = tDecode / events,
      constructNs = tConstruct / events,
      execNs = tExec / events,
      stateEncodeNs = tEncode / events,
      storeNs = tStore / events)
  }
}
