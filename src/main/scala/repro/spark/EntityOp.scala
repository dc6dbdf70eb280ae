package repro.spark

import repro.core._
import repro.core.Events._
import repro.core.Dataflow.DataflowGraph

/** Per-key operator logic shared by the Spark batch and streaming runtimes.
  *
  * Both runtimes key the event stream by the entity routing key
  * `class|key` (the paper's ingress keyBy on class name + entity key) and
  * hand each group to [[processKey]], which folds the group's packets over
  * the entity's serialized state. Both drive [[OperatorExec.reenter]] with
  * encoded packets as the waves, and [[egress]] turns each emitted row into
  * a next-wave packet or a reply, so the driver passes event bodies on
  * without decoding them. The two runtimes differ only in where the
  * serialized state lives and how one wave of packets runs: a state
  * `Dataset` threaded through `cogroup` rounds (batch) or Spark's
  * `GroupState` behind one micro-batch (Structured Streaming).
  */
object EntityOp {

  /** Wire row entering an operator. `kind` is `seed` (body = field-map JSON
    * merged into entity state) or `ev` (body = encoded [[Events.Invoke]]). */
  final case class PacketRow(key: String, rid: String, seq: Long, kind: String, body: String)

  /** Wire row leaving an operator. `tag` is `s` (body = the entity's new
    * serialized state; `key` = routing key) or `e` (an event: `kind` is
    * `ev` for a hop that must re-enter the dataflow — the paper's Kafka
    * loop — or `reply` for an egress answer, body = value JSON). */
  final case class OutRow(tag: String, key: String, rid: String, seq: Long, kind: String, body: String)

  val KindSeed  = "seed"
  val KindEvent = "ev"
  val KindReply = "reply"
  val TagState  = "s"
  val TagEvent  = "e"

  def seedPacket(clazz: String, key: String, fields: Map[String, Value]): PacketRow =
    PacketRow(EntityAddr(clazz, key).routingKey, "", 0L, KindSeed, Codec.encodeEnv(fields))

  def eventPacket(ev: Invoke): PacketRow =
    PacketRow(ev.target.routingKey, ev.requestId, ev.seq, KindEvent, Events.encode(ev))

  /** Deterministic processing order inside one micro-batch/round: seeds
    * first (empty rid sorts first), then by (request id, hop sequence). */
  def sortKey(p: PacketRow): (String, Long) = (p.rid, p.seq)

  /** Fold `packets` over the entity state serialized in `state0`; returns
    * the new serialized state (if the entity materialized) and the emitted
    * event rows. When no packet may have changed the state (only hops of
    * methods with an empty write set, on a materialized entity), the state
    * returned is `state0` itself, not re-encoded. */
  def processKey(
      graph: DataflowGraph,
      routingKey: String,
      state0: Option[String],
      packets: Seq[PacketRow],
  ): (Option[String], Seq[OutRow]) = {
    val addr = EntityAddr.fromRoutingKey(routingKey)
    val cd = graph.operator(addr.clazz).cd
    var fields: Option[Array[Value]] = state0.map(s => cd.layout.remap(Codec.readEnv(s)))
    var changed = false
    val outs = Seq.newBuilder[OutRow]
    packets.sortBy(sortKey).foreach { p =>
      p.kind match {
        case KindSeed =>
          fields = Some(cd.layout.updated(fields.getOrElse(cd.initialFields(addr.key)), Codec.decodeEnv(p.body)))
          changed = true
        case KindEvent =>
          val ev = Events.decode(p.body).asInstanceOf[Invoke]
          val res = OperatorExec.stepFields(graph, fields, ev)
          fields = Some(res.fields)
          changed ||= res.changed
          res.out match {
            case next: Invoke =>
              outs += OutRow(TagEvent, next.target.routingKey, next.requestId, next.seq,
                             KindEvent, Events.encode(next))
            case Reply(rid, v) =>
              outs += OutRow(TagEvent, "", rid, Long.MaxValue, KindReply, Codec.encodeValue(v))
          }
        case other =>
          throw new IllegalArgumentException(s"unknown packet kind $other")
      }
    }
    (if (changed) fields.map(a => Codec.encodeEnv(new Env(cd.layout, a))) else state0, outs.result())
  }

  /** An emitted event row as [[OperatorExec.reenter]] takes it: a hop that
    * re-enters as the next wave's packet, or a reply to the client. */
  def egress(row: OutRow): Either[PacketRow, (String, Value)] =
    if (row.kind == KindEvent) Left(PacketRow(row.key, row.rid, row.seq, KindEvent, row.body))
    else Right(row.rid -> Codec.decodeValue(row.body))
}
