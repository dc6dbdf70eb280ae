package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.core.Events._
import repro.core.Dataflow.DataflowGraph
import EntityOp._

/** Spark batch-mode dataflow runtime.
  *
  * Executes the compiled IR as synchronous *hop rounds*: the entity state is
  * a keyed `Dataset[StateRow]`, and each round cogroups it with the round's
  * event packets — every operator partition folds its events over its
  * entities' state and emits the next-hop events, which the driver feeds
  * into the next round (the acyclic-dataflow + external re-entry loop of
  * §3, with the driver playing Kafka). All requests advance breadth-first,
  * one remote hop per round, so a run with a maximum call depth d performs
  * exactly d+1 rounds.
  *
  * This runtime is the deterministic workhorse for large differential and
  * oracle tests; the faithful streaming runtime is
  * [[SparkStreamRuntime]].
  */
object SparkBatchRuntime {
  /** Serialized entity state row: routing key + field-map JSON. */
  final case class StateRow(key: String, fields: String)

  final case class BatchResult(
      replies: Map[String, Value],
      state: Map[(String, String), Map[String, Value]],
      rounds: Int,
      hops: Long,
  )
}

final class SparkBatchRuntime(spark: SparkSession, graph: DataflowGraph) extends Serializable {
  import SparkBatchRuntime._

  /** Run `initial` invocation events to completion over entities seeded
    * with `seeds`. The seed packets ride in the first hop round, where
    * [[EntityOp.sortKey]] folds them before the round's events; `rounds`
    * and `hops` count event rounds and events only. */
  def run(
      seeds: Seq[(String, String, Map[String, Value])],
      initial: Seq[Invoke],
  ): BatchResult = {
    import spark.implicits._
    var state: Dataset[StateRow] = spark.emptyDataset[StateRow]
    var pending = seeds.map { case (c, k, f) => seedPacket(c, k, f) }

    def round(events: Seq[PacketRow]): Seq[OutRow] = {
      val (next, emitted) = hopRound(state, pending ++ events)
      state = next
      pending = Nil
      emitted
    }

    val (replies, rounds, hops) =
      OperatorExec.reenter(initial.map(eventPacket))(round(_).map(egress))
    if (pending.nonEmpty) round(Nil) // no events: the seeds still need a round

    val finalState = state.collect().map { r =>
      val addr = EntityAddr.fromRoutingKey(r.key)
      (addr.clazz, addr.key) -> Codec.decodeEnv(r.fields)
    }.toMap
    BatchResult(replies, finalState, rounds, hops)
  }

  /** One hop round: cogroup the state with the round's packets, fold each
    * key's packets over its state, and return the next state with the
    * emitted event rows. */
  private def hopRound(state: Dataset[StateRow], packets: Seq[PacketRow]): (Dataset[StateRow], Seq[OutRow]) = {
    import spark.implicits._
    val g = graph
    val out = state.groupByKey(_.key)
      .cogroup(spark.createDataset(packets).groupByKey(_.key)) { (key, sts, evs) =>
        val packets = evs.toSeq
        if (packets.isEmpty) {
          // untouched entity: pass its state through to the next round
          sts.map(s => OutRow(TagState, key, "", 0L, "", s.fields))
        } else {
          val st0 = sts.toSeq.headOption.map(_.fields)
          val (st1, outs) = processKey(g, key, st0, packets)
          val stateRow = st1.map(s => OutRow(TagState, key, "", 0L, "", s))
          stateRow.iterator ++ outs.iterator
        }
      }
      .localCheckpoint()
    (out.filter(_.tag == TagState).map(r => StateRow(r.key, r.body)),
     out.filter(_.tag == TagEvent).collect().toSeq)
  }
}
