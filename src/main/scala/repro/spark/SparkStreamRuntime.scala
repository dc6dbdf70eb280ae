package repro.spark

import java.io.File
import java.nio.file.Files
import java.util.concurrent.atomic.AtomicInteger
import org.apache.commons.io.FileUtils
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode, StreamingQuery}
import scala.collection.mutable
import repro.core._
import repro.core.Events._
import repro.core.Dataflow.DataflowGraph
import EntityOp._

/** The flagship runtime: StateFlow IR on Spark Structured Streaming.
  *
  * This is the mapping the repro band prescribes — stateful entities become
  * Structured Streaming stateful operators:
  *
  *  - **ingress**: a `MemoryStream[PacketRow]` source plus `groupByKey` on
  *    the `class|key` routing key — the paper's Kafka source + keyBy router;
  *  - **operator**: `flatMapGroupsWithState` with the entity's serialized
  *    field map in `GroupState[String]`; one logical operator instance per
  *    (class, key), exactly the paper's "each partition stores a set of
  *    stateful entities indexed by the unique key";
  *  - **egress + re-entry**: outputs are drained through a `foreachBatch`
  *    sink; the driver forwards client replies and re-injects hop events
  *    into the source — the paper's egress router looping events through
  *    Kafka because streaming engines reject cyclic dataflows. Each remote
  *    hop therefore costs one micro-batch, mirroring the per-hop Kafka
  *    round trip the paper measures on Flink/Statefun.
  *
  * State is persisted in Spark's streaming state store under a temporary
  * checkpoint directory, giving the engine's exactly-once guarantee across
  * batches; [[stop]] deletes the directory.
  */
final class SparkStreamRuntime(spark: SparkSession, graph: DataflowGraph) {
  import spark.implicits._

  private val name = s"stateflow_${SparkStreamRuntime.counter.getAndIncrement()}"
  private[spark] val checkpointDir = Files.createTempDirectory(s"$name-ckpt").toFile.getAbsolutePath

  private val input: MemoryStream[PacketRow] = MemoryStream[PacketRow](spark)

  /** Egress buffer filled by the foreachBatch sink (driver side). */
  private val sinkRows = new java.util.concurrent.ConcurrentLinkedQueue[OutRow]()

  private val query: StreamingQuery = {
    val g = graph
    input.toDS()
      .groupByKey(_.key)
      .flatMapGroupsWithState[String, OutRow](OutputMode.Update, GroupStateTimeout.NoTimeout) {
        (key: String, packets: Iterator[PacketRow], state: GroupState[String]) =>
          val st0 = if (state.exists) Some(state.get) else None
          val (st1, outs) = processKey(g, key, st0, packets.toSeq)
          if (st1 != st0) st1.foreach(state.update) // unchanged state is not re-stored
          outs.iterator
      }
      .writeStream
      .outputMode("update")
      .option("checkpointLocation", checkpointDir)
      .foreachBatch { (batch: Dataset[OutRow], _: Long) =>
        batch.collect().foreach(sinkRows.add)
      }
      .start()
  }

  /** Total hop events processed (for hop-count assertions). */
  var hops: Long = 0L
  /** Micro-batches driven (each hop wave = one batch). */
  var batches: Int = 0

  private def drainSink(): Seq[OutRow] = {
    val out = mutable.ArrayBuffer.empty[OutRow]
    var r = sinkRows.poll()
    while (r != null) { out += r; r = sinkRows.poll() }
    out.toSeq
  }

  private def processBatch(packets: Seq[PacketRow]): Seq[OutRow] = {
    input.addData(packets)
    batches += 1
    query.processAllAvailable()
    drainSink()
  }

  /** Seed entities (processed as their own micro-batch). */
  def seed(seeds: Seq[(String, String, Map[String, Value])]): Unit =
    if (seeds.nonEmpty) {
      val out = processBatch(seeds.map { case (c, k, f) => seedPacket(c, k, f) })
      require(out.isEmpty, s"seeding must not emit events, got $out")
    }

  /** Run invocation events to completion; each wave of hop events is
    * re-injected as the next micro-batch until only replies remain. */
  def run(initial: Seq[Invoke]): Map[String, Value] = {
    val (replies, _, n) = OperatorExec.reenter(initial.map(eventPacket))(processBatch(_).map(egress))
    hops += n
    replies
  }

  /** Convenience single invocation. */
  private var nextRequest = 0L
  def invoke(clazz: String, key: String, method: String, args: List[Value]): Value = {
    val rid = f"r$nextRequest%012d"
    nextRequest += 1
    run(List(OperatorExec.initialEvent(graph, rid, EntityAddr(clazz, key), method, args)))(rid)
  }

  /** Stop the streaming query and delete its checkpoint directory. Entity
    * state lives in the streaming state store, so tests read it back through
    * getter invocations (there is no side door — same as a deployed
    * dataflow); it does not outlive the runtime. */
  def stop(): Unit = {
    query.stop()
    // The state store's background maintenance can still be removing this
    // query's old files, and a delete walk that meets a file it removed
    // fails: walk again.
    val dir = new File(checkpointDir)
    (1 to 5).find { _ => FileUtils.deleteQuietly(dir); !dir.exists() }
  }
}

object SparkStreamRuntime {
  private val counter = new AtomicInteger(0)
}
