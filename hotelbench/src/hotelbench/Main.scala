package hotelbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`
  *
  * Runs one workload in this JVM. Stdout gets one `env` line (the machine,
  * JVM and settings of the run) and, last, the result: operations attempted
  * and failed, whether every output matched the reference, and the
  * end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
  */
object Main {

  /** `spark.sql.shuffle.partitions` of the repository's Spark test harness. */
  val ShufflePartitions = 64

  val workloads: Map[String, (Config, Report) => Unit] = Map(
    "hotel-local" -> LocalBench.run,
    "hotel-faas"  -> FaasBench.run,
  )

  val endToEnd: Seq[String] = Seq("setup_s", "throughput_rps", "search_p50_ms", "recommend_p50_ms",
                                  "login_p50_ms", "reserve_p50_ms", "retained_heap_mb")

  /** Every per-layer metric with its unit. A layer a workload does not pass
    * through reads 0 on that workload. */
  val perLayer: Seq[(String, String)] = Seq(
    "search_p99_ms" -> "ms", "recommend_p99_ms" -> "ms",
    "traced.throughput_rps" -> "1/s", "traced.reserve_p50_ms" -> "ms",
    "compile.ms" -> "ms", "compile.blocks" -> "count",
    "codec.state_decode_us" -> "us", "codec.state_encode_us" -> "us", "codec.state_kb" -> "KB",
    "codec.event_decode_us" -> "us", "codec.event_encode_us" -> "us", "codec.event_bytes" -> "bytes",
    "exec.step_us" -> "us",
    "exec.hops_search" -> "count", "exec.hops_recommend" -> "count",
    "exec.hops_login" -> "count", "exec.hops_reserve" -> "count",
    "local.loop_us" -> "us", "local.traces_entries" -> "count",
    "faas.kv_get_us" -> "us", "faas.kv_put_us" -> "us", "faas.kv_ops_per_request" -> "count",
    "faas.kv_mb" -> "MB", "faas.lost_updates" -> "count",
    "entityop.packet_us" -> "us",
    "batch.call_ms" -> "ms", "batch.rounds" -> "count", "batch.round_ms" -> "ms", "batch.jobs_per_round" -> "count",
    "batch.tasks_per_round" -> "count", "batch.task_ms" -> "ms",
    "stream.call_ms" -> "ms", "stream.waves_per_call" -> "count",
    "stream.trigger_ms" -> "ms", "stream.addbatch_ms" -> "ms",
    "stream.walcommit_ms" -> "ms", "stream.commitoffsets_ms" -> "ms",
    "stream.state_update_ms" -> "ms", "stream.state_commit_ms" -> "ms",
    "stream.state_store_instances" -> "count", "stream.state_rows" -> "count",
    "stream.state_mem_mb" -> "MB", "stream.tasks_per_batch" -> "count", "stream.driver_ms" -> "ms",
    "stream.leaked_ckpt_dirs" -> "count",
    "setup.cold_s" -> "s", "setup.session_s" -> "s", "setup.seed_s" -> "s", "setup.query_start_s" -> "s",
  )

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val cfg = Config(opt("workload"), opt("seed").toLong, opt("seconds").toInt, opt("trace") == "1")
    val run = workloads.getOrElse(cfg.workload, usage(s"unknown workload ${cfg.workload}"))
    println(env(cfg))
    val rep = new Report
    run(cfg, rep)
    val metrics = if (cfg.trace) rep.layers else rep.e2e
    val c = rep.checks
    println(s"""{"correct": ${c.correct}, "attempted": ${c.attempted.get}, "failed": ${c.failed.get}, "metrics": ${metrics.json}}""")
    System.out.flush()
    sys.exit(0)
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"$msg\nusage: Main --workload <${workloads.keys.toSeq.sorted.mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  private def q(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  /** The machine, JVM and settings the run used. */
  private def env(cfg: Config): String = {
    val flags = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.map(q).mkString("[", ", ", "]")
    s"""env {"workload": ${q(cfg.workload)}, "seed": ${cfg.seed}, "request_seeds": """ +
      q(s"chunk c of ${Data.ChunkSize} requests uses seed ${cfg.seed} * 1000003 + c") +
      s""", "seconds": ${cfg.seconds}, "trace": ${cfg.trace}, """ +
      s""""nproc": ${Runtime.getRuntime.availableProcessors}, """ +
      s""""jvm": ${q(System.getProperty("java.vm.name") + " " + System.getProperty("java.runtime.version"))}, """ +
      s""""jvm_flags": $flags, "spark.sql.shuffle.partitions": ${if (cfg.trace) ShufflePartitions else "null"}}"""
  }
}
