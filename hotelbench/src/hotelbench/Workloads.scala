package hotelbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.{AtomicLong, AtomicLongArray}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryProgress
import repro.core._
import repro.core.Events._
import repro.core.Dataflow.DataflowGraph
import repro.deathstar.{HotelApp, Workload}
import repro.deathstar.Workload.Request
import repro.faas.FaasRuntime
import repro.runtime.LocalRuntime
import repro.spark.{SparkBatchRuntime, SparkStreamRuntime}

final case class Config(workload: String, seed: Long, seconds: Int, trace: Boolean)

/** What one run reports: operations, end-to-end metrics (untraced runs)
  * and per-layer metrics (traced runs). */
final class Report {
  val checks = new Checks
  val e2e = new Metrics
  val layers = new Metrics
  Main.perLayer.foreach { case (name, unit) => layers(name, unit) = 0.0 }
  /** JVM uptime when the workload starts, in s. */
  val enteredS: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
  def layer(name: String, v: Double): Unit = layers(name, layers.values(name)._2) = v
}

/** The time of each phase of one set-up, in ns. */
final class Phases {
  val ns = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)
  def apply[T](phase: String)(body: => T): T = {
    val t = System.nanoTime()
    try body finally ns(phase) += System.nanoTime() - t
  }
  def total: Long = ns.values.sum
}

object Setup {
  /** Median seconds of `phase` over `setups`. */
  def median(setups: Seq[Phases], phase: String): Double =
    Stats.median(setups.map(p => Stats.secs(p.ns(phase))))

  /** `n` set-ups by `one`, of which only the last is kept. Reports the
    * median set-up and seed times, and the cold start: the JVM's uptime
    * at the workload's start plus the first set-up, which loads the
    * classes and compiles first. */
  def repeat[R](rep: Report, n: Int)(one: Phases => R): R = {
    var last = Option.empty[R]
    val setups = (1 to n).map { _ =>
      val p = new Phases
      last = Some(one(p))
      p
    }
    rep.e2e("setup_s", "s") = Stats.median(setups.map(p => Stats.secs(p.total)))
    rep.layer("setup.cold_s", rep.enteredS + Stats.secs(setups.head.total))
    rep.layer("setup.seed_s", median(setups, "seed"))
    last.get
  }

  /** Warm `Compiler.compile` time and the function blocks it produces. */
  def compiler(rep: Report): Unit = {
    (1 to 20).foreach(_ => Compiler.compile(HotelApp.program))
    val ms = (1 to 20).map { _ =>
      val t = System.nanoTime(); Compiler.compile(HotelApp.program); (System.nanoTime() - t) / 1e6
    }
    rep.layer("compile.ms", Stats.median(ms))
    val g = Compiler.compile(HotelApp.program)
    rep.layer("compile.blocks", g.operators.values.toSeq.flatMap(_.methods.values).map {
      case StateMachine.SplitMethod(sm)   => sm.size
      case StateMachine.InlineMethod(_, _) => 1
    }.sum.toDouble)
  }

  /** Live heap now, minus `base`, in MB; `keep` stays reachable. */
  def retainedMb(base: Long, keep: AnyRef): Double = {
    val live = Stats.liveHeap()
    java.lang.ref.Reference.reachabilityFence(keep)
    (live - base) / 1e6
  }
}

/** A closed loop: each client sends its next request when its previous
  * reply is in, so a slower system receives less load. */
object ClosedLoop {

  /** A timed window: requests completed, per-endpoint latencies, and the
    * completion rate of each whole [[SliceNs]] slice of the window. */
  final case class Window(requests: Long, lat: Latencies, sliceRates: Seq[Double]) {
    /** The median slice rate: a burst of noise from outside the process
      * moves a few slices, not the median. */
    def throughput: Double = Stats.median(sliceRates)
    def meanUs: Double =
      Data.endpoints.map(e => lat.byEndpoint(e).sum).sum / 1e3 / math.max(1L, requests)
  }

  val SliceNs = 500000000L

  /** `send(client, i, request)` returns the reply to request `i`. */
  type Send = (Int, Long, Request) => Value

  /** Requests 0 until `n`, untimed, on `clients` threads. Each reply is
    * checked against `ref`. */
  def warmup(clients: Int, reqs: Data.Requests, ref: Reference, checks: Checks, n: Long)(send: Send): Unit = {
    val next = new AtomicLong(0)
    threads(clients) { c =>
      var i = next.getAndIncrement()
      while (i < n) { one(reqs, ref, checks, send, c, i, null); i = next.getAndIncrement() }
    }
  }

  /** Requests from `from` on, on `clients` threads, until `seconds` have
    * passed. Each reply is checked against `ref`, which must have applied
    * requests 0 until `from`. */
  def run(clients: Int, reqs: Data.Requests, ref: Reference, checks: Checks,
          from: Long, seconds: Double)(send: Send): Window = {
    val next = new AtomicLong(from)
    val lats = Array.fill(clients)(new Latencies)
    val window = (seconds * 1e9).toLong
    val slices = new AtomicLongArray((window / SliceNs).toInt + 1)
    val t0 = System.nanoTime()
    threads(clients) { c =>
      var t = t0
      while (t - t0 < window) {
        one(reqs, ref, checks, send, c, next.getAndIncrement(), lats(c))
        t = System.nanoTime()
        slices.incrementAndGet(((t - t0) / SliceNs).toInt.min(slices.length - 1))
      }
    }
    val all = new Latencies
    lats.foreach(all.addAll)
    val whole = (window / SliceNs).toInt
    Window(next.get - from, all, (0 until whole).map(i => slices.get(i) * 1e9 / SliceNs))
  }

  /** [[warmup]] with `warmup` requests, then [[run]]. */
  def warmAndRun(clients: Int, reqs: Data.Requests, ref: Reference, checks: Checks,
                 warmup: Long, seconds: Double)(send: Send): Window = {
    this.warmup(clients, reqs, ref, checks, warmup)(send)
    run(clients, reqs, ref, checks, warmup, seconds)(send)
  }

  /** Request `i`: send it, record its latency in `lat` unless null, and
    * check its reply. */
  private def one(reqs: Data.Requests, ref: Reference, checks: Checks, send: Send,
                  c: Int, i: Long, lat: Latencies): Unit = {
    val r = reqs(i)
    val t0 = System.nanoTime()
    val v = try send(c, i, r) catch { case e: Exception => checks.error(s"request $i", e); null }
    val t1 = System.nanoTime()
    if (v != null) {
      if (lat != null) lat.add(r.endpoint, t1 - t0)
      val expected = ref.synchronized(ref.reply(r.call))
      checks.reply(s"request $i ${r.call}", expected, v)
    }
  }

  private def threads(n: Int)(body: Int => Unit): Unit = {
    val ts = (0 until n).map { c =>
      val t = new Thread(() => body(c), s"client-$c")
      t.start(); t
    }
    ts.foreach(_.join())
  }

  /** The window's throughput and median latency per endpoint, and its
    * search and recommend tails as per-layer metrics of the client. */
  def report(rep: Report, w: Window): Unit = {
    rep.e2e("throughput_rps", "1/s") = w.throughput
    Data.endpoints.foreach(e => rep.e2e(s"${e}_p50_ms", "ms") = w.lat.ms(e, 0.5))
    rep.layer("search_p99_ms", w.lat.ms("search", 0.99))
    rep.layer("recommend_p99_ms", w.lat.ms("recommend", 0.99))
  }
}

/** hotel-local: the Fig-4 mix, one client, through `LocalRuntime`. */
object LocalBench {
  val Setups = 201
  val Warmup = 50000L

  def run(cfg: Config, rep: Report): Unit = {
    val base = Stats.liveHeap()
    val rt = setUp(cfg, rep)
    if (!cfg.trace) rep.e2e("retained_heap_mb", "MB") = Setup.retainedMb(base, rt)
    val loopUs = serve(cfg, rep, rt)
    if (cfg.trace) trace(cfg, rep, rt, loopUs)
  }

  private def send(rt: LocalRuntime): ClosedLoop.Send =
    (_, _, r) => rt.invoke(r.call._1, r.call._2, r.call._3, r.call._4)

  /** The set-ups and the untimed warm-up. Returns the runtime only; the
    * warm-up's requests stay behind in this frame. */
  private def setUp(cfg: Config, rep: Report): LocalRuntime = {
    val spec = Data.hotels
    val seeds = spec.seeds
    val rt = Setup.repeat(rep, Setups) { p =>
      val graph = p("compile")(Compiler.compile(HotelApp.program))
      val rt = p("construct")(new LocalRuntime(graph))
      p("seed")(seeds.foreach { case (c, k, f) => rt.seed(c, k, f) })
      rt
    }
    ClosedLoop.warmup(1, new Data.Requests(cfg.seed, Workload.paperMix, spec), new Reference(seeds), rep.checks,
                      Warmup)(send(rt))
    rt
  }

  /** The timed window and the final-state check. Returns the mean request
    * time in µs. */
  private def serve(cfg: Config, rep: Report, rt: LocalRuntime): Double = {
    val spec = Data.hotels
    val reqs = new Data.Requests(cfg.seed, Workload.paperMix, spec)
    val ref = Bench.reference(spec.seeds, reqs, Warmup)
    val w = ClosedLoop.run(1, reqs, ref, rep.checks, Warmup, cfg.seconds)(send(rt))
    ClosedLoop.report(rep, w)
    Bench.checkState(rep.checks, ref, spec, exact = true)(rt.snapshot(_, _))
    w.meanUs
  }

  private def trace(cfg: Config, rep: Report, rt: LocalRuntime, loopUs: Double): Unit = {
    val spec = Data.hotels
    val seeds = spec.seeds
    rep.layer("local.traces_entries", rt.traces.size.toDouble)
    val replay = new Trace.LocalReplay(rt.graph, seeds)
    val tw = ClosedLoop.warmAndRun(1, new Data.Requests(cfg.seed, Workload.paperMix, spec), new Reference(seeds),
                                   rep.checks, Warmup, cfg.seconds) { (_, i, r) => replay.invoke(s"t$i", r.endpoint, r.call) }
    rep.layer("traced.throughput_rps", tw.throughput)
    rep.layer("traced.reserve_p50_ms", tw.lat.ms("reserve", 0.5))
    rep.layer("exec.step_us", replay.step.meanUs)
    Bench.hops(rep, replay.hops)
    rep.layer("local.loop_us", loopUs - replay.step.ns / 1e3 / replay.hops.requestCount)
    Setup.compiler(rep)
    StreamLayer.trace(rep, cfg.seed)
  }
}

/** hotel-faas: the Fig-4 mix, two clients, through `FaasRuntime` over the
  * default lock-free `SimKV`. */
object FaasBench {
  val Setups = 201
  val Clients = 2
  /** Long enough that the warm-up's reserves, not the window's, set the
    * hot users' reservation lists when the window starts: with few of
    * them, login and reserve medians follow how many the seed gave the
    * hottest user. */
  val Warmup = 100000L

  def run(cfg: Config, rep: Report): Unit = {
    val base = Stats.liveHeap()
    val (rt, graph) = setUp(cfg, rep)
    if (!cfg.trace) rep.e2e("retained_heap_mb", "MB") = Setup.retainedMb(base, rt)
    serve(cfg, rep, rt)
    if (cfg.trace) trace(cfg, rep, rt, graph)
  }

  private def send(rt: FaasRuntime): ClosedLoop.Send =
    (_, i, r) => rt.invoke(r.call._1, r.call._2, r.call._3, r.call._4, requestId = s"f$i")

  /** The set-ups and the untimed warm-up. Returns the runtime and its
    * graph; the warm-up's requests stay behind in this frame. */
  private def setUp(cfg: Config, rep: Report): (FaasRuntime, DataflowGraph) = {
    val spec = Data.hotels
    val seeds = spec.seeds
    val (rt, graph) = Setup.repeat(rep, Setups) { p =>
      val graph = p("compile")(Compiler.compile(HotelApp.program))
      val rt = p("construct")(new FaasRuntime(graph))
      p("seed")(seeds.foreach { case (c, k, f) => rt.seed(c, k, f) })
      (rt, graph)
    }
    ClosedLoop.warmup(Clients, new Data.Requests(cfg.seed, Workload.paperMix, spec), new Reference(seeds),
                      rep.checks, Warmup)(send(rt))
    (rt, graph)
  }

  /** The timed window and the final-state check. */
  private def serve(cfg: Config, rep: Report, rt: FaasRuntime): Unit = {
    val spec = Data.hotels
    val reqs = new Data.Requests(cfg.seed, Workload.paperMix, spec)
    val ref = Bench.reference(spec.seeds, reqs, Warmup)
    val ops0 = rt.kv.gets.get + rt.kv.puts.get
    val w = ClosedLoop.run(Clients, reqs, ref, rep.checks, Warmup, cfg.seconds)(send(rt))
    val ops = rt.kv.gets.get + rt.kv.puts.get - ops0
    ClosedLoop.report(rep, w)
    // Without locks, concurrent read-modify-writes may lose updates, but
    // never invent one.
    val lost = Bench.checkState(rep.checks, ref, spec, exact = false)(rt.snapshot(_, _))
    rep.layer("faas.lost_updates", lost.toDouble)
    rep.layer("faas.kv_ops_per_request", ops.toDouble / w.requests)
  }

  private def trace(cfg: Config, rep: Report, rt: FaasRuntime, graph: DataflowGraph): Unit = {
    val spec = Data.hotels
    val seeds = spec.seeds
    rep.layer("faas.kv_mb", rt.kv.snapshot.values.map(_.length.toLong).sum / 1e6)
    val replay = new Trace.FaasReplay(graph, seeds)
    val spans = Array.fill(Clients)(new Trace.FaasSpans)
    val tw = ClosedLoop.warmAndRun(Clients, new Data.Requests(cfg.seed, Workload.paperMix, spec),
                                   new Reference(seeds), rep.checks, Warmup, cfg.seconds) { (c, i, r) =>
      replay.invoke(spans(c), s"t$i", r.endpoint, r.call)
    }
    val sp = new Trace.FaasSpans
    spans.foreach(sp.addAll)
    rep.layer("traced.throughput_rps", tw.throughput)
    rep.layer("traced.reserve_p50_ms", tw.lat.ms("reserve", 0.5))
    rep.layer("exec.step_us", sp.step.meanUs)
    Bench.hops(rep, sp.hops)
    rep.layer("codec.state_decode_us", sp.decode.meanUs)
    rep.layer("codec.state_encode_us", sp.encode.meanUs)
    rep.layer("codec.state_kb", sp.decode.meanBytes / 1024)
    rep.layer("faas.kv_get_us", sp.get.meanUs)
    rep.layer("faas.kv_put_us", sp.put.meanUs)
    Setup.compiler(rep)
    BatchLayer.trace(rep, cfg.seed)
  }
}

object Bench {
  def hops(rep: Report, h: Trace.Hops): Unit =
    Data.endpoints.foreach(e => rep.layer(s"exec.hops_$e", h.mean(e)))

  /** A reference that has applied requests 0 until `n` of `reqs`, as the
    * warm-up left the runtime. With capacity never reached, the order in
    * which the warm-up's clients sent them does not matter. */
  def reference(seeds: Seq[(String, String, Map[String, Value])], reqs: Data.Requests, n: Long): Reference = {
    val ref = new Reference(seeds)
    var i = 0L
    while (i < n) { ref.reply(reqs(i).call); i += 1 }
    ref
  }

  /** A call's requests as initial events, request ids in send order. */
  def events(graph: DataflowGraph, call: Int, rs: Seq[Request]): Seq[(Invoke, String)] =
    rs.zipWithIndex.map { case (r, j) =>
      (OperatorExec.initialEvent(graph, f"c$call%05d-$j%05d", EntityAddr(r.call._1, r.call._2),
                                 r.call._3, r.call._4), r.endpoint)
    }

  /** Check the final hotel and user state against `ref`: equal when
    * `exact`, else at most the reference (lost updates only). Returns the
    * updates lost. */
  def checkState(checks: Checks, ref: Reference, spec: Data.Spec, exact: Boolean)
                (entity: (String, String) => Map[String, Value]): Long = {
    def one(what: String, got: Long, expected: Long): Long = {
      checks.state(s"$what: $got, reference $expected", if (exact) got == expected else got >= 0 && got <= expected)
      expected - got
    }
    spec.hotelIds.map(h => one(s"Hotel $h reserved", entity("Hotel", h)("reserved").asInt, ref.expectedReserved(h))).sum +
      spec.userIds.map(u => one(s"User $u reservations", entity("User", u)("reservations").asList.size,
                                ref.expectedReservations(u))).sum
  }

  /** Check each reply of a call, in request id order, against `ref`. */
  def checkReplies(checks: Checks, ref: Reference, rs: Seq[Request], evs: Seq[(Invoke, String)],
                   replies: Map[String, Value]): Unit =
    rs.zip(evs).foreach { case (r, (ev, _)) =>
      checks.reply(s"${ev.requestId} ${r.call}", ref.reply(r.call), replies.getOrElse(ev.requestId, null))
    }

  def session(): SparkSession = SparkSession.builder
    .master(s"local[${Runtime.getRuntime.availableProcessors}]")
    .appName("hotelbench")
    .config("spark.sql.shuffle.partitions", Main.ShufflePartitions.toLong)
    .config("spark.sql.autoBroadcastJoinThreshold", -1L)
    .config("spark.ui.enabled", false)
    .getOrCreate()

  def stopSession(spark: SparkSession): Unit = {
    spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }
}

/** `SparkBatchRuntime`'s layer, measured in hotel-faas's traced run on a
  * Spark session of its own: the Fig-4 mix as [[Calls]] `run` calls of
  * [[CallSize]] requests after [[WarmupCalls]] untimed ones. Each call
  * re-seeds the dataset, so its final state is exact per call, and the
  * packet replay runs each call again after it returns. */
object BatchLayer {
  val CallSize = 1000
  val WarmupCalls = 1
  val Calls = 2

  def trace(rep: Report, seed: Long): Unit = {
    val t = System.nanoTime()
    val spark = Bench.session()
    rep.layer("setup.session_s", Stats.secs(System.nanoTime() - t))
    try calls(rep, spark, seed) finally Bench.stopSession(spark)
  }

  private def calls(rep: Report, spark: SparkSession, seed: Long): Unit = {
    val spec = Data.hotels
    val seeds = spec.seeds
    val graph = Compiler.compile(HotelApp.program)
    val rt = new SparkBatchRuntime(spark, graph)
    val replay = new Trace.PacketReplay(graph)
    val reqs = new Data.Requests(seed, Workload.paperMix, spec)

    /** Call `c`: returns its duration in ns and its rounds. */
    def call(c: Int): (Long, Int) = {
      val rs = (0 until CallSize).map(j => reqs(c.toLong * CallSize + j))
      val evs = Bench.events(graph, c, rs)
      val t = System.nanoTime()
      val res = rt.run(seeds, evs.map(_._1))
      val dt = System.nanoTime() - t
      val ref = new Reference(seeds)
      Bench.checkReplies(rep.checks, ref, rs, evs, res.replies)
      Bench.checkState(rep.checks, ref, spec, exact = true)((c, k) => res.state((c, k)))
      replay.seed(seeds)
      val replies = replay.call(evs.map(_._1))
      evs.foreach { case (ev, _) =>
        rep.checks.reply(s"replay ${ev.requestId}", res.replies.getOrElse(ev.requestId, null),
                         replies.getOrElse(ev.requestId, null))
      }
      (dt, res.rounds)
    }

    (0 until WarmupCalls).foreach(call)
    replay.resetSpans()
    val jobs = new Trace.JobCounter
    spark.sparkContext.addSparkListener(jobs)
    val durations = new Samples
    var rounds = 0L
    (WarmupCalls until WarmupCalls + Calls).foreach { c =>
      val (dt, r) = call(c)
      durations.add(dt)
      rounds += r
    }
    Thread.sleep(500) // let the listener bus deliver the last calls' events
    spark.sparkContext.removeSparkListener(jobs)
    rep.layer("codec.event_decode_us", replay.eventDecode.meanUs)
    rep.layer("codec.event_encode_us", replay.eventEncode.meanUs)
    rep.layer("codec.event_bytes", replay.eventDecode.meanBytes)
    rep.layer("entityop.packet_us", replay.packet.meanUs)
    rep.layer("batch.call_ms", durations.median / 1e6)
    rep.layer("batch.rounds", rounds.toDouble / durations.size)
    rep.layer("batch.round_ms", Stats.secs(durations.sum) * 1e3 / rounds)
    rep.layer("batch.jobs_per_round", jobs.jobs.get.toDouble / rounds)
    rep.layer("batch.tasks_per_round", jobs.tasks.get.toDouble / rounds)
    rep.layer("batch.task_ms", jobs.taskMs.get.toDouble / math.max(1L, jobs.tasks.get))
  }
}

/** `SparkStreamRuntime`'s layer, measured in hotel-local's traced run on a
  * Spark session of its own: [[Calls]] calls of [[CallSize]] reserves
  * after [[WarmupCalls]] untimed ones, five micro-batches each. The
  * hotels' capacity is below the attempts a popular hotel receives, so
  * both reserve outcomes occur. State persists across calls and is read
  * back through getter calls at the end. */
object StreamLayer {
  val CallSize = 32
  val WarmupCalls = 1
  val Calls = 1

  def trace(rep: Report, seed: Long): Unit = {
    val t = System.nanoTime()
    val spark = Bench.session()
    rep.layer("setup.session_s", Stats.secs(System.nanoTime() - t))
    try {
      val graph = Compiler.compile(HotelApp.program)
      val q0 = System.nanoTime()
      val rt = new SparkStreamRuntime(spark, graph)
      rep.layer("setup.query_start_s", Stats.secs(System.nanoTime() - q0))
      try calls(rep, spark, graph, rt, seed) finally rt.stop()
    } finally Bench.stopSession(spark)
    // The runtime leaves its checkpoint directory behind; the JVM's temp
    // directory is private to this run, so whatever is there is the leak.
    val tmp = new java.io.File(System.getProperty("java.io.tmpdir"))
    rep.layer("stream.leaked_ckpt_dirs",
      Option(tmp.listFiles()).getOrElse(Array.empty).count(f => f.isDirectory && f.getName.contains("-ckpt")).toDouble)
  }

  private def calls(rep: Report, spark: SparkSession, graph: DataflowGraph, rt: SparkStreamRuntime,
                    seed: Long): Unit = {
    val spec = Data.stream
    val seeds = spec.seeds
    rt.seed(seeds)
    val reqs = new Data.Requests(seed, Data.reserveOnly, spec)
    val ref = new Reference(seeds)
    var calls = 0

    def call(): Long = {
      val rs = (0 until CallSize).map(j => reqs(calls.toLong * CallSize + j))
      val evs = Bench.events(graph, calls, rs)
      calls += 1
      val t = System.nanoTime()
      val replies = rt.run(evs.map(_._1))
      val dt = System.nanoTime() - t
      // Within a call every reserve reaches its hotel in the same
      // micro-batch, where the hotel takes them in request id order.
      Bench.checkReplies(rep.checks, ref, rs, evs, replies)
      dt
    }

    (1 to WarmupCalls).foreach(_ => call())
    val jobs = new Trace.JobCounter
    val progress = new Trace.ProgressLog
    spark.sparkContext.addSparkListener(jobs)
    spark.streams.addListener(progress)
    val batches0 = rt.batches
    val durations = new Samples
    (1 to Calls).foreach(_ => durations.add(call()))
    val waves = rt.batches - batches0
    Trace.awaitEvents(progress.batches.size >= waves)
    spark.sparkContext.removeSparkListener(jobs)
    spark.streams.removeListener(progress)

    // Final state, read back through getters in one call.
    val getters = spec.hotelIds.map(h => ("Hotel", h, "get_reserved")) ++
                  spec.userIds.map(u => ("User", u, "reservation_count"))
    val gevs = getters.zipWithIndex.map { case ((c, k, m), j) =>
      OperatorExec.initialEvent(graph, f"g$j%05d", EntityAddr(c, k), m, Nil)
    }
    val got = rt.run(gevs)
    getters.zip(gevs).foreach { case ((c, k, _), ev) =>
      val expected = if (c == "Hotel") ref.expectedReserved(k) else ref.expectedReservations(k)
      rep.checks.reply(s"$c $k read back", Value.int(expected), got.getOrElse(ev.requestId, null))
    }

    val ps = progress.batches.asScala.toSeq
    def mean(f: StreamingQueryProgress => Double): Double =
      if (ps.isEmpty) 0.0 else ps.map(f).sum / ps.size
    def dur(k: String)(p: StreamingQueryProgress): Double =
      Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
    val last = ps.lastOption.flatMap(_.stateOperators.headOption)
    rep.layer("stream.call_ms", durations.median / 1e6)
    rep.layer("stream.waves_per_call", waves.toDouble / durations.size)
    rep.layer("stream.trigger_ms", mean(dur("triggerExecution")))
    rep.layer("stream.addbatch_ms", mean(dur("addBatch")))
    rep.layer("stream.walcommit_ms", mean(dur("walCommit")))
    rep.layer("stream.commitoffsets_ms", mean(dur("commitOffsets")))
    // Spark sums these two over the operator's state-store instances.
    rep.layer("stream.state_update_ms", mean(_.stateOperators.headOption.map(_.allUpdatesTimeMs.toDouble).getOrElse(0.0)))
    rep.layer("stream.state_commit_ms", mean(_.stateOperators.headOption.map(_.commitTimeMs.toDouble).getOrElse(0.0)))
    rep.layer("stream.state_store_instances", last.map(_.numStateStoreInstances.toDouble).getOrElse(0.0))
    rep.layer("stream.state_rows", last.map(_.numRowsTotal.toDouble).getOrElse(0.0))
    rep.layer("stream.state_mem_mb", last.map(_.memoryUsedBytes / 1e6).getOrElse(0.0))
    rep.layer("stream.tasks_per_batch", jobs.tasks.get.toDouble / math.max(1L, waves))
    rep.layer("stream.driver_ms",
      (Stats.secs(durations.sum) * 1e3 - ps.map(dur("triggerExecution")).sum) / durations.size)
  }
}
