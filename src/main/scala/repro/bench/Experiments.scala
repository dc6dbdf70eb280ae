package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.Compiler
import repro.deathstar.{HotelApp, Loc, Workload}
import repro.overhead.OverheadProbe
import repro.sim.{RuntimeProfile, SimDataflowRuntime}
import repro.sim.SimDataflowRuntime.{EndpointStats, Trace}
import repro.spark.SparkStreamRuntime

/** The evaluation experiments (one per table in EXPERIMENTS.md), run by
  * the `bench/` ScalaTest harnesses. Each function returns the table's
  * data; the caller formats and asserts. */
object Experiments {

  val endpoints: List[String] = List("login", "search", "recommend", "reserve")

  // ------------------------------------------------------------------- E1

  /** Fig 3: average latency per endpoint at a fixed 10 RPS, per runtime
    * profile. Simulated on real compiled hop traces. */
  final case class E1Row(runtime: String, endpoint: String, stats: EndpointStats)

  def e1Simulated(nRequests: Int = 500): List[E1Row] =
    for {
      p <- RuntimeProfile.all
      ep <- endpoints
    } yield {
      val traces = SimDataflowRuntime.hotelTraces(nRequests, Workload.only(ep), seed = 42)
      E1Row(p.name, ep, SimDataflowRuntime.simulate(p, traces, rps = 10).overall)
    }

  /** The real Spark Structured Streaming runtime, measured: wall-clock per
    * endpoint request (every remote hop costs a micro-batch — the analogue
    * of the dataflow systems' Kafka round trip). */
  def e1SparkMeasured(spark: SparkSession, perEndpoint: Int = 3): List[(String, Double)] = {
    val graph = Compiler.compile(HotelApp.program)
    val rt = new SparkStreamRuntime(spark, graph)
    try {
      rt.seed(HotelApp.seeds(nRegions = 4, hotelsPerRegion = 5, nUsers = 10, capacity = 1000))
      endpoints.map { ep =>
        val reqs = Workload.generate(perEndpoint + 1, Workload.only(ep), 4, 5, 10, seed = 9)
        // one warmup request, then timed ones
        val (c0, k0, m0, a0) = reqs.head.call
        rt.invoke(c0, k0, m0, a0)
        val times = reqs.tail.map { r =>
          val (c, k, m, a) = r.call
          val t0 = System.nanoTime()
          rt.invoke(c, k, m, a)
          (System.nanoTime() - t0) / 1e6
        }
        ep -> times.sum / times.size
      }
    } finally rt.stop()
  }

  // ------------------------------------------------------------------- E2

  /** Fig 4: mixed-workload latency vs offered load. PyFlink is excluded
    * exactly as in the paper ("absent due to its poor performance leading
    * to timeouts even at very low throughputs"). */
  final case class E2Row(runtime: String, rps: Int, avgMs: Double, p50Ms: Double, p99Ms: Double)

  val e2Rates: List[Int] = List(1200, 2000, 3000, 4300)

  def e2Sweep(windowS: Double = 4.5): List[E2Row] = {
    val profiles = List(RuntimeProfile.awsLambda, RuntimeProfile.statefun, RuntimeProfile.flinkJvm)
    for {
      p <- profiles
      rps <- e2Rates
    } yield {
      val n = (rps * windowS).toInt
      val traces = SimDataflowRuntime.hotelTraces(n, Workload.paperMix, seed = 42)
      val s = SimDataflowRuntime.simulate(p, traces, rps = rps).overall
      E2Row(p.name, rps, s.avgMs, s.p50Ms, s.p99Ms)
    }
  }

  /** PyFlink saturation check (why it is absent from the sweep). */
  def e2PyflinkSaturation(): Double = {
    val traces = SimDataflowRuntime.hotelTraces(600, Workload.paperMix, seed = 42)
    SimDataflowRuntime.simulate(RuntimeProfile.pyFlink, traces, rps = 150).execUtilization
  }

  // ------------------------------------------------------------------- E3

  def e3Overhead(events: Int = 300): List[OverheadProbe.Breakdown] =
    List(50, 100, 150, 200).map(kb => OverheadProbe.run(kb, events))

  // ------------------------------------------------------------------- E4

  final case class E4Result(stateflowLoc: Int, baselineLoc: Int, baselineInfra: Int,
                            baselineInfraShare: Double, switchLoc: Int)

  def e4Loc(): E4Result = {
    val sf = Loc.stateflowHotel
    val bl = Loc.baselineHotel
    E4Result(sf.total, bl.total, bl.infra, bl.infraShare, Loc.runtimeSwitch.total)
  }
}
