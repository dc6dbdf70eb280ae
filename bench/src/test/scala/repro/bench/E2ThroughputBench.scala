package repro.bench

import repro.SparkSpec
import repro.deathstar.Workload
import repro.sim.{RuntimeProfile, SimDataflowRuntime}
import repro.sim.SimDataflowRuntime.EndpointStats
import TableFmt._

/** Table E2 (paper Figure 4): mixed DeathStar workload (search 60%,
  * recommend 39%, login 0.5%, reserve 0.5%), average and 99th-percentile
  * latency at increasing offered load.
  *
  * Paper's results to reproduce: Lambda maintains ~250 ms p99 from 1200 to
  * 4300 RPS; Statefun's p99 exceeds 2 s by 3000 RPS (p50 by 4300); FlinkJVM
  * degrades gradually; PyFlink cannot sustain even low rates and is
  * excluded from the sweep.
  */
class E2ThroughputBench extends SparkSpec {

  private val rates = List(1200, 2000, 3000, 4300)

  /** (runtime, rps, overall stats) per profile and rate: 4.5 s of the
    * paper's mix at each rate. Each rate's hop traces are computed once and
    * replayed under every profile. */
  private lazy val rows: List[(String, Int, EndpointStats)] = {
    val traces = rates.map(rps =>
      rps -> SimDataflowRuntime.hotelTraces((rps * 4.5).toInt, Workload.paperMix)).toMap
    for {
      p <- List(RuntimeProfile.awsLambda, RuntimeProfile.statefun, RuntimeProfile.flinkJvm)
      rps <- rates
    } yield (p.name, rps, SimDataflowRuntime.simulate(p, traces(rps), rps = rps).overall)
  }
  private def at(rt: String, rps: Int): EndpointStats =
    rows.collectFirst { case (`rt`, `rps`, s) => s }.get

  test("E2: print the Fig-4 table") {
    println(TableFmt.render(
      "E2 — mixed workload latency vs offered load (ms, simulated deployments)",
      Seq("runtime", "rps", "avg", "p50", "p99"),
      rows.map { case (rt, rps, r) => Seq(rt, rps.toString, fmtMs(r.avgMs), fmtMs(r.p50Ms), fmtMs(r.p99Ms)) }))
    assert(rows.size == 12)
  }

  test("E2: lambda p99 stays in the ~250ms regime across the whole sweep (paper)") {
    rates.foreach { rps =>
      val r = at("lambda", rps)
      assert(r.p99Ms < 400, s"lambda p99 at $rps RPS: ${r.p99Ms}")
    }
    val first = at("lambda", 1200).p99Ms
    val last = at("lambda", 4300).p99Ms
    assert(last < 2 * first, "no knee for lambda in the measured range")
  }

  test("E2: statefun p99 exceeds 2s by 3000 RPS (paper)") {
    assert(at("statefun", 3000).p99Ms > 2000 || at("statefun", 4300).p99Ms > 2000,
      s"statefun p99: 3000→${at("statefun", 3000).p99Ms}, 4300→${at("statefun", 4300).p99Ms}")
    assert(at("statefun", 4300).p99Ms > 2000)
  }

  test("E2: statefun p50 exceeds 2s by 4300 RPS (paper)") {
    assert(at("statefun", 4300).p50Ms > 2000,
      s"statefun p50 at 4300 RPS: ${at("statefun", 4300).p50Ms}")
  }

  test("E2: flinkjvm latency increases more gradually than statefun (paper)") {
    val stfGrowth = at("statefun", 4300).p99Ms / at("statefun", 1200).p99Ms
    val fjGrowth  = at("flinkjvm", 4300).p99Ms / at("flinkjvm", 1200).p99Ms
    assert(fjGrowth < stfGrowth,
      s"flinkjvm growth $fjGrowth should be gentler than statefun $stfGrowth")
    assert(at("flinkjvm", 4300).p99Ms < at("statefun", 4300).p99Ms)
  }

  test("E2: below the knee, statefun beats flinkjvm (cheaper per-call exec)") {
    assert(at("statefun", 1200).avgMs < at("flinkjvm", 1200).avgMs)
  }

  test("E2: pyflink is saturated at 150 RPS — excluded from the sweep (paper)") {
    val traces = SimDataflowRuntime.hotelTraces(600, Workload.paperMix)
    val util = SimDataflowRuntime.simulate(RuntimeProfile.pyFlink, traces, rps = 150).execUtilization
    println(f"pyflink exec utilization at 150 RPS: ${util * 100}%.1f%% (timeouts; excluded)")
    assert(util > 0.95)
  }

  test("E2: latency monotonically increases with offered load per runtime") {
    for (rt <- List("lambda", "statefun", "flinkjvm")) {
      val p99s = rates.map(at(rt, _).p99Ms)
      assert(p99s.zip(p99s.tail).forall { case (a, b) => b >= a * 0.8 },
        s"$rt p99 not roughly monotone: $p99s")
    }
  }
}
