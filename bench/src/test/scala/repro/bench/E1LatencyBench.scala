package repro.bench

import repro.SparkSpec
import repro.core.Compiler
import repro.deathstar.{HotelApp, Workload}
import repro.sim.{RuntimeProfile, SimDataflowRuntime}
import repro.sim.SimDataflowRuntime.EndpointStats
import repro.spark.SparkStreamRuntime
import TableFmt._

/** Table E1 (paper Figure 3): average latency per DeathStar endpoint at
  * 10 RPS across runtimes — simulated deployments on real compiled hop
  * traces, plus the real Spark Structured Streaming runtime measured.
  *
  * Paper's qualitative results to reproduce: AWS Lambda fastest on every
  * endpoint; PyFlink slowest by a wide margin; search is the most expensive
  * endpoint everywhere (9 entity calls); dataflow runtimes pay a Kafka
  * round trip per entity call.
  */
class E1LatencyBench extends SparkSpec {

  private val endpoints = List("login", "search", "recommend", "reserve")

  /** (runtime, stats) per profile and endpoint: 500 requests of one
    * endpoint, simulated at 10 RPS. Each endpoint's hop traces are computed
    * once and replayed under every profile. */
  private lazy val rows: List[(String, EndpointStats)] = {
    val traces = endpoints.map(ep => ep -> SimDataflowRuntime.hotelTraces(500, Workload.only(ep))).toMap
    for {
      p <- RuntimeProfile.all
      ep <- endpoints
    } yield p.name -> SimDataflowRuntime.simulate(p, traces(ep), rps = 10).perEndpoint(ep)
  }
  private def avg(rt: String, ep: String): Double =
    rows.collectFirst { case (`rt`, s) if s.endpoint == ep => s.avgMs }.get

  test("E1: print the Fig-3 table (simulated deployments)") {
    val table = TableFmt.render(
      "E1 — avg latency per endpoint at 10 RPS (ms, simulated deployments)",
      "runtime" +: endpoints,
      RuntimeProfile.all.map(_.name).sorted.map(rt => rt +: endpoints.map(ep => fmtMs(avg(rt, ep)))))
    println(table)
    assert(rows.size == 16)
  }

  test("E1: lambda is the fastest runtime on every endpoint (paper)") {
    endpoints.foreach { ep =>
      List("statefun", "flinkjvm", "pyflink").foreach { other =>
        assert(avg("lambda", ep) < avg(other, ep), s"$ep: lambda vs $other")
      }
    }
  }

  test("E1: pyflink is the slowest runtime on every endpoint (paper)") {
    endpoints.foreach { ep =>
      List("lambda", "statefun", "flinkjvm").foreach { other =>
        assert(avg("pyflink", ep) > avg(other, ep), s"$ep: pyflink vs $other")
      }
    }
  }

  test("E1: search is the most expensive endpoint on every runtime (paper)") {
    List("lambda", "statefun", "flinkjvm", "pyflink").foreach { rt =>
      List("login", "recommend", "reserve").foreach { ep =>
        assert(avg(rt, "search") > avg(rt, ep), s"$rt: search vs $ep")
      }
    }
  }

  test("E1: dataflow runtimes pay ~20ms Kafka round trip per hop") {
    // search = 17 hops; statefun must cost at least 16 re-entries.
    assert(avg("statefun", "search") > 16 * 20.0)
    // login = 1 hop: no re-entry, so statefun login is well under one
    // search hop budget.
    assert(avg("statefun", "login") < 60.0)
  }

  test("E1: the real Spark Structured Streaming runtime, measured") {
    // Wall-clock per endpoint request: one warm-up request, then 3 timed.
    val rt = new SparkStreamRuntime(spark, Compiler.compile(HotelApp.program))
    val measured = try {
      rt.seed(HotelApp.seeds(nRegions = 4, hotelsPerRegion = 5, nUsers = 10, capacity = 1000))
      endpoints.map { ep =>
        val calls = Workload.generate(4, Workload.only(ep), 4, 5, 10, seed = 9).map(_.call)
        val (c0, k0, m0, a0) = calls.head
        rt.invoke(c0, k0, m0, a0)
        val times = calls.tail.map { case (c, k, m, a) =>
          val t0 = System.nanoTime()
          rt.invoke(c, k, m, a)
          (System.nanoTime() - t0) / 1e6
        }
        ep -> times.sum / times.size
      }
    } finally rt.stop()
    println(TableFmt.render(
      "E1b — Spark Structured Streaming runtime (measured, ms/request; " +
        "each remote hop = one micro-batch)",
      Seq("endpoint", "avg ms"),
      measured.map { case (ep, ms) => Seq(ep, fmtMs(ms)) }))
    val m = measured.toMap
    // Same shape as every dataflow runtime: search (17 hop-batches) dwarfs
    // login (1 hop-batch).
    assert(m("search") > m("login"))
    assert(m("search") > m("recommend"))
    assert(measured.forall(_._2 > 0))
  }
}
