package repro.sim

import scala.collection.mutable
import scala.util.Random
import repro.core.{Compiler, OperatorExec, Value}
import repro.core.Events.EntityAddr
import repro.core.Dataflow.DataflowGraph
import repro.runtime.LocalRuntime
import repro.deathstar.Workload

/** Deployment simulator: replays *real* request hop traces (produced by
  * executing the compiled IR on the Local runtime) through a discrete-event
  * model of a target deployment.
  *
  * The per-endpoint hop counts are therefore the compiler's, not hand-coded
  * constants: a search request contributes the 17 events its split state
  * machines actually emit, a login exactly one. The [[RuntimeProfile]]
  * charges each hop its transport delay and queued service times; open-loop
  * Poisson arrivals at the offered rate produce the queueing behaviour
  * behind the paper's Figure 3 (fixed 10 RPS) and Figure 4 (rate sweep).
  */
object SimDataflowRuntime {

  /** One simulated request: endpoint label + the entity chain its events
    * visited (first element = client ingress target). */
  final case class Trace(endpoint: String, chain: Vector[EntityAddr])

  final case class EndpointStats(endpoint: String, n: Int,
                                 avgMs: Double, p50Ms: Double, p99Ms: Double)

  final case class SimResult(perEndpoint: Map[String, EndpointStats],
                             overall: EndpointStats,
                             execUtilization: Double)

  /** Execute `requests` on a fresh Local runtime over `seeds` and capture
    * each request's hop chain. */
  def traces(graph: DataflowGraph,
             seeds: Seq[(String, String, Map[String, Value])],
             requests: Seq[Workload.Request]): Seq[Trace] = {
    val rt = new LocalRuntime(graph)
    seeds.foreach { case (c, k, f) => rt.seed(c, k, f) }
    requests.zipWithIndex.map { case (Workload.Request(ep, (c, k, m, a)), i) =>
      val rid = f"t$i%09d"
      rt.run(List(OperatorExec.initialEvent(graph, rid, EntityAddr(c, k), m, a)))
      Trace(ep, rt.traces(rid))
    }
  }

  /** Convenience: hotel-app traces for a workload mix over 10 regions of 5
    * hotels and 100 users, drawn with `Workload.generate`'s default seed. */
  def hotelTraces(n: Int, mix: Workload.Mix): Seq[Trace] = {
    val (nRegions, hotelsPerRegion, nUsers) = (10, 5, 100)
    val graph = Compiler.compile(repro.deathstar.HotelApp.program)
    val seeds = repro.deathstar.HotelApp.seeds(nRegions, hotelsPerRegion, nUsers,
      capacity = 1000000) // capacity effectively unbounded: traces stay uniform
    traces(graph, seeds, Workload.generate(n, mix, nRegions, hotelsPerRegion, nUsers))
  }

  /** Simulate `traceSeq` arriving as an open-loop Poisson process at
    * `rps` requests/second under `profile`. */
  def simulate(profile: RuntimeProfile, traceSeq: Seq[Trace], rps: Double,
               seed: Long = 7L): SimResult = {
    require(traceSeq.nonEmpty && rps > 0)
    val des = new Des
    val rnd = new Random(seed)
    val route = new ServerPool(des, profile.routeWorkers)
    val exec = new ServerPool(des, profile.execWorkers)

    def jitter(): Double = math.exp(rnd.nextGaussian() * profile.jitterSigma)

    val latencies = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    var lastDone = 0.0

    // Pre-draw arrival times (Poisson: exponential inter-arrival gaps).
    var t = 0.0
    val arrivals = traceSeq.map { tr =>
      t += -math.log(1.0 - rnd.nextDouble()) * 1000.0 / rps
      (tr, t)
    }

    arrivals.foreach { case (trace, arrivalMs) =>
      des.schedule(arrivalMs) {
        val start = des.now
        def hop(i: Int): Unit =
          if (i >= trace.chain.length) {
            val lat = des.now - start
            latencies.getOrElseUpdate(trace.endpoint, mutable.ArrayBuffer.empty) += lat
            lastDone = math.max(lastDone, des.now)
          } else {
            val transport = (if (i == 0) profile.ingressMs else profile.hopLatencyMs) * jitter()
            des.schedule(transport) {
              route.submit(profile.routeMs * jitter()) {
                exec.submit(profile.execMs * jitter()) {
                  hop(i + 1)
                }
              }
            }
          }
        hop(0)
      }
    }

    des.run()

    def stats(ep: String, xs: Seq[Double]): EndpointStats = {
      val sorted = xs.sorted
      def pct(p: Double) = sorted(math.min(sorted.size - 1, (p * sorted.size).toInt))
      EndpointStats(ep, xs.size, xs.sum / xs.size, pct(0.50), pct(0.99))
    }

    val per = latencies.map { case (ep, xs) => ep -> stats(ep, xs.toSeq) }.toMap
    val all = latencies.values.flatten.toSeq
    SimResult(per, stats("all", all),
      execUtilization = exec.busyMs / (exec.servers * math.max(lastDone, 1e-9)))
  }
}
