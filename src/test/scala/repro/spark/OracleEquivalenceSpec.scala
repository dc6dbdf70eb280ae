package repro.spark

import repro.{Oracle, SparkSpec}
import repro.Oracle.Table
import repro.core._
import repro.core.Dataflow.DataflowGraph
import repro.core.Events.EntityAddr
import repro.deathstar.{HotelApp, Workload}
import repro.examples.Shop
import repro.faas.FaasRuntime
import repro.runtime.LocalRuntime
import Value._

/** DuckDB oracle checks: the replies and final entity state produced by the
  * stateful dataflow must equal an independent SQL computation over the
  * raw event log — catching wrong split execution or state handling, not
  * just "it ran".
  *
  * Each check runs on `SparkBatchRuntime`, `LocalRuntime` and
  * `FaasRuntime`. `SparkStreamRuntime` is left out: it returns entity state
  * only through getter calls, and at the tests' 64 shuffle partitions each
  * of search's 17 waves is a slow micro-batch.
  */
class OracleEquivalenceSpec extends SparkSpec {
  import OracleEquivalenceSpec._

  private lazy val hotelGraph = Compiler.compile(HotelApp.program)
  private lazy val shopGraph  = Compiler.compile(Shop.program)

  private def rid(i: Int): String = f"r$i%09d"

  /** Seed, send `reqs` one at a time in request-id order, then read each
    * seeded entity's state with `snapshot`. */
  private def oneAtATime(seeds: Seeds, reqs: Seq[Req])(
      seed: (String, String, Map[String, Value]) => Unit,
      send: (Req, String) => Value,
      snapshot: (String, String) => Map[String, Value]): Outcome = {
    seeds.foreach { case (c, k, f) => seed(c, k, f) }
    val replies = reqs.zipWithIndex.map { case (r, i) => rid(i) -> send(r, rid(i)) }.toMap
    Outcome(replies, seeds.map { case (c, k, _) => (c, k) -> snapshot(c, k) }.toMap)
  }

  private val runtimes: Seq[(String, (DataflowGraph, Seeds, Seq[Req]) => Outcome)] = Seq(
    "SparkBatchRuntime" -> { (g, seeds, reqs) =>
      val evs = reqs.zipWithIndex.map { case ((c, k, m, a), i) =>
        OperatorExec.initialEvent(g, rid(i), EntityAddr(c, k), m, a)
      }
      val res = new SparkBatchRuntime(spark, g).run(seeds, evs)
      Outcome(res.replies, res.state)
    },
    "LocalRuntime" -> { (g, seeds, reqs) =>
      val rt = new LocalRuntime(g)
      oneAtATime(seeds, reqs)(rt.seed, { case ((c, k, m, a), id) =>
        rt.run(List(OperatorExec.initialEvent(g, id, EntityAddr(c, k), m, a)))(id)
      }, rt.snapshot)
    },
    "FaasRuntime" -> { (g, seeds, reqs) =>
      val rt = new FaasRuntime(g)
      oneAtATime(seeds, reqs)(rt.seed, { case ((c, k, m, a), id) =>
        rt.invoke(c, k, m, a, requestId = id)
      }, rt.snapshot)
    },
  )

  /** Run `reqs` over `seeds` on every runtime and `check` each outcome; a
    * failure names the runtime. */
  private def onEachRuntime(graph: DataflowGraph, seeds: Seeds, reqs: Seq[Req])(
      check: Outcome => Unit): Unit =
    for ((name, run) <- runtimes) withClue(s"[$name] ") {
      try check(run(graph, seeds, reqs))
      catch { case e: IllegalArgumentException => fail(e.getMessage, e) }
    }

  test("oracle: deposits — final balances equal SQL aggregation over the event log") {
    // Zipf-skewed keys, as the hotel workload draws them, and amounts in [1, 100].
    val rnd = new scala.util.Random(7)
    val draws = Seq.fill(400)((Workload.zipf(rnd, 25), 1 + rnd.nextInt(100)))
    val reqs = draws.map { case (k, amt) =>
      ("User", s"u$k", "deposit", List(int(amt)): List[Value])
    }
    val seeds = draws.map(_._1).distinct.map(k =>
      ("User", s"u$k", Map[String, Value]("balance" -> int(0))))
    val log = Table(Seq("key", "amount"),
      draws.map { case (k, amt) => Seq(str(s"u$k"), int(amt)) })
    onEachRuntime(shopGraph, seeds, reqs) { res =>
      Oracle.assertEquivalent(
        Table(Seq("key", "balance"),
          res.state.collect { case (("User", k), fs) => Seq(str(k), fs("balance")) }.toSeq),
        "SELECT key, SUM(CAST(amount AS BIGINT)) AS balance FROM log GROUP BY key",
        "log" -> log)
    }
  }

  test("oracle: contended reserves — occupancy equals LEAST(capacity, attempts)") {
    val nHotels = 6
    val rnd = new scala.util.Random(11)
    val capacities = (0 until nHotels).map(i => s"h-0-$i" -> (3 + rnd.nextInt(5))).toMap
    val seeds = capacities.toSeq.map { case (h, cap) =>
      ("Hotel", h, Map[String, Value]("capacity" -> int(cap)))
    }
    val attempts = (0 until 80).map(_ => s"h-0-${rnd.nextInt(nHotels)}")
    val reqs = attempts.map(h => ("Hotel", h, "reserve_room", List(int(1), int(2)): List[Value]))
    val log = Table(Seq("hotel", "capacity"),
      attempts.map(h => Seq(str(h), int(capacities(h)))))
    onEachRuntime(hotelGraph, seeds, reqs) { res =>
      Oracle.assertEquivalent(
        Table(Seq("hotel", "reserved"),
          res.state.collect { case (("Hotel", h), fs) => Seq(str(h), fs("reserved")) }.toSeq),
        "SELECT hotel, LEAST(CAST(capacity AS BIGINT), COUNT(*)) AS reserved " +
          "FROM log GROUP BY hotel, capacity",
        "log" -> log)
    }
  }

  test("oracle: reserve endpoint — per-user bookings equal windowed SQL over the log") {
    // Full cross-entity chain: Reservation -> Hotel -> User. A reservation
    // succeeds iff it is among the first `capacity` attempts on its hotel in
    // request order — expressible as ROW_NUMBER() over the event log.
    val nRegions = 2; val hotelsPer = 3; val nUsers = 6; val cap = 2
    val seeds = HotelApp.seeds(nRegions, hotelsPer, nUsers, capacity = cap)
    val rnd = new scala.util.Random(23)
    val picks = (0 until 60).map { _ =>
      val r = rnd.nextInt(nRegions)
      (s"reg-$r", s"u-${rnd.nextInt(nUsers)}", s"h-$r-${rnd.nextInt(hotelsPer)}")
    }
    val reqs = picks.map { case (reg, u, h) => HotelApp.reserveReq(reg, u, h) }
    val log = Table(Seq("rid", "usr", "hotel"),
      picks.zipWithIndex.map { case ((_, u, h), i) => Seq(str(rid(i)), str(u), str(h)) })
    onEachRuntime(hotelGraph, seeds, reqs) { res =>
      // reservation_count is not a field; recompute from reservations list length
      val counts = res.state.collect { case (("User", u), fs) =>
        Seq(str(u), int(fs("reservations").asList.size))
      }.toSeq
      Oracle.assertEquivalent(
        Table(Seq("usr", "cnt"), counts),
        s"""SELECT u.usr, COALESCE(s.cnt, 0) AS cnt
           |FROM (SELECT DISTINCT usr FROM log) u
           |LEFT JOIN (
           |  SELECT usr, COUNT(*) AS cnt FROM (
           |    SELECT usr, ROW_NUMBER() OVER (PARTITION BY hotel ORDER BY rid) AS rn
           |    FROM log
           |  ) WHERE rn <= $cap GROUP BY usr
           |) s ON u.usr = s.usr""".stripMargin,
        "log" -> log)
      val stateless = picks.map(_._2).distinct.filterNot(u => res.state.contains(("User", u)))
      assert(stateless.isEmpty, "users in the request log without state")
    }
  }

  test("oracle: search — results equal SQL top-5-by-rate over seeded hotels") {
    val nRegions = 3; val hotelsPer = 8
    val seeds = HotelApp.seeds(nRegions, hotelsPer, 2)
    val reqs = (0 until nRegions).map(r => HotelApp.searchReq(s"reg-$r", 1, 3))
    val hotelRows = seeds.collect { case ("Hotel", id, fs) =>
      val region = "reg-" + id.split("-")(1)
      Seq(str(id), str(region), fs("rate"), fs("capacity"), int(0),
          str(s"profile-of-$id"))
    }
    val hotels = Table(Seq("id", "region", "rate", "capacity", "reserved", "profile"), hotelRows)
    onEachRuntime(hotelGraph, seeds, reqs) { res =>
      // Explode each region's reply into (region, profile) rows; request i
      // searched region i.
      val replyRows = res.replies.toSeq.flatMap { case (rid, v) =>
        val region = s"reg-${rid.takeRight(1).toInt}"
        v.asList.map(p => Seq(str(region), p))
      }
      Oracle.assertEquivalent(
        Table(Seq("region", "profile"), replyRows),
        """SELECT region, profile FROM (
          |  SELECT region, profile, CAST(capacity AS BIGINT) AS cap,
          |         CAST(reserved AS BIGINT) AS res,
          |         ROW_NUMBER() OVER (PARTITION BY region ORDER BY CAST(rate AS DOUBLE) DESC, id) AS rn
          |  FROM hotels
          |) WHERE rn <= 5 AND res < cap""".stripMargin,
        "hotels" -> hotels)
    }
  }
}

object OracleEquivalenceSpec {
  private type Seeds = Seq[(String, String, Map[String, Value])]
  private type Req   = (String, String, String, List[Value])

  /** What a check reads back: replies by request id, and entity state by
    * (class, key). */
  private final case class Outcome(replies: Map[String, Value],
                                   state: Map[(String, String), Map[String, Value]])
}
