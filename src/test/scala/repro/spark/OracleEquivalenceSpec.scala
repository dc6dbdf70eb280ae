package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.core.Events.EntityAddr
import repro.deathstar.{HotelApp, Workload}
import repro.examples.Shop
import EType._
import Value._

/** DuckDB oracle checks: the final entity state produced by the stateful
  * dataflow must equal an independent SQL computation over the raw event
  * log — catching wrong split execution or state handling, not just "it
  * ran". */
class OracleEquivalenceSpec extends SparkSpec {

  private lazy val hotelGraph = Compiler.compile(HotelApp.program)
  private lazy val shopGraph  = Compiler.compile(Shop.program)

  private def events(graph: Dataflow.DataflowGraph,
                     reqs: Seq[(String, String, String, List[Value])]): Seq[Events.Invoke] =
    reqs.zipWithIndex.map { case ((c, k, m, a), i) =>
      OperatorExec.initialEvent(graph, f"r$i%09d", EntityAddr(c, k), m, a)
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
    val res = new SparkBatchRuntime(spark, shopGraph).run(seeds, events(shopGraph, reqs))

    val stateDf = StateFrames.entityFrame(spark, res.state, "User", Seq("balance"))
    val logDf = StateFrames.logFrame(spark, Seq("key", "amount"),
      draws.map { case (k, amt) => Seq(str(s"u$k"), int(amt)) })
    Oracle.assertEquivalent(
      stateDf.selectExpr("key", "balance"),
      "SELECT key, SUM(CAST(amount AS BIGINT)) AS balance FROM log GROUP BY key",
      "log" -> logDf)
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
    val res = new SparkBatchRuntime(spark, hotelGraph).run(seeds, events(hotelGraph, reqs))

    val stateDf = StateFrames.entityFrame(spark, res.state, "Hotel", Seq("reserved"))
    val logDf = StateFrames.logFrame(spark, Seq("hotel", "capacity"),
      attempts.map(h => Seq(str(h), int(capacities(h)))))
    Oracle.assertEquivalent(
      stateDf.selectExpr("key AS hotel", "reserved"),
      "SELECT hotel, LEAST(CAST(capacity AS BIGINT), COUNT(*)) AS reserved " +
        "FROM log GROUP BY hotel, capacity",
      "log" -> logDf)
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
    val res = new SparkBatchRuntime(spark, hotelGraph).run(seeds, events(hotelGraph, reqs))

    val userDf = StateFrames.entityFrame(spark, res.state, "User",
      Seq.empty).selectExpr("key AS usr")
    // reservation_count is not a field; recompute from reservations list length
    val counts = res.state.collect { case (("User", u), fs) =>
      (u, fs("reservations").asList.size.toLong)
    }.toSeq
    val sparkCounts = StateFrames.logFrame(spark, Seq("usr", "cnt"),
      counts.map { case (u, c) => Seq(str(u), int(c)) })

    val logDf = StateFrames.logFrame(spark, Seq("rid", "usr", "hotel"),
      picks.zipWithIndex.map { case ((_, u, h), i) => Seq(str(f"r$i%09d"), str(u), str(h)) })
    Oracle.assertEquivalent(
      sparkCounts,
      s"""SELECT u.usr, COALESCE(s.cnt, 0) AS cnt
         |FROM (SELECT DISTINCT usr FROM log) u
         |LEFT JOIN (
         |  SELECT usr, COUNT(*) AS cnt FROM (
         |    SELECT usr, ROW_NUMBER() OVER (PARTITION BY hotel ORDER BY rid) AS rn
         |    FROM log
         |  ) WHERE rn <= $cap GROUP BY usr
         |) s ON u.usr = s.usr""".stripMargin,
      "log" -> logDf)
    assert(userDf.count() >= counts.size) // all touched users materialized
  }

  test("oracle: search — results equal SQL top-5-by-rate over seeded hotels") {
    val nRegions = 3; val hotelsPer = 8
    val seeds = HotelApp.seeds(nRegions, hotelsPer, 2)
    val reqs = (0 until nRegions).map(r => HotelApp.searchReq(s"reg-$r", 1, 3))
    val res = new SparkBatchRuntime(spark, hotelGraph).run(seeds, events(hotelGraph, reqs))

    // Explode each region's reply into (region, profile) rows.
    val replyRows = res.replies.toSeq.flatMap { case (rid, v) =>
      val region = s"reg-${rid.takeRight(1).toInt}"
      v.asList.map(p => Seq(str(region), p))
    }
    val sparkDf = StateFrames.logFrame(spark, Seq("region", "profile"), replyRows)

    val hotelRows = seeds.collect { case ("Hotel", id, fs) =>
      val region = "reg-" + id.split("-")(1)
      Seq(str(id), str(region), fs("rate"), fs("capacity"), int(0),
          str(s"profile-of-$id"))
    }
    val hotelsDf = StateFrames.logFrame(spark,
      Seq("id", "region", "rate", "capacity", "reserved", "profile"), hotelRows)
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT region, profile FROM (
        |  SELECT region, profile, CAST(capacity AS BIGINT) AS cap,
        |         CAST(reserved AS BIGINT) AS res,
        |         ROW_NUMBER() OVER (PARTITION BY region ORDER BY CAST(rate AS DOUBLE) DESC, id) AS rn
        |  FROM hotels
        |) WHERE rn <= 5 AND res < cap""".stripMargin,
      "hotels" -> hotelsDf)
  }
}
