package repro.spark

import repro.SparkSpec
import repro.core._
import repro.core.Events.EntityAddr
import repro.deathstar.{HotelApp, Workload}
import repro.examples.Shop
import repro.runtime.LocalRuntime
import EType._
import Value._

/** Spark batch dataflow runtime: hop-round execution over a state Dataset
  * must match the Local runtime event-for-event. */
class SparkBatchRuntimeSpec extends SparkSpec {

  private val N_REGIONS = 3
  private val HOTELS = 5
  private val USERS = 8

  private lazy val hotelGraph = Compiler.compile(HotelApp.program)
  private lazy val shopGraph  = Compiler.compile(Shop.program)

  private def initialEvents(graph: Dataflow.DataflowGraph,
                            reqs: Seq[(String, String, String, List[Value])]): Seq[Events.Invoke] =
    reqs.zipWithIndex.map { case ((c, k, m, a), i) =>
      OperatorExec.initialEvent(graph, f"r$i%09d", EntityAddr(c, k), m, a)
    }

  test("single inline invocation: seed, invoke, reply") {
    val rt = new SparkBatchRuntime(spark, shopGraph)
    val res = rt.run(
      Seq(("Item", "apple", Map[String, Value]("price" -> int(7), "stock" -> int(3)))),
      initialEvents(shopGraph, Seq(("Item", "apple", "get_price", Nil))))
    assert(res.replies == Map("r000000000" -> int(7)))
    assert(res.rounds == 1)
  }

  test("split method runs across rounds: buy_item takes 3 rounds") {
    val rt = new SparkBatchRuntime(spark, shopGraph)
    val res = rt.run(
      Seq(("Item", "apple", Map[String, Value]("price" -> int(3), "stock" -> int(10)))),
      initialEvents(shopGraph, Seq(("User", "alice", "buy_item",
        List(int(2), int(3), ref("Item", "apple"))))))
    assert(res.replies.values.toList == List(int(6)))
    assert(res.rounds == 3)
    assert(res.state(("Item", "apple"))("stock") == int(8))
  }

  test("requests advance breadth-first: many requests, same round count") {
    val rt = new SparkBatchRuntime(spark, shopGraph)
    val reqs = (0 until 20).map(i => ("User", s"u$i", "buy_item",
      List(int(1), int(3), ref("Item", "apple")): List[Value]))
    val res = rt.run(
      Seq(("Item", "apple", Map[String, Value]("price" -> int(3), "stock" -> int(100)))),
      initialEvents(shopGraph, reqs))
    assert(res.rounds == 3)
    assert(res.replies.size == 20)
    assert(res.state(("Item", "apple"))("stock") == int(80))
  }

  test("per-key contention in one batch is serialized deterministically") {
    val rt = new SparkBatchRuntime(spark, hotelGraph)
    val reqs = (0 until 25).map(i =>
      ("Hotel", "h-0-0", "reserve_room", List(int(1), int(2)): List[Value]))
    val res = rt.run(HotelApp.seeds(1, 1, 1), initialEvents(hotelGraph, reqs))
    assert(res.replies.values.count(_ == bool(true)) == 10) // capacity
    assert(res.state(("Hotel", "h-0-0"))("reserved") == int(10))
  }

  test("hotel endpoints: replies match the Local runtime") {
    val rt = new SparkBatchRuntime(spark, hotelGraph)
    val local = new LocalRuntime(hotelGraph)
    val seeds = HotelApp.seeds(N_REGIONS, HOTELS, USERS)
    seeds.foreach { case (c, k, f) => local.seed(c, k, f) }
    val reqs = Seq(
      HotelApp.loginReq("u-2"),
      HotelApp.searchReq("reg-1", 1, 3),
      HotelApp.recommendReq("reg-0"),
      HotelApp.reserveReq("reg-2", "u-3", "h-2-4"),
    )
    val res = rt.run(seeds, initialEvents(hotelGraph, reqs))
    val expected = reqs.zipWithIndex.map { case ((c, k, m, a), i) =>
      f"r$i%09d" -> local.invoke(c, k, m, a)
    }.toMap
    assert(res.replies == expected)
  }

  test("mixed workload: full state equivalence with the Local runtime") {
    val rt = new SparkBatchRuntime(spark, hotelGraph)
    val local = new LocalRuntime(hotelGraph)
    val seeds = HotelApp.seeds(N_REGIONS, HOTELS, USERS)
    seeds.foreach { case (c, k, f) => local.seed(c, k, f) }
    val reqs = Workload.generate(60, Workload.paperMix, N_REGIONS, HOTELS, USERS).map(_.call)
    // Local runtime: sequential (request i completes before i+1 starts).
    // Batch runtime: waves — but per key everything is rid-ordered, and this
    // workload's cross-entity writes commute per key, so states agree.
    val expected = reqs.zipWithIndex.map { case ((c, k, m, a), i) =>
      f"r$i%09d" -> local.invoke(c, k, m, a)
    }.toMap
    val res = rt.run(seeds, initialEvents(hotelGraph, reqs))
    assert(res.replies.size == expected.size)
    // Reservation counts and hotel occupancy must agree exactly.
    for ((c, k) <- res.state.keys if c == "Hotel")
      assert(res.state((c, k))("reserved") == local.snapshot(c, k)("reserved"), s"$c:$k")
  }

  test("contended mixed workload: one run equals one Local run in replies, hops and state") {
    // Both runtimes drive the same wave loop, and within a wave each folds a
    // key's events in request-id order, so even contended writes agree.
    val rt = new SparkBatchRuntime(spark, hotelGraph)
    val local = new LocalRuntime(hotelGraph)
    val seeds = HotelApp.seeds(2, 2, 3, capacity = 3)
    seeds.foreach { case (c, k, f) => local.seed(c, k, f) }
    val mix = Workload.Mix(search = 0.3, recommend = 0.2, login = 0.1, reserve = 0.4)
    val initial = initialEvents(hotelGraph, Workload.generate(40, mix, 2, 2, 3, seed = 5).map(_.call))
    val expected = local.run(initial.toList)
    val res = rt.run(seeds, initial)
    assert(res.replies == expected)
    assert(res.replies.values.count(_ == bool(false)) > 0) // some reserves found their hotel full
    assert(res.hops == local.hops)
    for ((c, k) <- res.state.keys)
      assert(res.state((c, k)) == local.snapshot(c, k), s"$c:$k")
  }

  test("deterministic: identical run twice") {
    val rt1 = new SparkBatchRuntime(spark, hotelGraph)
    val rt2 = new SparkBatchRuntime(spark, hotelGraph)
    val seeds = HotelApp.seeds(2, HOTELS, USERS)
    val reqs = Workload.generate(40, Workload.paperMix, 2, HOTELS, USERS).map(_.call)
    val r1 = rt1.run(seeds, initialEvents(hotelGraph, reqs))
    val r2 = rt2.run(seeds, initialEvents(hotelGraph, reqs))
    assert(r1.replies == r2.replies)
    assert(r1.state == r2.state)
    assert(r1.rounds == r2.rounds)
  }

  test("hops accounting matches the Local runtime") {
    val rt = new SparkBatchRuntime(spark, hotelGraph)
    val local = new LocalRuntime(hotelGraph)
    val seeds = HotelApp.seeds(1, HOTELS, 2)
    seeds.foreach { case (c, k, f) => local.seed(c, k, f) }
    local.invoke("Search", "reg-0", "search", List(int(1), int(3)))
    val res = rt.run(seeds, initialEvents(hotelGraph, Seq(HotelApp.searchReq("reg-0", 1, 3))))
    assert(res.hops == local.hops)
  }

  test("untouched entities keep their seeded state through rounds") {
    val rt = new SparkBatchRuntime(spark, shopGraph)
    val res = rt.run(
      Seq(
        ("Item", "apple", Map[String, Value]("price" -> int(3), "stock" -> int(10))),
        ("Item", "idle", Map[String, Value]("price" -> int(9), "stock" -> int(1))),
      ),
      initialEvents(shopGraph, Seq(("User", "u", "checkout",
        List(ref("Item", "apple"), int(1))))))
    assert(res.state(("Item", "idle"))("price") == int(9))
  }

  test("seeds without invocations: seeded state, no rounds, no hops") {
    val rt = new SparkBatchRuntime(spark, shopGraph)
    val res = rt.run(
      Seq(("Item", "apple", Map[String, Value]("price" -> int(3), "stock" -> int(10)))), Nil)
    assert(res.replies.isEmpty)
    assert(res.state(("Item", "apple"))("stock") == int(10))
    assert(res.rounds == 0)
    assert(res.hops == 0)
  }
}
