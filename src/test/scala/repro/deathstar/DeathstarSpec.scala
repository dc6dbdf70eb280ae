package repro.deathstar

import repro.SparkSpec
import repro.core._
import repro.runtime.LocalRuntime
import Value._

/** The DeathStar hotel service: endpoint semantics, the paper's entity-call
  * counts, and split-vs-direct equivalence on a mixed workload. */
class DeathstarSpec extends SparkSpec {

  private val N_REGIONS = 4
  private val HOTELS = 5
  private val USERS = 10

  private def freshLocal(): LocalRuntime = {
    val rt = new LocalRuntime(Compiler.compile(HotelApp.program))
    HotelApp.seeds(N_REGIONS, HOTELS, USERS).foreach { case (c, k, f) => rt.seed(c, k, f) }
    rt
  }

  private def freshInterp(): Interpreter = {
    val it = new Interpreter(HotelApp.program)
    HotelApp.seeds(N_REGIONS, HOTELS, USERS).foreach { case (c, k, f) => it.seed(c, k, f) }
    it
  }

  test("program compiles; search/recommend/reserve are split, getters inline") {
    val g = Compiler.compile(HotelApp.program)
    import StateMachine._
    assert(g.operator("Search").method("search").isInstanceOf[SplitMethod])
    assert(g.operator("Recommendation").method("recommend").isInstanceOf[SplitMethod])
    assert(g.operator("Reservation").method("reserve").isInstanceOf[SplitMethod])
    assert(g.operator("Hotel").method("check_availability").isInstanceOf[InlineMethod])
    assert(g.operator("Geo").method("nearby").isInstanceOf[InlineMethod])
    assert(g.operator("User").method("login").isInstanceOf[InlineMethod])
  }

  test("login succeeds with the right password, fails otherwise") {
    val rt = freshLocal()
    assert(rt.invoke("User", "u-3", "login", List(str("pw-3"))) == bool(true))
    assert(rt.invoke("User", "u-3", "login", List(str("wrong"))) == bool(false))
  }

  test("login is exactly 1 stateful entity call (paper §4)") {
    val it = freshInterp()
    it.invoke("User", "u-1", "login", List(str("pw-1")))
    assert(it.calls == 1)
  }

  test("search returns the 5 top-rated hotels' profiles when all available") {
    val rt = freshLocal()
    val out = rt.invoke("Search", "reg-0", "search", List(int(1), int(3)))
    assert(out.asList.size == 5)
    out.asList.foreach(p => assert(p.asStr.startsWith("profile-of-h-0-")))
  }

  test("search is exactly 9 stateful entity calls: 3 search + 5 availability + 1 profiles") {
    val it = freshInterp()
    it.invoke("Search", "reg-0", "search", List(int(1), int(3)))
    assert(it.calls == 9, "paper: 'the search endpoint consists of nine stateful entity calls'")
  }

  test("search event-hop count is 2*remoteCalls + 1") {
    val rt = freshLocal()
    rt.invoke("Search", "reg-0", "search", List(int(1), int(3)))
    assert(rt.hops == 17) // 1 ingress + 8 remote calls * (invoke + resume)
  }

  test("full hotels drop out of search results") {
    val rt = freshLocal()
    // fill hotel h-0-0 (capacity 10)
    (0 until 10).foreach { _ =>
      rt.invoke("Hotel", "h-0-0", "reserve_room", List(int(1), int(2)))
    }
    val out = rt.invoke("Search", "reg-0", "search", List(int(1), int(3)))
    assert(out.asList.size == 4)
  }

  test("recommend returns the k top-rated profiles in 3 entity calls") {
    val it = freshInterp()
    val out = it.invoke("Recommendation", "reg-1", "recommend", List(int(3)))
    assert(out.asList.size == 3)
    assert(it.calls == 3)
  }

  test("recommendation ranking follows the rate index (best first)") {
    val rt = freshLocal()
    val out = rt.invoke("Recommendation", "reg-0", "recommend", List(int(2)))
    // seeded rates descend with hotel index: h-0-0 is best
    assert(out.asList.head.asStr == "profile-of-h-0-0")
  }

  test("reserve books a room and registers it on the user (3 calls)") {
    val it = freshInterp()
    val rt = freshLocal()
    assert(rt.invoke("Reservation", "reg-0", "reserve",
      List(ref("User", "u-1"), ref("Hotel", "h-0-2"), int(1), int(3))) == bool(true))
    assert(rt.snapshot("Hotel", "h-0-2")("reserved") == int(1))
    assert(rt.snapshot("User", "u-1")("reservations").asList ==
      Vector(ref("Hotel", "h-0-2")))
    it.invoke("Reservation", "reg-0", "reserve",
      List(ref("User", "u-1"), ref("Hotel", "h-0-2"), int(1), int(3)))
    assert(it.calls == 3)
  }

  test("reserve on a full hotel fails in 2 calls and books nothing") {
    val it = freshInterp()
    it.seed("Hotel", "h-0-4", Map("reserved" -> int(10)))
    assert(it.invoke("Reservation", "reg-0", "reserve",
      List(ref("User", "u-2"), ref("Hotel", "h-0-4"), int(1), int(3))) == bool(false))
    assert(it.calls == 2)
    assert(it.snapshot("User", "u-2")("reservations").asList.isEmpty)
  }

  test("capacity is never exceeded under sequential contention") {
    val rt = freshLocal()
    val results = (0 until 25).map { i =>
      rt.invoke("Reservation", "reg-2", "reserve",
        List(ref("User", s"u-${i % USERS}"), ref("Hotel", "h-2-1"), int(1), int(2)))
    }
    assert(results.count(_ == bool(true)) == 10) // capacity
    assert(rt.snapshot("Hotel", "h-2-1")("reserved") == int(10))
  }

  test("mixed workload: split dataflow execution ≡ direct interpreter") {
    val it = freshInterp()
    val rt = freshLocal()
    val reqs = Workload.generate(200, Workload.paperMix, N_REGIONS, HOTELS, USERS)
    reqs.zipWithIndex.foreach { case (Workload.Request(ep, (c, k, m, a)), i) =>
      val expected = it.invoke(c, k, m, a)
      val got = rt.invoke(c, k, m, a)
      assert(got == expected, s"request $i ($ep) diverged")
    }
    // full-state equivalence across every entity either side materialized
    for (clazz <- HotelApp.program.classes.map(_.name)) {
      val a = it.entitiesOf(clazz)
      for ((key, st) <- a)
        assert(rt.snapshot(clazz, key) == st, s"state of $clazz:$key")
    }
  }

  test("workload generator is deterministic and respects the paper mix") {
    val a = Workload.generate(5000, Workload.paperMix, N_REGIONS, HOTELS, USERS)
    val b = Workload.generate(5000, Workload.paperMix, N_REGIONS, HOTELS, USERS)
    assert(a == b)
    val byEp = a.groupBy(_.endpoint).view.mapValues(_.size).toMap
    assert(math.abs(byEp("search").toDouble / 5000 - 0.60) < 0.03)
    assert(math.abs(byEp("recommend").toDouble / 5000 - 0.39) < 0.03)
    assert(byEp.getOrElse("login", 0) + byEp.getOrElse("reserve", 0) < 150)
  }

  test("zipf skew: most-popular region dominates") {
    val reqs = Workload.generate(2000, Workload.only("search"), 8, HOTELS, USERS)
    val byRegion = reqs.groupBy(_.call._2).view.mapValues(_.size).toMap
    assert(byRegion("reg-0") > byRegion.getOrElse("reg-7", 0))
  }
}
