package repro.faas

import repro.SparkSpec
import repro.core._
import repro.deathstar.HotelApp
import repro.examples.Shop
import repro.runtime.LocalRuntime
import EType._
import Value._

/** FaaS runtime (§3): full split-function chains per invocation over an
  * external KV store — and the consistency anomaly the paper's no-locking
  * configuration implies. */
class FaasRuntimeSpec extends SparkSpec {

  private lazy val shopGraph  = Compiler.compile(Shop.program)
  private lazy val hotelGraph = Compiler.compile(HotelApp.program)

  test("single-client semantics match the Local runtime") {
    val fr = new FaasRuntime(shopGraph)
    val lr = new LocalRuntime(shopGraph)
    for (rt <- List[(String, String, Map[String, Value]) => Unit](fr.seed, lr.seed)) {
      rt("Item", "apple", Map("price" -> int(3), "stock" -> int(10)))
      rt("User", "alice", Map("balance" -> int(100)))
    }
    for ((c, k, m, a) <- Seq[(String, String, String, List[Value])](
      ("User", "alice", "checkout", List(ref("Item", "apple"), int(5))),
      ("User", "alice", "get_balance", Nil),
      ("Item", "apple", "get_price", Nil),
      ("User", "alice", "add_to_basket", List(list(TRef("Item"), ref("Item", "apple")))),
    )) assert(fr.invoke(c, k, m, a) == lr.invoke(c, k, m, a), s"$c.$m")
    assert(fr.snapshot("Item", "apple") == lr.snapshot("Item", "apple"))
    assert(fr.snapshot("User", "alice") == lr.snapshot("User", "alice"))
  }

  test("one invocation per entity hop (Lambda invocation accounting)") {
    val fr = new FaasRuntime(shopGraph)
    fr.seed("Item", "a", Map("price" -> int(2), "stock" -> int(9)))
    fr.invoke("User", "u", "buy_item", List(int(1), int(2), ref("Item", "a")))
    // User (start) -> Item (remove_stock) -> User (resume): 3 invocations
    assert(fr.invocations.get() == 3)
  }

  test("hotel endpoints work on the FaaS runtime") {
    val fr = new FaasRuntime(hotelGraph)
    HotelApp.seeds(1, 5, 2).foreach { case (c, k, f) => fr.seed(c, k, f) }
    assert(fr.invoke("User", "u-0", "login", List(str("pw-0"))) == bool(true))
    assert(fr.invoke("Search", "reg-0", "search", List(int(1), int(3))).asList.size == 5)
    assert(fr.invoke("Reservation", "reg-0", "reserve",
      List(ref("User", "u-0"), ref("Hotel", "h-0-1"), int(1), int(2))) == bool(true))
    assert(fr.snapshot("Hotel", "h-0-1")("reserved") == int(1))
  }

  test("WITHOUT locking, concurrent read-modify-write loses updates (the paper's trade-off)") {
    // The paper: "locking was found to deteriorate performance significantly
    // and therefore it was disabled" — the price is lost updates, which the
    // dataflow runtimes cannot exhibit (per-key serial processing).
    val kv = new SimKV(latencyNanos = 200_000, withLocks = false)
    val fr = new FaasRuntime(hotelGraph, kv)
    fr.seed("Hotel", "big", Map("capacity" -> int(1000000)))
    val n = 400
    val reqs = Seq.fill(n)(("Hotel", "big", "reserve_room", List(int(1), int(2)): List[Value]))
    val results = fr.invokeConcurrently(reqs, parallelism = 8)
    assert(results.forall(_ == bool(true))) // every attempt "succeeded"...
    val reserved = fr.snapshot("Hotel", "big")("reserved").asInt
    assert(reserved < n, s"expected lost updates under contention, got $reserved/$n")
  }

  test("WITH locking, concurrent reserves are exact") {
    val kv = new SimKV(latencyNanos = 10_000, withLocks = true)
    val fr = new FaasRuntime(hotelGraph, kv)
    fr.seed("Hotel", "big", Map("capacity" -> int(1000000)))
    val n = 200
    val reqs = Seq.fill(n)(("Hotel", "big", "reserve_room", List(int(1), int(2)): List[Value]))
    fr.invokeConcurrently(reqs, parallelism = 8)
    assert(fr.snapshot("Hotel", "big")("reserved") == int(n))
  }

  test("store telemetry: one get per hop, and a put only when it may write") {
    val kv = new SimKV()
    val fr = new FaasRuntime(shopGraph, kv)
    fr.seed("Item", "a", Map("price" -> int(2), "stock" -> int(5)))
    def ops(body: => Unit): (Long, Long) = {
      val (g0, p0) = (kv.gets.get(), kv.puts.get())
      body
      (kv.gets.get() - g0, kv.puts.get() - p0)
    }
    assert(ops(fr.invoke("Item", "a", "get_price", Nil)) == ((1L, 0L)), "read-only call")
    assert(ops(fr.invoke("Item", "a", "remove_stock", List(int(1)))) == ((1L, 1L)), "writing call")
    // A read-only call on an entity never stored still stores it.
    assert(ops(fr.invoke("Item", "b", "get_price", Nil)) == ((1L, 1L)), "read-only call, fresh entity")
    assert(kv.snapshot.keySet == Set("Item|a", "Item|b"))
  }

  test("read-only hops never clobber a writer") {
    // Without locks, a read-only hop that wrote back the state it read would
    // overwrite a reserve made in between.
    val kv = new SimKV(latencyNanos = 50_000, withLocks = false)
    val fr = new FaasRuntime(hotelGraph, kv)
    fr.seed("Hotel", "h", Map("capacity" -> int(1000000)))
    val n = 200
    val stop = new java.util.concurrent.atomic.AtomicBoolean(false)
    val reads = new java.util.concurrent.atomic.AtomicLong(0)
    val readers = (1 to 4).map { _ =>
      new Thread(() => while (!stop.get()) {
        fr.invoke("Hotel", "h", "check_availability", List(int(1), int(2)))
        reads.incrementAndGet()
      })
    }
    readers.foreach(_.start())
    try (1 to n).foreach { _ =>
      assert(fr.invoke("Hotel", "h", "reserve_room", List(int(1), int(2))) == bool(true))
    } finally {
      stop.set(true)
      readers.foreach(_.join())
    }
    assert(reads.get() > 0)
    assert(fr.snapshot("Hotel", "h")("reserved") == int(n))
  }

  test("uninitialized entity materializes from defaults") {
    val fr = new FaasRuntime(shopGraph)
    assert(fr.invoke("User", "fresh", "get_balance", Nil) == int(1000))
  }
}
