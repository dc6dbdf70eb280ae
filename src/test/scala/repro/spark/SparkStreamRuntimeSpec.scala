package repro.spark

import repro.SparkSpec
import repro.core._
import repro.core.Events.EntityAddr
import repro.deathstar.HotelApp
import repro.examples.Shop
import repro.runtime.LocalRuntime
import Value._

/** The Structured Streaming runtime (the repro hint's prescribed mapping):
  * stateful entities on `flatMapGroupsWithState`, hop events re-entering
  * through the driver loop. Kept small — every remote hop is a micro-batch,
  * exactly like the paper's Kafka round trips. */
class SparkStreamRuntimeSpec extends SparkSpec {

  private lazy val hotelGraph = Compiler.compile(HotelApp.program)
  private lazy val shopGraph  = Compiler.compile(Shop.program)

  private def withRuntime[T](graph: Dataflow.DataflowGraph)(body: SparkStreamRuntime => T): T = {
    val rt = new SparkStreamRuntime(spark, graph)
    try body(rt) finally rt.stop()
  }

  test("inline method over streaming state: seed then invoke") {
    withRuntime(shopGraph) { rt =>
      rt.seed(Seq(("Item", "apple", Map[String, Value]("price" -> int(7)))))
      assert(rt.invoke("Item", "apple", "get_price", Nil) == int(7))
    }
  }

  test("state persists in GroupState across micro-batches") {
    withRuntime(shopGraph) { rt =>
      rt.seed(Seq(("Item", "apple", Map[String, Value]("price" -> int(3), "stock" -> int(10)))))
      assert(rt.invoke("Item", "apple", "remove_stock", List(int(4))) == bool(true))
      assert(rt.invoke("Item", "apple", "remove_stock", List(int(4))) == bool(true))
      assert(rt.invoke("Item", "apple", "remove_stock", List(int(4))) == bool(false))
    }
  }

  test("split method: checkout crosses operators through the feedback loop") {
    withRuntime(shopGraph) { rt =>
      rt.seed(Seq(
        ("Item", "apple", Map[String, Value]("price" -> int(3), "stock" -> int(10))),
        ("User", "alice", Map[String, Value]("balance" -> int(100))),
      ))
      assert(rt.invoke("User", "alice", "checkout", List(ref("Item", "apple"), int(5))) == bool(true))
      assert(rt.invoke("User", "alice", "get_balance", Nil) == int(85))
      assert(rt.invoke("Item", "apple", "get_price", Nil) == int(3))
    }
  }

  test("each hop wave is one micro-batch (the Kafka re-entry cost)") {
    withRuntime(shopGraph) { rt =>
      rt.seed(Seq(("Item", "a", Map[String, Value]("price" -> int(2), "stock" -> int(5)))))
      val before = rt.batches
      rt.invoke("User", "u", "buy_item", List(int(1), int(2), ref("Item", "a")))
      // buy_item: invoke -> remote call -> resume = 3 hop waves = 3 batches
      assert(rt.batches - before == 3)
      assert(rt.hops == 3)
    }
  }

  test("hotel search end-to-end on streaming state") {
    withRuntime(hotelGraph) { rt =>
      rt.seed(HotelApp.seeds(1, 5, 2))
      val out = rt.invoke("Search", "reg-0", "search", List(int(1), int(3)))
      assert(out.asList.size == 5)
    }
  }

  test("concurrent contended reserves stay per-key serializable") {
    withRuntime(hotelGraph) { rt =>
      rt.seed(HotelApp.seeds(1, 1, 3))
      val reqs = (0 until 15).map { i =>
        OperatorExec.initialEvent(hotelGraph, f"r$i%04d",
          EntityAddr("Hotel", "h-0-0"), "reserve_room", List(int(1), int(2)))
      }
      val replies = rt.run(reqs)
      assert(replies.values.count(_ == bool(true)) == 10) // capacity
      assert(rt.invoke("Hotel", "h-0-0", "get_reserved", Nil) == int(10))
    }
  }

  test("mixed wave of endpoints matches the Local runtime") {
    withRuntime(hotelGraph) { rt =>
      val seeds = HotelApp.seeds(2, 5, 4)
      rt.seed(seeds)
      val local = new LocalRuntime(hotelGraph)
      seeds.foreach { case (c, k, f) => local.seed(c, k, f) }
      val reqs = Seq(
        HotelApp.loginReq("u-1"),
        HotelApp.recommendReq("reg-1"),
        HotelApp.reserveReq("reg-0", "u-2", "h-0-3"),
        HotelApp.searchReq("reg-1", 1, 3),
      )
      val evs = reqs.zipWithIndex.map { case ((c, k, m, a), i) =>
        OperatorExec.initialEvent(hotelGraph, f"r$i%04d", EntityAddr(c, k), m, a)
      }
      val expected = reqs.zipWithIndex.map { case ((c, k, m, a), i) =>
        f"r$i%04d" -> local.invoke(c, k, m, a)
      }.toMap
      assert(rt.run(evs) == expected)
    }
  }

  test("two independent runtimes do not share state") {
    withRuntime(shopGraph) { a =>
      withRuntime(shopGraph) { b =>
        a.seed(Seq(("Item", "x", Map[String, Value]("price" -> int(1)))))
        b.seed(Seq(("Item", "x", Map[String, Value]("price" -> int(2)))))
        assert(a.invoke("Item", "x", "get_price", Nil) == int(1))
        assert(b.invoke("Item", "x", "get_price", Nil) == int(2))
      }
    }
  }

  test("stop deletes the runtime's checkpoint directory") {
    val rt = new SparkStreamRuntime(spark, shopGraph)
    val dir = new java.io.File(rt.checkpointDir)
    try {
      rt.seed(Seq(("Item", "x", Map[String, Value]("price" -> int(1)))))
      assert(rt.invoke("Item", "x", "get_price", Nil) == int(1))
      assert(dir.isDirectory)
    } finally rt.stop()
    assert(!dir.exists())
  }
}
