package repro.runtime

import repro.SparkSpec
import repro.core._
import repro.examples.Shop
import EType._
import Value._

/** The Local target runtime (§3): split dataflow execution must be
  * indistinguishable from the direct interpreter. */
class LocalRuntimeSpec extends SparkSpec {

  private def freshPair(): (Interpreter, LocalRuntime) = {
    val it = new Interpreter(Shop.program)
    val rt = new LocalRuntime(Compiler.compile(Shop.program))
    for (seed <- List[(String, String, Map[String, Value])](
      ("Item", "apple", Map("stock" -> int(10), "price" -> int(3))),
      ("Item", "tv", Map("stock" -> int(1), "price" -> int(900))),
      ("Item", "out", Map("stock" -> int(0), "price" -> int(5))),
      ("User", "alice", Map("balance" -> int(100))),
    )) {
      it.seed(seed._1, seed._2, seed._3)
      rt.seed(seed._1, seed._2, seed._3)
    }
    (it, rt)
  }

  test("inline method executes in one hop") {
    val (_, rt) = freshPair()
    assert(rt.invoke("Item", "apple", "get_price", Nil) == int(3))
    assert(rt.hops == 1)
  }

  test("buy_item: split execution matches interpreter result and state") {
    val (it, rt) = freshPair()
    val args = List(int(2), int(3), ref("Item", "apple"))
    assert(rt.invoke("User", "alice", "buy_item", args) ==
           it.invoke("User", "alice", "buy_item", args))
    assert(rt.snapshot("Item", "apple") == it.snapshot("Item", "apple"))
  }

  test("buy_item takes 3 hops: invoke, remote call, return-resume") {
    val (_, rt) = freshPair()
    rt.invoke("User", "alice", "buy_item", List(int(1), int(3), ref("Item", "apple")))
    assert(rt.hops == 3)
  }

  test("add_to_basket: loop with remote calls matches interpreter") {
    val (it, rt) = freshPair()
    val items = list(TRef("Item"), ref("Item", "apple"), ref("Item", "out"), ref("Item", "tv"))
    assert(rt.invoke("User", "alice", "add_to_basket", List(items)) ==
           it.invoke("User", "alice", "add_to_basket", List(items)))
    assert(rt.snapshot("User", "alice") == it.snapshot("User", "alice"))
  }

  test("checkout success path matches interpreter") {
    val (it, rt) = freshPair()
    val args = List(ref("Item", "apple"), int(5))
    assert(rt.invoke("User", "alice", "checkout", args) ==
           it.invoke("User", "alice", "checkout", args))
    assert(rt.snapshot("User", "alice")("balance") == int(85))
    assert(rt.snapshot("Item", "apple")("stock") == int(5))
  }

  test("checkout insufficient-balance path matches interpreter") {
    val (it, rt) = freshPair()
    val args = List(ref("Item", "tv"), int(1))
    assert(rt.invoke("User", "alice", "checkout", args) ==
           it.invoke("User", "alice", "checkout", args))
    assert(rt.snapshot("Item", "tv")("stock") == int(1))
  }

  test("checkout out-of-stock path matches interpreter") {
    val (it, rt) = freshPair()
    val args = List(ref("Item", "out"), int(1))
    assert(rt.invoke("User", "alice", "checkout", args) ==
           it.invoke("User", "alice", "checkout", args))
    assert(rt.snapshot("User", "alice")("balance") == int(100))
  }

  test("sequential request stream: full state equivalence") {
    val (it, rt) = freshPair()
    val script: List[(String, String, String, List[Value])] = List(
      ("User", "alice", "deposit", List(int(1000))),
      ("User", "alice", "checkout", List(ref("Item", "tv"), int(1))),
      ("User", "alice", "checkout", List(ref("Item", "apple"), int(3))),
      ("User", "alice", "add_to_basket", List(list(TRef("Item"), ref("Item", "apple")))),
      ("User", "alice", "get_balance", Nil),
      ("Item", "apple", "restock", List(int(5))),
      ("User", "alice", "buy_item", List(int(2), int(3), ref("Item", "apple"))),
    )
    script.foreach { case (c, k, m, a) =>
      assert(rt.invoke(c, k, m, a) == it.invoke(c, k, m, a), s"$c.$m")
    }
    for ((c, k) <- List(("User", "alice"), ("Item", "apple"), ("Item", "tv"), ("Item", "out")))
      assert(rt.snapshot(c, k) == it.snapshot(c, k), s"state of $c:$k")
  }

  test("hop trace records the entity route of a request") {
    val (_, rt) = freshPair()
    rt.invoke("User", "alice", "buy_item", List(int(1), int(3), ref("Item", "apple")))
    val trace = rt.traces.values.head
    assert(trace.map(a => a.clazz) == Vector("User", "Item", "User"))
  }

  test("hop traces hold only the latest call's requests") {
    val (_, rt) = freshPair()
    (0 until 100).foreach(_ => rt.invoke("Item", "apple", "get_price", Nil))
    assert(rt.traces.size == 1)
  }

  test("multiple interleaved requests all reply") {
    val (_, rt) = freshPair()
    val g = rt.graph
    val evs = (0 until 10).toList.map { i =>
      OperatorExec.initialEvent(g, f"q$i%03d", Events.EntityAddr("Item", "apple"), "get_price", Nil)
    }
    val replies = rt.run(evs)
    assert(replies.size == 10)
    assert(replies.values.forall(_ == int(3)))
  }

  test("state store isolates classes with the same key") {
    val (_, rt) = freshPair()
    rt.seed("User", "same", Map("balance" -> int(1)))
    rt.seed("Item", "same", Map("price" -> int(2)))
    assert(rt.snapshot("User", "same")("balance") == int(1))
    assert(rt.snapshot("Item", "same")("price") == int(2))
  }

  test("a second seed merges onto the entity's state, as the interpreter's does") {
    val (it, rt) = freshPair()
    it.seed("Item", "apple", Map("stock" -> int(7)))
    rt.seed("Item", "apple", Map("stock" -> int(7)))
    assert(rt.snapshot("Item", "apple")("price") == int(3))
    assert(rt.snapshot("Item", "apple") == it.snapshot("Item", "apple"))
  }

  test("entity auto-materializes on first invocation") {
    val (_, rt) = freshPair()
    assert(rt.invoke("User", "newbie", "get_balance", Nil) == int(1000))
  }
}
