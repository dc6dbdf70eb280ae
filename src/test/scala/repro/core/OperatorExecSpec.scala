package repro.core

import repro.SparkSpec
import repro.examples.Shop
import EType._
import Value._
import Events._
import OperatorExec._

/** The shared operator step function: suspension, resumption, the
  * distributed call stack, and state handling — tested event by event. */
class OperatorExecSpec extends SparkSpec {

  private lazy val graph = Compiler.compile(Shop.program)

  private def invokeEv(clazz: String, key: String, method: String, args: List[Value],
                       rid: String = "r1"): Invoke =
    initialEvent(graph, rid, EntityAddr(clazz, key), method, args)

  test("inline method: one step produces a client reply and updated state") {
    val st = graph.operator("Item").initialState("i1") ++
      Map("stock" -> int(5), "price" -> int(2))
    val res = step(graph, Some(st), invokeEv("Item", "i1", "remove_stock", List(int(3))))
    assert(res.out == Reply("r1", bool(true)))
    assert(res.fields("stock") == int(2))
  }

  test("fresh entity materializes from field defaults") {
    val res = step(graph, None, invokeEv("User", "nobody", "get_balance", Nil))
    assert(res.out == Reply("r1", int(1000)))
    assert(res.fields("userid") == str("nobody"))
  }

  test("split method suspends at the remote call with a frame pushed") {
    val ev = invokeEv("User", "u1", "buy_item", List(int(2), int(3), ref("Item", "i1")))
    val res = step(graph, None, ev)
    res.out match {
      case next: Invoke =>
        assert(next.target == EntityAddr("Item", "i1"))
        assert(next.method == "remove_stock")
        assert(next.block == EntryBlock)
        assert(next.env.toMap == Map("amount" -> int(2)))
        assert(next.stack.length == 1)
        val frame = next.stack.head
        assert(frame.caller == EntityAddr("User", "u1"))
        assert(frame.method == "buy_item")
        assert(frame.resultVar == "is_removed")
        // suspended environment carries the intermediate result total_price
        assert(frame.env("total_price") == int(6))
      case other => fail(s"expected suspension, got $other")
    }
  }

  test("callee reply resumes the caller at the continuation block") {
    val ev = invokeEv("User", "u1", "buy_item", List(int(2), int(3), ref("Item", "i1")))
    val suspended = step(graph, None, ev).out.asInstanceOf[Invoke]
    // run the callee
    val calleeState = graph.operator("Item").initialState("i1") + ("stock" -> int(10))
    val resume = step(graph, Some(calleeState), suspended).out.asInstanceOf[Invoke]
    assert(resume.target == EntityAddr("User", "u1"))
    assert(resume.block != EntryBlock) // continuation, not a fresh call
    assert(resume.env("is_removed") == bool(true))
    assert(resume.stack.isEmpty)
    // final resumption produces the client reply
    val done = step(graph, None, resume)
    assert(done.out == Reply("r1", int(6)))
  }

  test("nested stacks unwind in order") {
    // checkout: User -> Item.get_price -> User -> Item.remove_stock -> User
    var ev: Event = invokeEv("User", "u1", "checkout", List(ref("Item", "i1"), int(2)))
    var userState: Option[Map[String, Value]] = Some(
      graph.operator("User").initialState("u1") + ("balance" -> int(100)))
    var itemState: Option[Map[String, Value]] = Some(
      graph.operator("Item").initialState("i1") ++ Map("stock" -> int(9), "price" -> int(4)))
    var steps = 0
    while (ev.isInstanceOf[Invoke] && steps < 10) {
      val i = ev.asInstanceOf[Invoke]
      val st = if (i.target.clazz == "User") userState else itemState
      val res = step(graph, st, i)
      if (i.target.clazz == "User") userState = Some(res.fields) else itemState = Some(res.fields)
      ev = res.out
      steps += 1
    }
    assert(ev == Reply("r1", bool(true)))
    assert(steps == 5)
    assert(userState.get("balance") == int(92))
    assert(itemState.get("stock") == int(7))
  }

  test("seq increases along the chain (event ordering metadata)") {
    val ev = invokeEv("User", "u1", "buy_item", List(int(1), int(1), ref("Item", "i1")))
    val hop1 = step(graph, None, ev).out.asInstanceOf[Invoke]
    assert(hop1.seq == ev.seq + 1)
    val hop2 = step(graph, None, hop1).out.asInstanceOf[Invoke]
    assert(hop2.seq == hop1.seq + 1)
  }

  test("requestId is preserved across the whole chain") {
    val ev = invokeEv("User", "u1", "buy_item", List(int(1), int(1), ref("Item", "i1")), rid = "xyz")
    val hop = step(graph, None, ev).out.asInstanceOf[Invoke]
    assert(hop.requestId == "xyz")
  }

  test("arity mismatch on initial event is rejected") {
    intercept[IllegalArgumentException] {
      initialEvent(graph, "r", EntityAddr("Item", "i"), "remove_stock", Nil)
    }
  }

  test("continuation block on an inline method is rejected") {
    val bad = Invoke("r", 0, EntityAddr("Item", "i"), "get_price", 3, Map.empty, Nil)
    intercept[IllegalArgumentException](step(graph, None, bad))
  }

  test("unknown method surfaces a clear error") {
    intercept[NoSuchElementException] {
      step(graph, None, Invoke("r", 0, EntityAddr("Item", "i"), "nope", EntryBlock, Map.empty, Nil))
    }
  }

  test("step is pure with respect to its input state map") {
    val st = graph.operator("Item").initialState("i1") ++ Map("stock" -> int(5), "price" -> int(2))
    step(graph, Some(st), invokeEv("Item", "i1", "remove_stock", List(int(3))))
    assert(st("stock") == int(5), "input snapshot must not be mutated")
  }

  test("a hop of a method with an empty write set hands back its input state, unchanged") {
    val st = graph.operator("Item").initialState("i1") ++ Map("stock" -> int(5), "price" -> int(2))
    val read = step(graph, Some(st), invokeEv("Item", "i1", "get_price", Nil))
    assert(read.out == Reply("r1", int(2)))
    assert(!read.changed)
    assert(read.fields eq st)
    assert(step(graph, None, invokeEv("Item", "i1", "get_price", Nil)).changed,
      "a fresh entity materializes: its state changed")
    val write = step(graph, Some(st), invokeEv("Item", "i1", "remove_stock", List(int(1))))
    assert(write.changed && write.fields("stock") == int(4))
  }

  /** Every event of one request, stepped over per-entity state maps. */
  private def chain(g: Dataflow.DataflowGraph, first: Invoke,
                    state: collection.mutable.Map[EntityAddr, Map[String, Value]]): List[Event] = {
    var ev: Event = first
    val out = List.newBuilder[Event]
    while (ev.isInstanceOf[Invoke]) {
      val i = ev.asInstanceOf[Invoke]
      val res = step(g, state.get(i.target), i)
      state(i.target) = res.fields
      out += i
      ev = res.out
    }
    (out += ev).result()
  }

  private def shopState: collection.mutable.Map[EntityAddr, Map[String, Value]] = {
    val item = graph.operator("Item")
    collection.mutable.Map(
      EntityAddr("Item", "a") -> (item.initialState("a") ++ Map("stock" -> int(5), "price" -> int(3))),
      EntityAddr("Item", "b") -> (item.initialState("b") ++ Map("stock" -> int(0), "price" -> int(9))),
      EntityAddr("Item", "c") -> (item.initialState("c") ++ Map("stock" -> int(2), "price" -> int(4))))
  }

  test("the desugared $it/$ix pair travels in the caller's frame across each call") {
    val items = list(TRef("Item"), ref("Item", "a"), ref("Item", "b"), ref("Item", "c"))
    val evs = chain(graph, invokeEv("User", "u1", "add_to_basket", List(items)), shopState)
    val calls = evs.collect { case i: Invoke if i.target.clazz == "Item" => i }
    assert(calls.map(c => (c.target.key, c.method)) == List(
      "a" -> "enough_stock", "a" -> "get_price", "b" -> "enough_stock", "c" -> "enough_stock", "c" -> "get_price"))
    calls.foreach { c =>
      val frame = c.stack.head.env
      assert(frame("$it0") == items)
      assert(frame("item") == items.asList(frame("$ix0").asInt.toInt), s"frame of the call to ${c.target}")
    }
    assert(evs.last == Reply("r1", bool(true)))
  }

  test("a variable assigned in one if branch survives a suspension and is read after the join") {
    import Ast._
    val p = Program(List(Shop.item, ClassDef("C", "id", List(FieldDef("id", TStr, str(""))), List(
      FunctionDef("m", List("flag" -> TBool, "it" -> TRef("Item")), TInt, List(
        If(Var("flag"), List(Assign("x", TInt, Const(int(100)))), Nil),
        Assign("p", TInt, RemoteCall(Var("it"), "get_price", Nil)),
        If(Var("flag"), List(Return(BinOp("+", Var("x"), Var("p")))), Nil),
        Return(Var("p")),
      ))))))
    val g = Compiler.compile(p)
    for (flag <- List(true, false)) {
      val st = collection.mutable.Map(EntityAddr("Item", "a") ->
        (g.operator("Item").initialState("a") + ("price" -> int(7))))
      val evs = chain(g, initialEvent(g, "r1", EntityAddr("C", "c"), "m", List(bool(flag), ref("Item", "a"))), st)
      val frame = evs(1).asInstanceOf[Invoke].stack.head.env
      assert(frame.toMap.contains("x") == flag, "an unassigned variable is not carried")
      assert(evs.last == Reply("r1", int(if (flag) 107 else 7)))
      val it = new Interpreter(p)
      it.seed("Item", "a", Map("price" -> int(7)))
      assert(it.invoke("C", "c", "m", List(bool(flag), ref("Item", "a"))) == int(if (flag) 107 else 7))
    }
  }

  test("stepping one event twice from one stored array gives equal results and writes neither") {
    val item = graph.operator("Item").cd
    val user = graph.operator("User").cd
    val itemSt = item.layout.array(item.initialState("i1") ++ Map("stock" -> int(5), "price" -> int(2)))
    val userSt = user.layout.array(user.initialState("u1"))
    val suspended = stepFields(graph, Some(userSt),
      invokeEv("User", "u1", "buy_item", List(int(2), int(3), ref("Item", "i1")))).out.asInstanceOf[Invoke]
    val resumed = stepFields(graph, Some(itemSt), suspended).out.asInstanceOf[Invoke]
    val cases = List(
      itemSt -> invokeEv("Item", "i1", "remove_stock", List(int(3))), // writer, inline
      itemSt -> invokeEv("Item", "i1", "get_price", Nil),              // read-only, inline
      userSt -> invokeEv("User", "u1", "checkout", List(ref("Item", "i1"), int(1))), // split, suspends
      itemSt -> suspended,                                             // pops nothing, pushes a reply to the frame
      userSt -> resumed,                                               // continuation
    )
    cases.foreach { case (stored, ev) =>
      val storedBefore = stored.clone()
      val envBefore = ev.env.values.clone()
      val framesBefore = ev.stack.map(_.env.values.clone())
      val a = stepFields(graph, Some(stored), ev)
      val b = stepFields(graph, Some(stored), ev)
      assert(a.out == b.out && a.changed == b.changed && a.fields.sameElements(b.fields), s"$ev")
      assert(stored.sameElements(storedBefore), s"stored array written by $ev")
      assert(ev.env.values.sameElements(envBefore), s"event array written by $ev")
      assert(ev.stack.map(_.env.values).zip(framesBefore).forall { case (x, y) => x.sameElements(y) })
      assert(a.changed || (a.fields eq stored), "a read-only hop reads the stored array in place")
    }
  }

  test("events built by resume round-trip through the codec and step alike") {
    val items = list(TRef("Item"), ref("Item", "a"), ref("Item", "b"), ref("Item", "c"))
    val hotel = Compiler.compile(repro.deathstar.HotelApp.program)
    val hotelSt = collection.mutable.Map.empty[EntityAddr, Map[String, Value]]
    repro.deathstar.HotelApp.seeds(2, 5, 4).foreach { case (c, k, f) =>
      hotelSt(EntityAddr(c, k)) = hotel.operator(c).initialState(k) ++ f
    }
    val runs = List(
      graph -> chain(graph, invokeEv("User", "u1", "add_to_basket", List(items)), shopState),
      graph -> chain(graph, invokeEv("User", "u1", "checkout", List(ref("Item", "a"), int(2))), shopState),
      hotel -> chain(hotel, initialEvent(hotel, "s", EntityAddr("Search", "reg-0"), "search",
        List(int(3), int(5))), hotelSt),
    )
    assert(runs.map(_._2.size) == List(12, 6, 18))
    runs.foreach { case (g, evs) =>
      evs.foreach { ev =>
        val back = Events.decode(Events.encode(ev))
        assert(back == ev)
        (ev, back) match {
          case (i: Invoke, j: Invoke) =>
            assert(!(j.env.layout eq i.env.layout)) // decoded: a layout of its own names
            val st = Option(g.operator(i.target.clazz).cd.initialFields(i.target.key))
            assert(stepFields(g, st, i).out == stepFields(g, st, j).out)
          case _ => ()
        }
      }
    }
  }

  test("remote self-call routes through the dataflow like any other call") {
    // A method calling a ref to its own entity still suspends (the paper
    // routes every entity call through the dataflow).
    val p = Ast.Program(List(Ast.ClassDef("S", "id",
      List(Ast.FieldDef("id", TStr, str("")), Ast.FieldDef("n", TInt, int(1))),
      List(
        Ast.FunctionDef("twice", Nil, TInt, List(
          Ast.Assign("me", TRef("S"), Ast.Builtin("ref",
            List(Ast.Const(str("S")), Ast.FieldGet("id")))),
          Ast.Assign("a", TInt, Ast.RemoteCall(Ast.Var("me"), "bump", Nil)),
          Ast.Assign("b", TInt, Ast.RemoteCall(Ast.Var("me"), "bump", Nil)),
          Ast.Return(Ast.BinOp("+", Ast.Var("a"), Ast.Var("b"))),
        )),
        Ast.FunctionDef("bump", Nil, TInt, List(
          Ast.SetField("n", Ast.BinOp("+", Ast.FieldGet("n"), Ast.Const(int(1)))),
          Ast.Return(Ast.FieldGet("n")),
        )),
      ))))
    val g = Compiler.compile(p)
    val rt = new repro.runtime.LocalRuntime(g)
    assert(rt.invoke("S", "s1", "twice", Nil) == int(5)) // 2 + 3
    assert(rt.snapshot("S", "s1")("n") == int(3))
    assert(rt.hops == 5) // entry + 2 * (call + resume)
  }

  test("reenter runs waves until only replies remain, counting waves and hops") {
    // Toy waves: (request, n) re-enters as (request, n - 1) until n is 0,
    // which replies with the number of the wave it ended in.
    var calls = 0
    val (replies, waves, hops) = reenter(Seq(("a", 2), ("b", 0), ("c", 1))) { wave =>
      calls += 1
      wave.map { case (rid, n) => if (n > 0) Left((rid, n - 1)) else Right(rid -> int(calls)) }
    }
    assert(replies == Map("a" -> int(3), "b" -> int(1), "c" -> int(2)))
    assert(waves == 3 && calls == 3)
    assert(hops == 6) // 3 + 2 + 1 events
  }

  test("reenter on no initial events runs no wave") {
    val (replies, waves, hops) =
      reenter(Seq.empty[Int])(_ => fail("no wave may run"): Seq[Either[Int, (String, Value)]])
    assert(replies.isEmpty)
    assert(waves == 0 && hops == 0L)
  }
}
