package repro.core

import repro.SparkSpec
import repro.examples.Shop
import EType._
import Value._
import Dataflow._
import StateMachine._

/** The compiler pipeline and the IR — including paper Table 1's translation
  * mapping, asserted structurally (this is evaluation table T1). */
class CompilerSpec extends SparkSpec {

  private lazy val graph: DataflowGraph = Compiler.compile(Shop.program)

  // ------------------------------------------------- Table 1 mapping (T1)

  test("T1: each class becomes one dataflow operator") {
    assert(graph.operators.keySet == Set("User", "Item"))
    assert(graph.operator("User").cd.name == "User")
  }

  test("T1: object state becomes operator state (schema carried in IR)") {
    val op = graph.operator("User")
    assert(op.cd.fields.map(_.name).toSet == Set("userid", "balance", "basket"))
    assert(op.initialState("u1")("balance") == int(1000))
    assert(op.initialState("u1")("userid") == str("u1"))
  }

  test("T1: function call arguments travel in the event header") {
    val ev = OperatorExec.initialEvent(graph, "r1", Events.EntityAddr("User", "u1"),
      "buy_item", List(int(2), int(3), ref("Item", "i1")))
    assert(ev.env == Map("amount" -> int(2), "price" -> int(3), "item" -> ref("Item", "i1")))
    assert(ev.method == "buy_item")
    assert(ev.block == OperatorExec.EntryBlock)
  }

  test("T1: return value travels in the event payload") {
    val ev = OperatorExec.initialEvent(graph, "r1", Events.EntityAddr("Item", "i1"), "get_price", Nil)
    val res = OperatorExec.step(graph,
      Some(graph.operator("Item").initialState("i1") + ("price" -> int(42))), ev)
    res.out match {
      case Events.Reply("r1", v) => assert(v == int(42))
      case other                 => fail(s"expected client reply, got $other")
    }
  }

  // ------------------------------------------------------ pipeline shape

  test("operators partition by (class name, key) — the routing mechanism") {
    val a = Events.EntityAddr("User", "alice")
    assert(a.routingKey == "User|alice")
    assert(Events.EntityAddr.fromRoutingKey(a.routingKey) == a)
  }

  test("remote-free methods compile to inline, others to split") {
    val item = graph.operator("Item")
    assert(item.methods.values.forall(_.isInstanceOf[InlineMethod]))
    val user = graph.operator("User")
    assert(user.method("add_to_basket").isInstanceOf[SplitMethod])
    assert(user.method("get_balance").isInstanceOf[InlineMethod])
  }

  test("each compiled method carries its write set") {
    assert(graph.operator("Item").method("remove_stock").writes == Set("stock"))
    assert(graph.operator("Item").method("get_price").writes.isEmpty)
    assert(graph.operator("User").method("checkout").writes == Set("balance"))
    assert(graph.operator("User").method("get_balance").writes.isEmpty)
  }

  test("HotelApp's writers are exactly the five methods that assign a field") {
    val hotel = Compiler.compile(repro.deathstar.HotelApp.program)
    val writers = hotel.operators.values.flatMap(_.methods.values).filter(_.writes.nonEmpty).map(_.name)
    assert(writers.toSet == Set("reserve_room", "add_hotel", "set_index", "set_profiles", "add_reservation"))
  }

  test("call edges form the User -> Item topology") {
    val callPairs = graph.edges.map(e => (e.from, e.to)).distinct
    assert(callPairs == List(("User", "Item")))
    assert(graph.edges.map(_.toMethod).toSet == Set("enough_stock", "get_price", "remove_stock"))
  }

  test("splitMethods lists every split state machine deterministically") {
    val names = graph.splitMethods.map(sm => (sm.clazz, sm.name))
    assert(names == names.sorted)
    assert(names.toSet == Set(("User", "add_to_basket"), ("User", "buy_item"), ("User", "checkout")))
  }

  test("all split machines validate") {
    graph.splitMethods.foreach(_.validate())
  }

  test("compilation is deterministic") {
    assert(Compiler.compile(Shop.program) == graph)
  }

  test("compiling an ill-typed program throws with diagnostics") {
    import Ast._
    val bad = Program(List(ClassDef("A", "id", List(FieldDef("id", TStr, str(""))), List(
      FunctionDef("m", Nil, TInt, List(Return(Var("ghost")))),
    ))))
    val e = intercept[IllegalArgumentException](Compiler.compile(bad))
    assert(e.getMessage.contains("ghost"))
  }

  test("IR is self-contained: operators carry method schemas for routing") {
    val m = graph.operator("User").method("checkout")
    assert(m.params.map(_._1) == List("item", "amount"))
  }
}
