package repro.core

import repro.SparkSpec
import repro.examples.Shop
import EType._
import Value._

/** The direct (unsplit) reference interpreter — defines the semantics every
  * distributed runtime must match. */
class InterpreterSpec extends SparkSpec {

  private def freshShop(): Interpreter = {
    val it = new Interpreter(Shop.program)
    it.seed("Item", "apple", Map("stock" -> int(10), "price" -> int(3)))
    it.seed("Item", "tv", Map("stock" -> int(1), "price" -> int(900)))
    it.seed("Item", "out", Map("stock" -> int(0), "price" -> int(5)))
    it.seed("User", "alice", Map("balance" -> int(100)))
    it
  }

  test("entities materialize with field defaults and key") {
    val it = new Interpreter(Shop.program)
    val u = it.snapshot("User", "bob")
    assert(u("balance") == int(1000))
    assert(u("userid") == str("bob"))
    assert(u("basket") == VList(TRef("Item"), Vector.empty))
  }

  test("simple getter") {
    val it = freshShop()
    assert(it.invoke("Item", "apple", "get_price", Nil) == int(3))
  }

  test("remove_stock decrements on success") {
    val it = freshShop()
    assert(it.invoke("Item", "apple", "remove_stock", List(int(4))) == bool(true))
    assert(it.snapshot("Item", "apple")("stock") == int(6))
  }

  test("remove_stock refuses when stock insufficient") {
    val it = freshShop()
    assert(it.invoke("Item", "tv", "remove_stock", List(int(2))) == bool(false))
    assert(it.snapshot("Item", "tv")("stock") == int(1))
  }

  test("add_to_basket succeeds when balance covers in-stock items") {
    val it = freshShop()
    val items = list(TRef("Item"), ref("Item", "apple"), ref("Item", "out"))
    // 'out' has no stock: only apple's price (3) counts; balance 100 covers it.
    assert(it.invoke("User", "alice", "add_to_basket", List(items)) == bool(true))
    assert(it.snapshot("User", "alice")("basket") == items)
  }

  test("add_to_basket fails when total price exceeds balance") {
    val it = freshShop()
    val items = list(TRef("Item"), ref("Item", "tv"))
    assert(it.invoke("User", "alice", "add_to_basket", List(items)) == bool(false))
    // basket unchanged on failure
    assert(it.snapshot("User", "alice")("basket") == VList(TRef("Item"), Vector.empty))
  }

  test("checkout charges buyer and removes stock atomically (sequential)") {
    val it = freshShop()
    assert(it.invoke("User", "alice", "checkout",
      List(ref("Item", "apple"), int(5))) == bool(true))
    assert(it.snapshot("User", "alice")("balance") == int(100 - 15))
    assert(it.snapshot("Item", "apple")("stock") == int(5))
  }

  test("checkout refuses on insufficient balance without touching stock") {
    val it = freshShop()
    assert(it.invoke("User", "alice", "checkout",
      List(ref("Item", "tv"), int(1))) == bool(false))
    assert(it.snapshot("User", "alice")("balance") == int(100))
    assert(it.snapshot("Item", "tv")("stock") == int(1))
  }

  test("checkout refuses when stock runs out after price check") {
    val it = freshShop()
    assert(it.invoke("User", "alice", "checkout",
      List(ref("Item", "out"), int(1))) == bool(false))
    assert(it.snapshot("User", "alice")("balance") == int(100))
  }

  test("buy_item returns total price and removes stock") {
    val it = freshShop()
    assert(it.invoke("User", "alice", "buy_item",
      List(int(2), int(3), ref("Item", "apple"))) == int(6))
    assert(it.snapshot("Item", "apple")("stock") == int(8))
  }

  test("calls counter counts client call plus remote calls") {
    val it = freshShop()
    it.invoke("User", "alice", "buy_item", List(int(1), int(3), ref("Item", "apple")))
    // 1 client call + 1 remote remove_stock
    assert(it.calls == 2)
  }

  test("add_to_basket call count: 1 + 2 per in-stock item + 1 per out-of-stock") {
    val it = freshShop()
    val items = list(TRef("Item"), ref("Item", "apple"), ref("Item", "out"))
    it.invoke("User", "alice", "add_to_basket", List(items))
    // 1 (add_to_basket) + apple: enough_stock + get_price, out: enough_stock
    assert(it.calls == 4)
  }

  test("seeding merges over defaults") {
    val it = new Interpreter(Shop.program)
    it.seed("User", "x", Map("balance" -> int(7)))
    val s = it.snapshot("User", "x")
    assert(s("balance") == int(7))
    assert(s("userid") == str("x"))
  }

  test("a self call gets its own variables, split or not, and leaves the caller's unchanged") {
    import Ast._
    // `inner` has its own `x`; the caller's `x` (and `p`, held across the
    // remote call) keep their values.
    val c = ClassDef("C", "id", List(FieldDef("id", TStr, str("")), FieldDef("n", TInt, int(0))), List(
      FunctionDef("inner", List("x" -> TInt), TInt, List(
        Assign("y", TInt, BinOp("*", Var("x"), Const(int(10)))),
        SetVar("x", Const(int(-1))),
        SetField("n", Var("y")),
        Return(Var("y")),
      )),
      FunctionDef("outer", List("it" -> TRef("Item")), TInt, List(
        Assign("x", TInt, Const(int(4))),
        Assign("p", TInt, RemoteCall(Var("it"), "get_price", Nil)),
        Assign("z", TInt, SelfCall("inner", List(BinOp("+", Var("x"), Var("p"))))),
        Return(BinOp("+", BinOp("*", Var("x"), Const(int(1000))), BinOp("+", Var("z"), Var("p")))),
      )),
    ))
    val p = Program(List(Shop.item, c))
    val it = new Interpreter(p)
    it.seed("Item", "a", Map("price" -> int(7)))
    assert(it.invoke("C", "c", "outer", List(ref("Item", "a"))) == int(4117))
    assert(it.snapshot("C", "c")("n") == int(110))
    val rt = new repro.runtime.LocalRuntime(Compiler.compile(p))
    rt.seed("Item", "a", Map("price" -> int(7)))
    assert(rt.invoke("C", "c", "outer", List(ref("Item", "a"))) == int(4117))
    assert(rt.snapshot("C", "c") == it.snapshot("C", "c"))
  }

  test("entitiesOf lists materialized entities") {
    val it = freshShop()
    assert(it.entitiesOf("Item").keySet == Set("apple", "tv", "out"))
    assert(it.entitiesOf("User").keySet == Set("alice"))
  }
}
