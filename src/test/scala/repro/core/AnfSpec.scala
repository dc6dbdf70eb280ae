package repro.core

import repro.SparkSpec
import repro.examples.Shop
import Ast._
import EType._
import Value._

/** Remote-call normalization: hoisting invariants and semantics
  * preservation. */
class AnfSpec extends SparkSpec {

  private val bRef = TRef("B")
  private def bClass = ClassDef("B", "id",
    List(FieldDef("id", TStr, str("")), FieldDef("n", TInt, int(7))),
    List(
      FunctionDef("get", Nil, TInt, List(Return(FieldGet("n")))),
      FunctionDef("flag", Nil, TBool, List(Return(BinOp(">", FieldGet("n"), Const(int(0)))))),
      FunctionDef("dec", Nil, TInt, List(
        SetField("n", BinOp("-", FieldGet("n"), Const(int(1)))),
        Return(FieldGet("n")),
      )),
    ))

  private def progWith(method: FunctionDef): Program =
    Program(List(
      ClassDef("A", "id", List(FieldDef("id", TStr, str(""))), List(method)),
      bClass,
    ))

  test("normalized Shop methods satisfy the ANF invariant") {
    Shop.program.classes.foreach { cd =>
      cd.methods.foreach { fd =>
        assert(Anf.isNormalized(Anf.normalize(fd)), s"${cd.name}.${fd.name}")
      }
    }
  }

  test("nested remote call is hoisted out of arithmetic") {
    val fd = FunctionDef("m", List("x" -> bRef), TInt, List(
      Return(BinOp("+", Const(int(1)), RemoteCall(Var("x"), "get", Nil))),
    ))
    val n = Anf.normalize(fd)
    assert(Anf.isNormalized(n))
    assert(!Anf.isNormalized(fd) || !Ast.bodyHasRemote(fd.body)) // original was not ANF
    // hoisted: $r0 = x.get(); return 1 + $r0
    n.body match {
      case List(Assign(tmp, _, RemoteCall(Var("x"), "get", Nil)), Return(BinOp("+", _, Var(t2)))) =>
        assert(tmp == t2)
      case other => fail(s"unexpected shape: $other")
    }
  }

  test("direct assignment keeps its variable as result var (buy_item style)") {
    val fd = FunctionDef("m", List("x" -> bRef), TInt, List(
      Assign("got", TInt, RemoteCall(Var("x"), "get", Nil)),
      Return(Var("got")),
    ))
    val n = Anf.normalize(fd)
    n.body.head match {
      case Assign("got", _, _: RemoteCall) => ()
      case other                           => fail(s"expected direct call assign, got $other")
    }
  }

  test("remote call in if-condition hoisted before the if") {
    val fd = FunctionDef("m", List("x" -> bRef), TInt, List(
      If(RemoteCall(Var("x"), "flag", Nil), List(Return(Const(int(1)))), List(Return(Const(int(0))))),
    ))
    val n = Anf.normalize(fd)
    assert(Anf.isNormalized(n))
    n.body match {
      case List(Assign(t, _, _: RemoteCall), If(Var(t2), _, _)) => assert(t == t2)
      case other => fail(s"unexpected shape: $other")
    }
  }

  test("while-condition with remote call re-evaluates each iteration") {
    // while (x.dec() > 0) {}  — must call dec once per iteration + once initially
    val fd = FunctionDef("m", List("x" -> bRef), TInt, List(
      While(BinOp(">", RemoteCall(Var("x"), "dec", Nil), Const(int(0))), Nil),
      Return(Const(int(0))),
    ))
    val n = Anf.normalize(fd)
    assert(Anf.isNormalized(n))
    val p = progWith(n)
    val it = new Interpreter(p)
    it.seed("B", "b1", Map("n" -> int(3)))
    it.invoke("A", "a", "m", List(ref("B", "b1")))
    // dec called until it returns 0: n 3->2->1->0 = 3 calls; counter also counts client call.
    assert(it.snapshot("B", "b1")("n") == int(0))
    assert(it.calls == 1 + 3)
  }

  test("short-circuit and: rhs remote call not evaluated when lhs false") {
    val fd = FunctionDef("m", List("x" -> bRef, "go" -> TBool), TBool, List(
      Return(BinOp("and", Var("go"), RemoteCall(Var("x"), "flag", Nil))),
    ))
    val n = Anf.normalize(fd)
    assert(Anf.isNormalized(n))
    val p = progWith(n)
    val it = new Interpreter(p)
    assert(it.invoke("A", "a", "m", List(ref("B", "b1"), bool(false))) == bool(false))
    assert(it.calls == 1) // only the client call — flag() never ran
    assert(it.invoke("A", "a", "m", List(ref("B", "b1"), bool(true))) == bool(true))
    assert(it.calls == 3) // + client call + flag()
  }

  test("short-circuit or: rhs remote call not evaluated when lhs true") {
    val fd = FunctionDef("m", List("x" -> bRef, "stop" -> TBool), TBool, List(
      Return(BinOp("or", Var("stop"), RemoteCall(Var("x"), "flag", Nil))),
    ))
    val n = Anf.normalize(fd)
    val p = progWith(n)
    val it = new Interpreter(p)
    assert(it.invoke("A", "a", "m", List(ref("B", "b1"), bool(true))) == bool(true))
    assert(it.calls == 1)
  }

  test("evaluation order of multiple hoisted calls is left-to-right") {
    val fd = FunctionDef("m", List("x" -> bRef), TInt, List(
      Return(BinOp("-", RemoteCall(Var("x"), "dec", Nil), RemoteCall(Var("x"), "dec", Nil))),
    ))
    val n = Anf.normalize(fd)
    val p = progWith(n)
    val it = new Interpreter(p)
    it.seed("B", "b1", Map("n" -> int(5)))
    // first dec -> 4, second dec -> 3; 4 - 3 = 1
    assert(it.invoke("A", "a", "m", List(ref("B", "b1"))) == int(1))
  }

  test("normalization preserves semantics on the Shop program") {
    val plain = new Interpreter(Shop.program)
    val norm  = new Interpreter(Anf.normalize(Shop.program))
    for (it <- List(plain, norm)) {
      it.seed("Item", "a", Map("stock" -> int(5), "price" -> int(4)))
      it.seed("User", "u", Map("balance" -> int(50)))
    }
    val items = list(TRef("Item"), ref("Item", "a"))
    assert(plain.invoke("User", "u", "add_to_basket", List(items)) ==
           norm.invoke("User", "u", "add_to_basket", List(items)))
    assert(plain.invoke("User", "u", "checkout", List(ref("Item", "a"), int(2))) ==
           norm.invoke("User", "u", "checkout", List(ref("Item", "a"), int(2))))
    assert(plain.snapshot("User", "u") == norm.snapshot("User", "u"))
    assert(plain.snapshot("Item", "a") == norm.snapshot("Item", "a"))
  }

  test("remote-free methods are untouched by normalization") {
    val fd = Shop.item.method("remove_stock")
    assert(Anf.normalize(fd) == fd)
  }
}
