package repro.core

import repro.SparkSpec
import repro.examples.Shop
import Ast._
import EType._
import Value._

/** The static pass of §2.1: declared types, remote-call discovery, key
  * rules, self-call restrictions. */
class TypeCheckerSpec extends SparkSpec {

  private def cls(name: String, methods: List[FunctionDef],
                  fields: List[FieldDef] = Nil, key: String = "id"): ClassDef =
    ClassDef(name, key, FieldDef("id", TStr, str("")) :: fields, methods)

  private def errorsOf(p: Program): List[String] =
    TypeChecker.check(p).left.getOrElse(Nil).map(_.toString)

  test("the paper's Listing 1 program type-checks") {
    val info = TypeChecker.checkOrThrow(Shop.program)
    assert(info.remoteFree.contains(("Item", "enough_stock")))
    assert(info.remoteFree.contains(("Item", "remove_stock")))
    assert(!info.remoteFree.contains(("User", "add_to_basket")))
    assert(!info.remoteFree.contains(("User", "buy_item")))
  }

  test("remote-call counts discovered through type annotations") {
    val info = TypeChecker.checkOrThrow(Shop.program)
    assert(info.methodRemoteCallCount(("User", "buy_item")) == 1)
    assert(info.methodRemoteCallCount(("User", "add_to_basket")) == 2)
    assert(info.methodRemoteCallCount(("Item", "get_price")) == 0)
  }

  test("call edges form the function call graph of §2.2") {
    val info = TypeChecker.checkOrThrow(Shop.program)
    assert(info.callEdges.contains(("User", "buy_item", "Item", "remove_stock")))
    assert(info.callEdges.contains(("User", "add_to_basket", "Item", "enough_stock")))
    assert(info.callEdges.contains(("User", "add_to_basket", "Item", "get_price")))
  }

  test("key field must exist") {
    val p = Program(List(ClassDef("A", "nope", List(FieldDef("id", TStr, str(""))), Nil)))
    assert(errorsOf(p).exists(_.contains("key field nope")))
  }

  test("key field must be a string (it partitions the operator)") {
    val p = Program(List(ClassDef("A", "id", List(FieldDef("id", TInt, int(0))), Nil)))
    assert(errorsOf(p).exists(_.contains("must be str")))
  }

  test("key field cannot be re-assigned (stricter than the paper's footnote 2)") {
    val p = Program(List(cls("A", List(
      FunctionDef("evil", Nil, TUnit, List(SetField("id", Const(str("new"))))),
    ))))
    assert(errorsOf(p).exists(_.contains("cannot change")))
  }

  test("use of undeclared variable is an error") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TInt, List(Return(Var("ghost")))),
    ))))
    assert(errorsOf(p).exists(_.contains("undeclared variable ghost")))
  }

  test("assignment to undeclared variable is an error") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TUnit, List(SetVar("x", Const(int(1))))),
    ))))
    assert(errorsOf(p).exists(_.contains("undeclared variable x")))
  }

  test("declared type must match assigned expression") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TUnit, List(Assign("x", TInt, Const(str("s"))))),
    ))))
    assert(errorsOf(p).exists(_.contains("declared int but assigned str")))
  }

  test("int widens to float") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TUnit, List(Assign("x", TDouble, Const(int(1))))),
    ))))
    assert(TypeChecker.check(p).isRight)
  }

  test("if condition must be bool") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TUnit, List(If(Const(int(1)), Nil, Nil))),
    ))))
    assert(errorsOf(p).exists(_.contains("if condition")))
  }

  test("for requires a list") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TUnit, List(ForEach("i", TInt, Const(int(3)), Nil))),
    ))))
    assert(errorsOf(p).exists(_.contains("non-list")))
  }

  test("return type checked against declaration") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TInt, List(Return(Const(bool(true))))),
    ))))
    assert(errorsOf(p).exists(_.contains("return bool, declared int")))
  }

  test("remote call on unknown class rejected") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", List("x" -> TRef("Ghost")), TUnit, List(
        ExprStmt(RemoteCall(Var("x"), "m2", Nil)),
      )),
    ))))
    assert(errorsOf(p).exists(_.contains("unknown class Ghost")))
  }

  test("remote call to missing method rejected") {
    val p = Program(List(
      cls("A", List(FunctionDef("m", List("b" -> TRef("B")), TUnit, List(
        ExprStmt(RemoteCall(Var("b"), "nope", Nil)))))),
      cls("B", Nil),
    ))
    assert(errorsOf(p).exists(_.contains("has no method nope")))
  }

  test("remote call arity and argument types checked") {
    val p = Program(List(
      cls("A", List(FunctionDef("m", List("b" -> TRef("B")), TUnit, List(
        ExprStmt(RemoteCall(Var("b"), "f", List(Const(str("x"))))))))),
      cls("B", List(FunctionDef("f", List("n" -> TInt), TUnit, Nil))),
    ))
    assert(errorsOf(p).exists(_.contains("expected int, got str")))
  }

  test("method call on non-entity type rejected") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", List("x" -> TInt), TUnit, List(
        ExprStmt(RemoteCall(Var("x"), "f", Nil)))),
    ))))
    assert(errorsOf(p).exists(_.contains("non-entity type")))
  }

  test("self-calls must target remote-free methods") {
    val p = Program(List(
      cls("A", List(
        FunctionDef("outer", Nil, TUnit, List(ExprStmt(SelfCall("inner", Nil)))),
        FunctionDef("inner", List(), TUnit, List(
          Assign("b", TRef("B"), Builtin("ref", List(Const(str("B")), Const(str("1"))))),
          ExprStmt(RemoteCall(Var("b"), "f", Nil)),
        )),
      )),
      cls("B", List(FunctionDef("f", Nil, TUnit, Nil))),
    ))
    assert(errorsOf(p).exists(_.contains("self-calls must be remote-free")))
  }

  test("transitive self-call remote-freedom (fixpoint)") {
    // a -> b -> c where c makes a remote call: neither a nor b is remote-free.
    val p = Program(List(
      cls("A", List(
        FunctionDef("a", Nil, TUnit, List(ExprStmt(SelfCall("b", Nil)))),
        FunctionDef("b", Nil, TUnit, List(ExprStmt(SelfCall("c", Nil)))),
        FunctionDef("c", Nil, TUnit, List(
          Assign("x", TRef("B"), Builtin("ref", List(Const(str("B")), Const(str("1"))))),
          ExprStmt(RemoteCall(Var("x"), "f", Nil)),
        )),
      )),
      cls("B", List(FunctionDef("f", Nil, TUnit, Nil))),
    ))
    TypeChecker.check(p) match {
      case Left(errs) =>
        // a and b self-call non-remote-free methods: both flagged.
        assert(errs.exists(_.toString.contains("A.a")))
        assert(errs.exists(_.toString.contains("A.b")))
      case Right(_) => fail("expected self-call errors")
    }
  }

  test("ref builtin requires a literal known class") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TUnit, List(
        Assign("x", TRef("Nope"), Builtin("ref", List(Const(str("Nope")), Const(str("1"))))),
      )),
    ))))
    assert(errorsOf(p).exists(_.contains("unknown class Nope")))
    // A class name held in a variable cannot type the reference.
    val q = Program(List(cls("A", List(
      FunctionDef("m", List("c" -> TStr), TUnit, List(
        Assign("x", TRef("A"), Builtin("ref", List(Var("c"), Const(str("1"))))),
      )),
    ))))
    assert(errorsOf(q).exists(_.contains("ref: no rule for (str, str)")))
  }

  // Builtin calls the checker once accepted and that then failed at run
  // time or gave a value of the wrong type, each with the error it now gets.
  private val xs = Const(list(TInt, int(1), int(2)))
  Seq[(String, FunctionDef, String)](
    ("append of a str to a List[int] field",
     FunctionDef("m", Nil, TUnit, List(SetField("xs", Builtin("append", List(FieldGet("xs"), Const(str("x"))))))),
     "append: no rule for (List[int], str)"),
    ("min(int, float) returned as int",
     FunctionDef("m", Nil, TInt, List(Return(Builtin("min", List(Const(int(3)), Const(dbl(0.5))))))),
     "return float, declared int"),
    ("ref with a variable class name",
     FunctionDef("m", List("c" -> TStr), TUnit, List(ExprStmt(Builtin("ref", List(Var("c"), Const(str("k"))))))),
     "ref: no rule for (str, str)"),
    ("len of an int",
     FunctionDef("m", Nil, TInt, List(Return(Builtin("len", List(Const(int(5))))))),
     "len: no rule for (int)"),
    ("len without arguments",
     FunctionDef("m", Nil, TInt, List(Return(Builtin("len", Nil)))),
     "len: no rule for ()"),
    ("get with a str index",
     FunctionDef("m", Nil, TInt, List(Return(Builtin("get", List(xs, Const(str("0"))))))),
     "get: no rule for (List[int], str)"),
    ("slice with a str bound",
     FunctionDef("m", Nil, TList(TInt), List(Return(Builtin("slice", List(xs, Const(str("a")), Const(int(1))))))),
     "slice: no rule for (List[int], str, int)"),
    ("range of a str",
     FunctionDef("m", Nil, TList(TInt), List(Return(Builtin("range", List(Const(str("3"))))))),
     "range: no rule for (str)"),
    ("min of two strs",
     FunctionDef("m", Nil, TStr, List(Return(Builtin("min", List(Const(str("a")), Const(str("b"))))))),
     "min: no rule for (str, str)"),
  ).foreach { case (what, fd, msg) =>
    test(s"builtin rules reject $what") {
      val p = Program(List(cls("A", List(fd), List(FieldDef("xs", TList(TInt), list(TInt))))))
      val errs = errorsOf(p)
      assert(errs.exists(_.contains(msg)), errs)
    }
  }

  test("a method that declares a result must return on every path") {
    def prog(body: List[Stmt]) = Program(List(cls("A", List(FunctionDef("m", List("x" -> TInt), TInt, body)))))
    val pos = BinOp(">", Var("x"), Const(int(0)))
    // if x > 0: return x   — falls through for x <= 0
    assert(errorsOf(prog(List(If(pos, List(Return(Var("x"))), Nil))))
      .exists(_.contains("A.m: not every path returns the declared int")))
    // a loop's body may run zero times
    assert(errorsOf(prog(List(While(pos, List(Return(Var("x")))))))
      .exists(_.contains("not every path returns")))
    assert(errorsOf(prog(List(ForEach("i", TInt, Builtin("range", List(Var("x"))), List(Return(Var("i")))))))
      .exists(_.contains("not every path returns")))
    // both branches return, or a return follows
    assert(TypeChecker.check(prog(List(If(pos, List(Return(Var("x"))), List(Return(Const(int(0)))))))).isRight)
    assert(TypeChecker.check(prog(List(If(pos, List(Return(Var("x"))), Nil), Return(Const(int(0)))))).isRight)
    // a procedure may fall through
    assert(TypeChecker.check(Program(List(cls("A", List(FunctionDef("p", Nil, TUnit, Nil)))))).isRight)
  }

  test("duplicate class and method names rejected") {
    val p1 = Program(List(cls("A", Nil), cls("A", Nil)))
    assert(errorsOf(p1).exists(_.contains("duplicate class")))
    val p2 = Program(List(cls("A", List(
      FunctionDef("m", Nil, TUnit, Nil), FunctionDef("m", Nil, TUnit, Nil)))))
    assert(errorsOf(p2).exists(_.contains("duplicate method")))
  }

  test("field default must match declared type") {
    val p = Program(List(ClassDef("A", "id",
      List(FieldDef("id", TStr, str("")), FieldDef("n", TInt, str("oops"))), Nil)))
    assert(errorsOf(p).exists(_.contains("default is str")))
  }

  test("a list constant's elements are checked against its element type, at any depth") {
    def errs(v: Value): List[String] = errorsOf(Program(List(cls("A", List(
      FunctionDef("m", Nil, TUnit, List(Assign("x", v.tpe, Const(v)))))))))
    assert(errs(VList(TInt, Vector(str("a")))).exists(_.contains("list element str in List[int]")))
    assert(errs(VList(TList(TInt), Vector(VList(TInt, Vector(int(1), bool(true))))))
      .exists(_.contains("list element bool in List[int]")))
    assert(errs(VList(TList(TInt), Vector(VList(TStr, Vector.empty))))
      .exists(_.contains("list element List[str] in List[List[int]]")))
    assert(errs(VList(TDouble, Vector(int(1), dbl(0.5)))).isEmpty, "an int element widens")
  }

  test("write sets: a field assigned in one if branch only makes a writer") {
    val p = Program(List(cls("A", List(
      FunctionDef("maybe", List("b" -> TBool), TUnit, List(
        If(Var("b"), List(SetField("n", Const(int(1)))), Nil))),
      FunctionDef("loop", Nil, TUnit, List(
        While(Const(bool(false)), List(SetField("m", Const(int(1))))))),
      FunctionDef("read", Nil, TInt, List(Return(FieldGet("n")))),
    ), fields = List(FieldDef("n", TInt, int(0)), FieldDef("m", TInt, int(0))))))
    val info = TypeChecker.checkOrThrow(p)
    assert(info.writes(("A", "maybe")) == Set("n"))
    assert(info.writes(("A", "loop")) == Set("m"))
    assert(info.writes(("A", "read")).isEmpty)
  }

  test("write sets: a method that writes only through self calls is a writer") {
    // outer -> mid -> set: only set assigns a field.
    val p = Program(List(cls("A", List(
      FunctionDef("outer", Nil, TInt, List(ExprStmt(SelfCall("mid", Nil)), Return(FieldGet("n")))),
      FunctionDef("mid", Nil, TUnit, List(ExprStmt(SelfCall("set", Nil)))),
      FunctionDef("set", Nil, TUnit, List(SetField("n", Const(int(1))))),
      FunctionDef("get", Nil, TInt, List(Return(FieldGet("n")))),
      FunctionDef("viaGet", Nil, TInt, List(Return(SelfCall("get", Nil)))),
    ), fields = List(FieldDef("n", TInt, int(0))))))
    val info = TypeChecker.checkOrThrow(p)
    assert(info.writes(("A", "outer")) == Set("n"))
    assert(info.writes(("A", "mid")) == Set("n"))
    assert(info.writes(("A", "viaGet")).isEmpty)
  }

  test("checkOrThrow throws with all diagnostics") {
    val p = Program(List(cls("A", List(
      FunctionDef("m", Nil, TInt, List(Return(Var("ghost")))),
    ))))
    val e = intercept[IllegalArgumentException](TypeChecker.checkOrThrow(p))
    assert(e.getMessage.contains("ghost"))
  }
}
