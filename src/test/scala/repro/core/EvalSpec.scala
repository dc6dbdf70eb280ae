package repro.core

import repro.SparkSpec
import Ast._
import EType._
import Value._

/** The shared local-evaluation core (expressions + remote-free statements). */
class EvalSpec extends SparkSpec {

  /** Runs `body` as method `t` of class `T`, with `vars` bound as its
    * parameters, over `fields`. `T` declares the key `k`, the names of
    * `fields` and `declared`, and has the methods `methods` besides `t`.
    * Returns the flow and the variables and fields afterwards. */
  private def run(body: List[Stmt], vars: Map[String, Value] = Map.empty,
                  fields: Map[String, Value] = Map.empty, declared: List[String] = Nil,
                  methods: List[FunctionDef] = Nil): (Eval.Flow, Map[String, Value], Map[String, Value]) = {
    val names = ("k" :: fields.keys.toList ++ declared).distinct
    val cd = ClassDef("T", "k", names.map(FieldDef(_, TInfer, VUnit)),
      FunctionDef("t", vars.keys.toList.map(_ -> TInfer), TInfer, body) :: methods)
    val code = new Resolve.ClassSlots(cd, cd.methods).codes("t")
    val vs = code.vars.array(vars)
    val fs = cd.layout.array(fields)
    val flow = Eval.exec(code.fd.body, vs, fs, Eval.noRemote)
    (flow, code.vars.toMap(vs), cd.layout.toMap(fs))
  }

  private def ev(e: Expr, vars: Map[String, Value] = Map.empty,
                 fields: Map[String, Value] = Map.empty): Value =
    run(List(Return(e)), vars, fields)._1 match {
      case Eval.Returned(v) => v
      case Eval.FellThrough => fail("a return fell through")
    }

  test("integer arithmetic") {
    assert(ev(BinOp("+", Const(int(2)), Const(int(3)))) == int(5))
    assert(ev(BinOp("-", Const(int(2)), Const(int(3)))) == int(-1))
    assert(ev(BinOp("*", Const(int(4)), Const(int(3)))) == int(12))
    assert(ev(BinOp("%", Const(int(7)), Const(int(3)))) == int(1))
    assert(ev(BinOp("//", Const(int(7)), Const(int(2)))) == int(3))
  }

  test("python-style floor semantics on negatives") {
    assert(ev(BinOp("//", Const(int(-7)), Const(int(2)))) == int(-4))
    assert(ev(BinOp("%", Const(int(-7)), Const(int(3)))) == int(2))
  }

  test("true division always yields float") {
    assert(ev(BinOp("/", Const(int(7)), Const(int(2)))) == dbl(3.5))
  }

  test("mixed int/float promotes to float") {
    assert(ev(BinOp("+", Const(int(1)), Const(dbl(0.5)))) == dbl(1.5))
    assert(ev(BinOp("*", Const(dbl(2.5)), Const(int(2)))) == dbl(5.0))
  }

  test("string and list concatenation via +") {
    assert(ev(BinOp("+", Const(str("ab")), Const(str("cd")))) == str("abcd"))
    assert(ev(BinOp("+", Const(list(TInt, int(1))), Const(list(TInt, int(2))))) ==
      list(TInt, int(1), int(2)))
  }

  test("comparisons, numeric and string") {
    assert(ev(BinOp("<", Const(int(1)), Const(int(2)))) == bool(true))
    assert(ev(BinOp(">=", Const(dbl(2.0)), Const(int(2)))) == bool(true))
    assert(ev(BinOp("<", Const(str("a")), Const(str("b")))) == bool(true))
  }

  test("equality is structural") {
    assert(ev(BinOp("==", Const(list(TInt, int(1))), Const(list(TInt, int(1))))) == bool(true))
    assert(ev(BinOp("!=", Const(ref("A", "1")), Const(ref("A", "2")))) == bool(true))
  }

  test("short-circuit and/or") {
    // The right side would throw (unbound var) if evaluated.
    assert(ev(BinOp("and", Const(bool(false)), Var("nope"))) == bool(false))
    assert(ev(BinOp("or", Const(bool(true)), Var("nope"))) == bool(true))
  }

  test("not and neg") {
    assert(ev(Not(Const(bool(true)))) == bool(false))
    assert(ev(Neg(Const(int(5)))) == int(-5))
    assert(ev(Neg(Const(dbl(2.5)))) == dbl(-2.5))
  }

  test("vars and fields resolve; unbound throws") {
    assert(ev(Var("x"), vars = Map("x" -> int(9))) == int(9))
    assert(ev(FieldGet("f"), fields = Map("f" -> str("v"))) == str("v"))
    intercept[NoSuchElementException](ev(Var("missing")))
    intercept[NoSuchElementException](ev(FieldGet("missing")))
  }

  test("reading a slot never assigned throws NoSuchElementException naming it") {
    val v = intercept[NoSuchElementException](run(List(Assign("y", TInt, Const(int(1))), Return(Var("x")))))
    assert(v.getMessage.contains("x"))
    // `f` is declared, so it has a slot, but the state binds no value to it.
    val f = intercept[NoSuchElementException](run(List(Return(FieldGet("f"))), declared = List("f")))
    assert(f.getMessage.contains("f"))
  }

  test("a variable assigned in one if branch is read after the join") {
    val body = List(
      If(Var("c"), List(Assign("x", TInt, Const(int(1)))), Nil),
      Return(Var("x")),
    )
    assert(run(body, vars = Map("c" -> bool(true)))._1 == Eval.Returned(int(1)))
    val e = intercept[NoSuchElementException](run(body, vars = Map("c" -> bool(false))))
    assert(e.getMessage.contains("unbound var x"))
  }

  test("a self call runs in its own variables and leaves the caller's slots unchanged") {
    // `inner` has its own `x` and `y`; the caller's `x` and `z` keep their values.
    val inner = FunctionDef("inner", List("x" -> TInt), TInt, List(
      Assign("y", TInt, BinOp("*", Var("x"), Const(int(10)))),
      SetVar("x", Const(int(-1))),
      Return(Var("y")),
    ))
    val (flow, vars, _) = run(List(
      Assign("x", TInt, Const(int(4))),
      Assign("z", TInt, SelfCall("inner", List(Var("x")))),
      Return(BinOp("+", Var("x"), Var("z"))),
    ), methods = List(inner))
    assert(flow == Eval.Returned(int(44)))
    assert(vars == Map("x" -> int(4), "z" -> int(40)))
  }

  test("builtins: len/get/append/concat/contains/slice") {
    val xs = list(TInt, int(10), int(20), int(30))
    assert(Eval.builtin("len", List(xs)) == int(3))
    assert(Eval.builtin("len", List(str("abcd"))) == int(4))
    assert(Eval.builtin("get", List(xs, int(1))) == int(20))
    assert(Eval.builtin("append", List(xs, int(40))).asList.size == 4)
    assert(Eval.builtin("contains", List(xs, int(20))) == bool(true))
    assert(Eval.builtin("contains", List(xs, int(99))) == bool(false))
    assert(Eval.builtin("slice", List(xs, int(0), int(2))) == list(TInt, int(10), int(20)))
  }

  test("builtins: min/max/abs/str/int/range/sqrt") {
    assert(Eval.builtin("min", List(int(3), int(5))) == int(3))
    assert(Eval.builtin("max", List(dbl(3.5), int(5))) == int(5))
    assert(Eval.builtin("abs", List(int(-3))) == int(3))
    assert(Eval.builtin("str", List(int(42))) == str("42"))
    assert(Eval.builtin("int", List(str("17"))) == int(17))
    assert(Eval.builtin("int", List(dbl(3.9))) == int(3))
    assert(Eval.builtin("range", List(int(3))) == list(TInt, int(0), int(1), int(2)))
    assert(Eval.builtin("sqrt", List(int(9))) == dbl(3.0))
  }

  test("builtins: ref construction and refkey") {
    assert(Eval.builtin("ref", List(str("Hotel"), int(7))) == ref("Hotel", "7"))
    assert(Eval.builtin("refkey", List(ref("Hotel", "7"))) == str("7"))
  }

  test("unknown builtin throws with diagnostics") {
    val e = intercept[IllegalArgumentException](Eval.builtin("frobnicate", List(int(1))))
    assert(e.getMessage.contains("frobnicate"))
  }

  test("exec: assignment, reassignment, field mutation") {
    val (flow, vars, fields) = run(List(
      Assign("x", TInt, Const(int(1))),
      SetVar("x", BinOp("+", Var("x"), Const(int(1)))),
      SetField("bal", BinOp("+", FieldGet("bal"), Var("x"))),
    ), fields = Map("bal" -> int(10)))
    assert(flow == Eval.FellThrough)
    assert(vars("x") == int(2))
    assert(fields("bal") == int(12))
  }

  test("exec: if takes correct branch and returns propagate") {
    val (flow, _, _) = run(List(
      If(BinOp(">", Var("a"), Const(int(3))),
        List(Return(Const(str("big")))),
        List(Return(Const(str("small"))))),
    ), vars = Map("a" -> int(5)))
    assert(flow == Eval.Returned(str("big")))
  }

  test("exec: for-loop accumulates and early return exits loop") {
    val body = List(
      Assign("sum", TInt, Const(int(0))),
      ForEach("i", TInt, Builtin("range", List(Const(int(10)))), List(
        SetVar("sum", BinOp("+", Var("sum"), Var("i"))),
        If(BinOp("==", Var("i"), Const(int(4))), List(Return(Var("sum"))), Nil),
      )),
      Return(Const(int(-1))),
    )
    assert(run(body)._1 == Eval.Returned(int(10))) // 0+1+2+3+4
  }

  test("exec: while loop") {
    val body = List(
      Assign("n", TInt, Const(int(1))),
      While(BinOp("<", Var("n"), Const(int(100))), List(
        SetVar("n", BinOp("*", Var("n"), Const(int(2)))),
      )),
      Return(Var("n")),
    )
    assert(run(body)._1 == Eval.Returned(int(128)))
  }

  test("remote call in remote-free context throws") {
    intercept[IllegalStateException] {
      ev(RemoteCall(Const(ref("X", "1")), "m", Nil))
    }
  }

  test("self-call executes inline against same fields") {
    val bump = FunctionDef("bump", List("by" -> TInt), TInt, List(
      SetField("n", BinOp("+", FieldGet("n"), Var("by"))),
      Return(FieldGet("n")),
    ))
    val (out, _, fields) = run(List(Return(SelfCall("bump", List(Const(int(3)))))),
      fields = Map("k" -> str("x"), "n" -> int(5)), methods = List(bump))
    assert(out == Eval.Returned(int(8)))
    assert(fields("n") == int(8))
  }

  test("show renders values human-readably") {
    assert(Eval.show(list(TInt, int(1), int(2))) == "[1, 2]")
    assert(Eval.show(ref("User", "u1")) == "User:u1")
    assert(Eval.show(VUnit) == "None")
  }
}
