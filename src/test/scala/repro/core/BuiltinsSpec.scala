package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import Ast._
import EType._
import Value._

/** The builtin table: the checker's rules and the evaluator's
  * implementations agree. A call the checker accepts under some declared
  * type runs in the `Interpreter` to a value of that type. */
class BuiltinsSpec extends SparkSpec with PropSupport {

  /** Constants of every user-visible `EType` (`TInfer` is compiler-internal
    * and has no values), and lists of each. Ints are 0 or 1 and every list
    * holds two elements, so `get` stays in range; the string is a numeral,
    * so `int` parses it. An index out of range or a non-numeral is a value
    * error that no type rule can see. One `List[float]` holds an int, which
    * widening admits. */
  private val scalars: List[Value] =
    List(int(0), int(1), dbl(0.5), dbl(2.0), bool(true), str("7"), VUnit, ref("A", "a1"))
  private val consts: List[Value] =
    scalars ++ scalars.groupBy(_.tpe).toList.sortBy(_._1.render).map { case (t, vs) =>
      VList(t, Vector(vs.head, vs.last))
    } ++ List(
      VList(TDouble, Vector(int(1), dbl(0.5))),
      VList(TList(TInt), Vector(list(TInt, int(0), int(1)), list(TInt, int(1)))),
    )

  /** Every type a call could be declared to return. */
  private val declarable: List[EType] = consts.map(_.tpe).distinct

  private def method(ret: EType, call: Expr): Program = Program(List(ClassDef("A", "id",
    List(FieldDef("id", TStr, str(""))), List(FunctionDef("m", Nil, ret, List(Return(call)))))))

  /** `v` is a value of type `t`, list elements included. */
  private def conforms(t: EType, v: Value): Boolean = (t, v) match {
    case (TList(e), VList(ve, items)) => typesMatch(e, ve) && items.forall(conforms(e, _))
    case _                            => typesMatch(t, v.tpe)
  }

  private val names: List[String] = Builtins.table.keys.toList.sorted

  private val genCall: Gen[Builtin] = for {
    name <- Gen.oneOf(names)
    n <- Gen.chooseNum(0, 3)
    args <- Gen.listOfN(n, Gen.oneOf(consts))
  } yield Builtin(name, args.map(Const.apply))

  /** The declared types under which the checker accepts `return call`. */
  private def accepted(call: Expr): List[EType] =
    declarable.filter(t => TypeChecker.check(method(t, call)).isRight)

  test("property: a builtin call the checker accepts runs to a value of the declared type") {
    checkProp(Prop.forAll(genCall) { call =>
      Prop.all(accepted(call).map { t =>
        val v = new Interpreter(method(t, call)).invoke("A", "a1", "m", Nil)
        Prop(conforms(t, v)) :| s"$call declared ${t.render} gave $v"
      }: _*)
    }, minSuccessful = 1000)
  }

  test("the constants reach an accepted call of every builtin but ref") {
    // ref is typed only from a literal class name (TypeCheckerSpec).
    def argLists(n: Int): Iterator[List[Value]] =
      if (n == 0) Iterator(Nil) else argLists(n - 1).flatMap(as => consts.iterator.map(_ :: as))
    names.filter(_ != "ref").foreach { name =>
      val calls = (0 to 3).iterator.flatMap(argLists).map(as => Builtin(name, as.map(Const.apply)))
      assert(calls.exists(accepted(_).nonEmpty), name)
    }
  }
}
