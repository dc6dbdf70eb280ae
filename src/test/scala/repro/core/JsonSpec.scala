package repro.core

import org.scalacheck.{Arbitrary, Gen, Prop}
import repro.{PropSupport, SparkSpec}

/** JSON substrate: renderer/parser pair used by every wire format. */
class JsonSpec extends SparkSpec with PropSupport {
  import Json._

  test("render/parse primitives") {
    assert(parse("42") == JInt(42))
    assert(parse("-7") == JInt(-7))
    assert(parse("3.5") == JNum(3.5))
    assert(parse("true") == JBool(true))
    assert(parse("false") == JBool(false))
    assert(parse("null") == JNull)
    assert(parse("\"hi\"") == JStr("hi"))
  }

  test("string escapes round-trip") {
    val s = "a\"b\\c\nd\te\rf\u0001g"
    assert(parse(render(JStr(s))) == JStr(s))
  }

  test("unicode escape parses") {
    assert(parse("\"\\u0041\"") == JStr("A"))
  }

  test("empty containers") {
    assert(parse("[]") == JArr(Vector.empty))
    assert(parse("{}") == JObj(Vector.empty))
    assert(render(JArr(Vector.empty)) == "[]")
    assert(render(JObj(Vector.empty)) == "{}")
  }

  test("nested structure round-trips") {
    val j = JObj.of(
      "a" -> JArr(Vector(JInt(1), JStr("x"), JNull)),
      "b" -> JObj.of("c" -> JBool(true)),
    )
    assert(parse(render(j)) == j)
  }

  test("whitespace tolerated") {
    assert(parse(" { \"a\" : [ 1 , 2 ] } ") == JObj.of("a" -> JArr(Vector(JInt(1), JInt(2)))))
  }

  test("trailing garbage rejected") {
    intercept[IllegalArgumentException](parse("1 2"))
  }

  test("truncated input is a parse error") {
    for (in <- List("\"abc", "[", "{", "\"\\u00", "{\"a\":1"))
      withClue(in)(intercept[IllegalArgumentException](parse(in)))
  }

  test("object field order preserved by render") {
    val j = JObj(Vector("z" -> JInt(1), "a" -> JInt(2)))
    assert(render(j) == "{\"z\":1,\"a\":2}")
  }

  test("large longs survive") {
    val v = Long.MaxValue
    assert(parse(render(JInt(v))) == JInt(v))
    assert(parse(render(JInt(Long.MinValue))) == JInt(Long.MinValue))
  }

  test("doubles render with decimal point and round-trip") {
    assert(parse(render(JNum(2.0))) == JNum(2.0))
    assert(parse(render(JNum(0.1))) == JNum(0.1))
    assert(parse(render(JNum(-1.5e-8))) == JNum(-1.5e-8))
  }

  private val genJson: Gen[J] = {
    val leaf: Gen[J] = Gen.oneOf(
      Gen.long.map(JInt.apply),
      Arbitrary.arbitrary[Double].suchThat(d => !d.isNaN && !d.isInfinite).map(JNum.apply),
      Gen.asciiPrintableStr.map(JStr.apply),
      Gen.oneOf(JBool(true), JBool(false), JNull),
    )
    def level(depth: Int): Gen[J] =
      if (depth == 0) leaf
      else Gen.frequency(
        3 -> leaf,
        1 -> Gen.listOfN(3, level(depth - 1)).map(xs => JArr(xs.toVector)),
        1 -> Gen.listOfN(3, Gen.zip(Gen.identifier, level(depth - 1)))
          .map(fs => JObj(fs.toVector)),
      )
    level(3)
  }

  test("property: arbitrary JSON round-trips through render/parse") {
    checkProp(Prop.forAll(genJson) { j => parse(render(j)) == j })
  }
}
