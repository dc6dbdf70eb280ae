package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle.Table
import repro.core.Value._

/** The oracle itself: it must reject a wrong or missing row, and accept
  * doubles that differ only past the 6th decimal. */
class OracleSpec extends AnyFunSuite {

  private val log = Table(Seq("key", "amount"),
    Seq(Seq(str("a"), int(1)), Seq(str("a"), int(2)), Seq(str("b"), int(5))))
  private val sql = "SELECT key, SUM(CAST(amount AS BIGINT)) AS balance FROM log GROUP BY key"

  private def balances(rows: (String, Int)*): Table =
    Table(Seq("key", "balance"), rows.map { case (k, b) => Seq(str(k), int(b)) })

  test("oracle rejects a row whose value is off by one") {
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(balances("a" -> 3, "b" -> 6), sql, "log" -> log))
    assert(e.getMessage.contains("result mismatch"))
  }

  test("oracle rejects a missing row") {
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(balances("a" -> 3), sql, "log" -> log))
    assert(e.getMessage.contains("result mismatch (1 vs 2 rows)"))
  }

  test("oracle ignores double differences past the 6th decimal") {
    Oracle.assertEquivalent(
      Table(Seq("x"), Seq(Seq(dbl(2.5000001)))),
      "SELECT CAST(x AS DOUBLE) AS x FROM t",
      "t" -> Table(Seq("x"), Seq(Seq(dbl(2.5000004)))))
  }
}
