package repro

import java.sql.DriverManager
import repro.core.{Eval, Value}

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(got, sql, tables)`` loads ``tables`` into DuckDB
  * (via JDBC, in-process), runs ``sql`` over them and asserts the sorted
  * rows match ``got``. This catches wrong results from a runtime — "it ran"
  * is not "it is correct".
  *
  * Input cells are inserted as ``VARCHAR`` rendered by [[Eval.show]], so
  * the SQL casts numeric columns itself. Alias every output column as
  * ``got`` names it; only the set of names must match, case-insensitively.
  */
object Oracle {

  /** Rows with one [[Value]] per column. */
  final case class Table(cols: Seq[String], rows: Seq[Seq[Value]])

  /** One cell, as the comparison sees it: doubles to 6 decimals. */
  private def cell(x: Any): String = x match {
    case null                     => "∅"
    case Value.VDouble(d)         => f"$d%.6f"
    case v: Value                 => Eval.show(v)
    case d: Double                => f"$d%.6f"
    case f: Float                 => f"${f.toDouble}%.6f"
    case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
    case x                        => x.toString
  }

  private def canon(cols: Seq[String], rows: Seq[Seq[Any]]): Seq[Seq[String]] = {
    val idx = cols.sorted.map(cols.indexOf)
    rows.map(r => idx.map(i => cell(r(i)))).sortBy(_.mkString(""))
  }

  def assertEquivalent(got: Table, sql: String, tables: (String, Table)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, t) <- tables) {
        conn.createStatement.execute(
          s"CREATE TABLE $name (${t.cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${t.cols.map(_ => "?").mkString(",")})"
        )
        t.rows.foreach { r =>
          r.zipWithIndex.foreach { case (v, i) => ps.setString(i + 1, Eval.show(v)) }
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => (1 to dCols.size).map(r.getObject))
        .toSeq
      require(
        dCols.map(_.toLowerCase).toSet == got.cols.map(_.toLowerCase).toSet,
        s"column mismatch: got=${got.cols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val mine = canon(got.cols, got.rows)
      val exp  = canon(dCols, dRows)
      require(mine == exp,
        s"result mismatch (${mine.size} vs ${exp.size} rows):\n" +
        s"  first got-only:  ${mine.diff(exp).take(3)}\n" +
        s"  first duck-only: ${exp.diff(mine).take(3)}"
      )
    } finally conn.close()
  }
}
