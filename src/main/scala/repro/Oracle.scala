package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import scala.jdk.CollectionConverters._

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``, numbers to within 1e-6. This catches wrong results
  * from a rewritten plan or a custom operator ("it ran" is not "it is correct").
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Any]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                => "∅"
          // one numeric type: Spark may return DOUBLE where DuckDB returns
          // HUGEINT/DECIMAL (e.g. SUM over BIGINT) and vice versa
          case n: java.lang.Number => n.doubleValue
          case x                   => x.toString
        }
      })
      // the two sides pair up on numbers rounded to 6 decimals
      .sortBy(_.map { case d: Double => f"$d%.6f"; case x => x }.mkString("\u0001"))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
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
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      // doubles equal up to summation order can differ in their last bits
      val differ = got.zipAll(exp, Nil, Nil).filterNot { case (g, e) =>
        g.size == e.size && g.zip(e).forall {
          case (x: Double, y: Double) => math.abs(x - y) <= 1e-6 || (x.isNaN && y.isNaN)
          case (x, y)                 => x == y
        }
      }
      require(differ.isEmpty,
        s"result mismatch (${got.size} vs ${exp.size} rows), first differing (spark, duckdb) rows:\n" +
        s"  ${differ.take(3)}")
    } finally conn.close()
  }
}
