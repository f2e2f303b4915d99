package repro

/** The DuckDB oracle pairs rows up by sorting them and compares numbers to
  * within 1e-6: doubles that differ only by summation order match, also
  * across a 6-decimal rounding boundary, and a real difference still fails.
  */
class OracleSpec extends SparkSpec {
  private def frame(rows: (String, Double)*) = spark.createDataFrame(rows).toDF("k", "v")
  private val Exact = "SELECT * FROM (VALUES ('a', 101.1090625::DOUBLE), ('b', 7.0::DOUBLE)) t(k, v)"

  test("doubles a few ulps apart match across a 6-decimal rounding boundary") {
    // q93's AVG(act) under delta-RS/Tempura/IVM at t1: the exact average is
    // 101.1090625, and the multiplicity-weighted one lands just below it
    val below = 101.1090625 - 3e-14
    assert(f"$below%.6f" == "101.109062" && f"${101.1090625}%.6f" == "101.109063")
    Oracle.assertEquivalent(frame("b" -> 7.0, "a" -> below), Exact)
  }

  test("a number off by 1e-4 fails") {
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(frame("a" -> 101.1091625, "b" -> 7.0), Exact))
    assert(e.getMessage.contains("result mismatch"))
  }

  test("a missing row fails") {
    intercept[IllegalArgumentException](Oracle.assertEquivalent(frame("a" -> 101.1090625), Exact))
  }
}
