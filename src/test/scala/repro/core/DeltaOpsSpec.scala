package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.core.algebra._
import repro.core.tvr.{Delta, DeltaOps, Plans}
import repro.queries.RunningExample._

/** Incremental-vs-batch equivalence of every delta operator, across
  * append-only and retraction arrival patterns. Each test maintains the
  * operator output across time steps with DeltaOps and oracle-checks the
  * final snapshot against batch SQL on the full data in DuckDB.
  */
class DeltaOpsSpec extends SparkSpec {
  private val sk = Seq("s_oid")
  private val rk = Seq("r_oid")
  private val rCols = returnsScan.cols

  private def sd(rows: Seq[(Long, String, Double)]): LogicalPlan =
    Plans.of(Delta.attach(salesDf(spark, rows)))
  private def rd(rows: Seq[(Long, Double)]): LogicalPlan =
    Plans.of(Delta.attach(returnsDf(spark, rows)))
  /** A plan as a frame, analysed once. */
  private def df(p: LogicalPlan): DataFrame = Plans.frame(spark, p)
  /** Bag union of a delta and the retraction of `retracted`. */
  private def minus(d: LogicalPlan, retracted: LogicalPlan): LogicalPlan =
    Delta.unionAll(Seq(d, Delta.negate(retracted)))

  /** Oracle-check an incrementally maintained snapshot against batch SQL. */
  private def oracleCheck(incr: LogicalPlan, q: RelOp, sNew: LogicalPlan, rNew: LogicalPlan): Unit =
    Oracle.assertEquivalent(
      df(Delta.expand(incr)), q.toSql,
      "sales" -> df(Delta.expand(sNew)), "returns" -> df(Delta.expand(rNew)))

  test("delta filter and project are linear") {
    val d1 = sd(salesT1); val d2 = sd(salesT2)
    val q = FilterOp(salesScan, Cmp(">", Col("s_price"), Lit(120.0)))
    val oldOut = DeltaOps.filter(d1, q.asInstanceOf[FilterOp].pred)
    val dOut = DeltaOps.filter(d2, q.asInstanceOf[FilterOp].pred)
    Oracle.assertEquivalent(
      df(Delta.expand(Delta.merge(oldOut, dOut))), q.toSql,
      "sales" -> df(Delta.expand(Delta.merge(d1, d2))))

    val p = ProjectOp(salesScan, Seq("cat" -> Col("s_cat"), "x2" -> Arith("*", Col("s_price"), Lit(2.0))))
    val pOld = DeltaOps.project(d1, p.exprs)
    val pD = DeltaOps.project(d2, p.exprs)
    Oracle.assertEquivalent(
      df(Delta.expand(Delta.merge(pOld, pD))), p.toSql,
      "sales" -> df(Delta.expand(Delta.merge(d1, d2))))
  }

  test("delta inner join, append-only") {
    val (s1, s2, r1, r2) = (sd(salesT1), sd(salesT2), rd(returnsT1), rd(returnsT2))
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val q = JoinOp(salesScan, returnsScan, Inner, sk, rk)
    val oldOut = DeltaOps.joinInner(s1, r1, sk, rk)
    val d = DeltaOps.deltaInnerJoin(s1, s2, rNew, r2, sk, rk)
    oracleCheck(Delta.merge(oldOut, d), q, sNew, rNew)
  }

  test("delta inner join with retractions on both sides") {
    val s1 = sd(salesT1); val r1 = rd(returnsT1 :+ (3L, 5.0))
    // retract o2's sale and o3's return, insert new rows
    val s2 = minus(sd(salesT2), sd(Seq((2L, "c2", 150.0))))
    val r2 = minus(rd(returnsT2), rd(Seq((3L, 5.0))))
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val q = JoinOp(salesScan, returnsScan, Inner, sk, rk)
    val oldOut = DeltaOps.joinInner(s1, r1, sk, rk)
    val d = DeltaOps.deltaInnerJoin(s1, s2, rNew, r2, sk, rk)
    oracleCheck(Delta.merge(oldOut, d), q, sNew, rNew)
  }

  test("delta left outer join, append-only (late-arriving return retracts padding)") {
    val (s1, s2, r1, r2) = (sd(salesT1), sd(salesT2), rd(returnsT1), rd(returnsT2))
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val oldOut = DeltaOps.joinLeftOuterSnap(s1, r1, sk, rk, rCols)
    val d = DeltaOps.deltaLeftOuter(s1, s2, r1, r2, rNew, sk, rk, rCols)
    // the o2 padded row from t1 must be retracted at t2 (shaded tuple, Fig 1(c))
    val retracted = df(d).filter(col("s_oid") === 2L && col("r_cost").isNull && col(Delta.MULT) === -1L)
    assert(retracted.count() == 1, "expected exactly one padding retraction for o2")
    oracleCheck(Delta.merge(oldOut, d), salesStatus, sNew, rNew)
  }

  test("delta left outer join with sales retraction") {
    val (s1, r1) = (sd(salesT1), rd(returnsT1))
    val s2 = minus(sd(salesT2), sd(Seq((3L, "c1", 120.0))))
    val r2 = rd(returnsT2)
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val oldOut = DeltaOps.joinLeftOuterSnap(s1, r1, sk, rk, rCols)
    val d = DeltaOps.deltaLeftOuter(s1, s2, r1, r2, rNew, sk, rk, rCols)
    oracleCheck(Delta.merge(oldOut, d), salesStatus, sNew, rNew)
  }

  test("delta left outer join with returns retraction (padding restored)") {
    val (s1, r1) = (sd(salesT1), rd(returnsT1))
    // o1's only return is retracted: (o1, null) padding must come back
    val s2 = sd(salesT2)
    val r2 = minus(rd(returnsT2), rd(Seq((1L, 10.0))))
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val oldOut = DeltaOps.joinLeftOuterSnap(s1, r1, sk, rk, rCols)
    val d = DeltaOps.deltaLeftOuter(s1, s2, r1, r2, rNew, sk, rk, rCols)
    val restored = df(d).filter(col("s_oid") === 1L && col("r_cost").isNull && col(Delta.MULT) === 1L)
    assert(restored.count() == 1, "expected padding restoration for o1")
    oracleCheck(Delta.merge(oldOut, d), salesStatus, sNew, rNew)
  }

  test("delta left outer join with duplicate returns per key") {
    val (s1, r1) = (sd(salesT1), rd(returnsT1 :+ (1L, 3.0) :+ (1L, 3.0)))
    val s2 = sd(salesT2)
    val r2 = minus(rd(returnsT2 :+ (6L, 2.0)), rd(Seq((1L, 3.0))))
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val oldOut = DeltaOps.joinLeftOuterSnap(s1, r1, sk, rk, rCols)
    val d = DeltaOps.deltaLeftOuter(s1, s2, r1, r2, rNew, sk, rk, rCols)
    oracleCheck(Delta.merge(oldOut, d), salesStatus, sNew, rNew)
  }

  test("delta left semi join, append and retraction") {
    val (s1, r1) = (sd(salesT1), rd(returnsT1))
    val s2 = sd(salesT2)
    val r2 = minus(rd(returnsT2), rd(Seq((1L, 10.0))))
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val q = JoinOp(salesScan, returnsScan, LeftSemi, sk, rk)
    val oldOut = DeltaOps.semiSnap(s1, r1, sk, rk)
    val d = DeltaOps.deltaSemi(s1, s2, r1, r2, rNew, sk, rk)
    oracleCheck(Delta.merge(oldOut, d), q, sNew, rNew)
  }

  test("delta left anti join, append and retraction") {
    val (s1, r1) = (sd(salesT1), rd(returnsT1))
    val s2 = sd(salesT2)
    val r2 = minus(rd(returnsT2), rd(Seq((1L, 10.0))))
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val q = JoinOp(salesScan, returnsScan, LeftAnti, sk, rk)
    val oldOut = DeltaOps.antiSnap(s1, r1, sk, rk)
    val d = DeltaOps.deltaAnti(s1, s2, r1, r2, rNew, sk, rk)
    oracleCheck(Delta.merge(oldOut, d), q, sNew, rNew)
  }

  test("aggregate states: SUM over null-aware expression (summary query)") {
    val (s1, s2, r1, r2) = (sd(salesT1), sd(salesT2), rd(returnsT1), rd(returnsT2))
    val (sNew, rNew) = (Delta.merge(s1, s2), Delta.merge(r1, r2))
    val agg = summary.asInstanceOf[AggOp]
    val out1 = DeltaOps.joinLeftOuterSnap(s1, r1, sk, rk, rCols)
    val dOut = DeltaOps.deltaLeftOuter(s1, s2, r1, r2, rNew, sk, rk, rCols)
    val st1 = DeltaOps.partialAgg(out1, agg.groupKeys, agg.aggs)
    val dSt = DeltaOps.partialAgg(dOut, agg.groupKeys, agg.aggs)
    val merged = DeltaOps.mergeStates(Seq(st1, dSt), agg.groupKeys, agg.aggs)
    val fin = DeltaOps.finalAgg(merged, agg.groupKeys, agg.aggs)
    oracleCheck(fin, summary, sNew, rNew)
  }

  test("aggregate states: COUNT, COUNT(*), AVG and disappearing groups") {
    val aggs = Seq(
      AggCall(CountF, Some(Col("s_price")), "n"),
      AggCall(CountStarF, None, "nstar"),
      AggCall(AvgF, Some(Col("s_price")), "avg_p"),
      AggCall(SumF, Some(Col("s_price")), "sum_p"))
    val q = AggOp(salesScan, Seq("s_cat"), aggs)
    val s1 = sd(Seq((1L, "c1", 100.0), (2L, "c2", 150.0), (3L, "c2", 50.0)))
    // retract every c2 row: the c2 group must vanish from the final snapshot
    val s2 = minus(sd(Seq((4L, "c1", 70.0))), sd(Seq((2L, "c2", 150.0), (3L, "c2", 50.0))))
    val sNew = Delta.merge(s1, s2)
    val st1 = DeltaOps.partialAgg(s1, q.groupKeys, q.aggs)
    val dSt = DeltaOps.partialAgg(s2, q.groupKeys, q.aggs)
    val merged = DeltaOps.mergeStates(Seq(st1, dSt), q.groupKeys, q.aggs)
    val fin = DeltaOps.finalAgg(merged, q.groupKeys, q.aggs)
    assert(df(fin).filter(col("s_cat") === "c2").count() == 0, "c2 group must disappear")
    Oracle.assertEquivalent(df(Delta.expand(fin)), q.toSql, "sales" -> df(Delta.expand(sNew)))
  }

  test("SUM over all-null group yields NULL, not zero") {
    val q = AggOp(salesStatus, Seq("s_cat"), Seq(AggCall(SumF, Some(Col("r_cost")), "c")))
    val (s1, r1) = (sd(salesT1), rd(Seq.empty))
    val out = DeltaOps.joinLeftOuterSnap(s1, r1, sk, rk, rCols)
    val st = DeltaOps.partialAgg(out, Seq("s_cat"), q.asInstanceOf[AggOp].aggs)
    val fin = DeltaOps.finalAgg(st, Seq("s_cat"), q.asInstanceOf[AggOp].aggs)
    assert(df(fin).filter(col("c").isNotNull).count() == 0)
  }

  test("three chained time steps maintain the outer join") {
    val deltasS = Seq(sd(salesT1), sd(salesT2), sd(Seq((8L, "c3", 10.0))))
    val deltasR = Seq(rd(returnsT1), rd(returnsT2), rd(Seq((8L, 1.0), (5L, 30.0))))
    var sCur = deltasS.head; var rCur = deltasR.head
    var out = DeltaOps.joinLeftOuterSnap(sCur, rCur, sk, rk, rCols)
    for (i <- 1 until 3) {
      val rNew = Delta.merge(rCur, deltasR(i))
      val d = DeltaOps.deltaLeftOuter(sCur, deltasS(i), rCur, deltasR(i), rNew, sk, rk, rCols)
      out = Delta.merge(out, d)
      sCur = Delta.merge(sCur, deltasS(i)); rCur = rNew
    }
    oracleCheck(out, salesStatus, sCur, rCur)
  }

  // as in the executor, the previous snapshots of L, R and Q are saved
  // states (persisted frames), so no step re-plans the steps before it
  test("OJV delta over three steps with appends and returns retractions reconstructs the outer join") {
    def saved(p: LogicalPlan): LogicalPlan = Plans.of(df(p).persist())
    val deltasS = Seq(sd(salesT1), sd(salesT2), sd(Seq((8L, "c3", 10.0))))
    // t2: o1's only return is retracted (its padding comes back) and o2's
    // first return arrives (its padding goes); t3: o1 is returned again,
    // o2's return is retracted, o6 gets a second return
    val deltasR = Seq(rd(returnsT1),
      minus(rd(returnsT2), rd(Seq((1L, 10.0)))),
      minus(rd(Seq((8L, 1.0), (1L, 4.0), (6L, 3.0))), rd(Seq((2L, 20.0)))))
    var sCur = deltasS.head; var rCur = deltasR.head
    var q = saved(DeltaOps.joinLeftOuterSnap(sCur, rCur, sk, rk, rCols))
    try for (i <- 1 until 3) {
      q = saved(Delta.merge(q, DeltaOps.ojvDelta(sCur, deltasS(i), rCur, deltasR(i), q, sk, rk, rCols)))
      sCur = saved(Delta.merge(sCur, deltasS(i))); rCur = saved(Delta.merge(rCur, deltasR(i)))
      oracleCheck(q, salesStatus, sCur, rCur)
    } finally spark.catalog.clearCache()
  }

  test("empty deltas are no-ops") {
    val (s1, r1) = (sd(salesT1), rd(returnsT1))
    val (s2, r2) = (Delta.empty(s1), Delta.empty(r1))
    val d = DeltaOps.deltaLeftOuter(s1, s2, r1, r2, r1, sk, rk, rCols)
    assert(df(Delta.collapse(d)).count() == 0)
  }

  test("merge operator laws: collapse idempotent, merge associative on samples") {
    val a = sd(salesT1); val b = sd(salesT2); val c = Delta.negate(sd(Seq((1L, "c1", 100.0))))
    def bag(p: LogicalPlan): Set[(Long, String, Double, Long)] =
      df(Delta.collapse(p)).collect().map(r =>
        (r.getLong(0), r.getString(1), r.getDouble(2), r.getLong(3))).toSet
    assert(bag(Delta.collapse(Delta.collapse(a))) == bag(Delta.collapse(a)))
    assert(bag(Delta.merge(Delta.merge(a, b), c)) == bag(Delta.merge(a, Delta.merge(b, c))))
  }
}
