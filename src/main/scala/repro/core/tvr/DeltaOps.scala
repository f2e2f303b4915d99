package repro.core.tvr

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.SparkScope
import repro.core.algebra._
import Delta.MULT

/** Runtime incremental operators over delta-encoded DataFrames.
  *
  * These are the physical counterparts of the TVR-generating rules (§4.1):
  * given snapshots and deltas of the inputs, compute the delta of the
  * operator's output. All joins are equi-joins; multiplicities multiply
  * through joins (bag semantics), which makes the bilinear inner-join delta
  * rule `Δ(L⋈R) = ΔL⋈R_new + L_old⋈ΔR` sign-correct for retractions too.
  *
  * Left-outer/semi/anti deltas additionally need *key-count transition
  * analysis* on the right input: a right key whose total multiplicity
  * crosses zero flips the membership/padding of every matching left row.
  */
object DeltaOps {
  import Delta.{attach, unionAll, keyCond}

  private def sparkType(t: ColType): String = t match {
    case TLong => "bigint"; case TDouble => "double"
    case TString => "string"; case TDate => "date"
  }

  /** Inner join; multiplicities multiply. */
  def joinInner(l: DataFrame, r: DataFrame, lk: Seq[String], rk: Seq[String]): DataFrame = {
    val ld = attach(l).withColumnRenamed(MULT, "__lm")
    val rd = attach(r).withColumnRenamed(MULT, "__rm")
    val lCols = Delta.dataCols(l)
    val rCols = Delta.dataCols(r)
    ld.join(rd, keyCond(ld, lk, rd, rk), "inner")
      .select(lCols.map(ld(_)) ++ rCols.map(rd(_)) :+ (ld("__lm") * rd("__rm")).as(MULT): _*)
  }

  /** Per-key total multiplicity of `df` (column `__kc`). */
  def keyTotals(df: DataFrame, keys: Seq[String]): DataFrame =
    attach(df).groupBy(keys.map(col): _*).agg(sum(MULT).as("__kc"))

  /** Keys of `r` with positive total multiplicity. */
  private def positiveKeys(r: DataFrame, rk: Seq[String]): DataFrame =
    keyTotals(r, rk).filter(col("__kc") > 0L).select(rk.map(col): _*)

  /** Snapshot-level left-semi join (left multiplicities preserved). */
  def semiSnap(l: DataFrame, r: DataFrame, lk: Seq[String], rk: Seq[String]): DataFrame = {
    val ld = attach(l)
    val rp = positiveKeys(r, rk)
    ld.join(rp, keyCond(ld, lk, rp, rk), "left_semi")
  }

  /** Snapshot-level left-anti join. */
  def antiSnap(l: DataFrame, r: DataFrame, lk: Seq[String], rk: Seq[String]): DataFrame = {
    val ld = attach(l)
    val rp = positiveKeys(r, rk)
    ld.join(rp, keyCond(ld, lk, rp, rk), "left_anti")
  }

  /** Append typed NULL columns (the outer-join padding projector). */
  def padNulls(df: DataFrame, cols: Seq[(String, ColType)]): DataFrame = {
    val padded = cols.foldLeft(attach(df)) { case (d, (n, t)) =>
      d.withColumn(n, lit(null).cast(sparkType(t)))
    }
    // keep __mult as the last column for readability (unions are by name)
    padded.select((Delta.dataCols(padded) :+ MULT).map(col): _*)
  }

  /** Snapshot-level left-outer join: inner matches plus padded anti part.
    * Robust to uncollapsed inputs (padding detection uses key totals).
    */
  def joinLeftOuterSnap(l: DataFrame, r: DataFrame, lk: Seq[String], rk: Seq[String],
                        rCols: Seq[(String, ColType)]): DataFrame = {
    val matched = joinInner(l, r, lk, rk)
    val padded  = padNulls(antiSnap(l, r, lk, rk), rCols)
    matched.unionByName(padded)
  }

  /** Right keys whose total multiplicity crosses zero between `rOld` and
    * `rOld + dR`. Output columns: the key columns plus `__was`, `__is`.
    * A full outer join's output does not report one partition, so at one
    * shuffle partition it is coalesced ([[SparkScope.single]]), and a join
    * over it needs no exchange.
    */
  def transitions(rOld: DataFrame, dR: DataFrame, rk: Seq[String]): DataFrame = {
    val ot = keyTotals(rOld, rk).withColumnRenamed("__kc", "__oc")
    val dt = keyTotals(dR, rk).withColumnRenamed("__kc", "__dc")
    SparkScope.single(ot.join(dt, rk, "full_outer"))
      .select(
        rk.map(col) ++ Seq(
          (coalesce(col("__oc"), lit(0L)) > 0L).as("__was"),
          ((coalesce(col("__oc"), lit(0L)) + coalesce(col("__dc"), lit(0L))) > 0L).as("__is"),
        ): _*)
      .filter(col("__was") =!= col("__is"))
  }

  /** Δ(L ⋈ R): the bilinear rule. `rNew` must equal `rOld + dR`. */
  def deltaInnerJoin(lOld: DataFrame, dL: DataFrame, rNew: DataFrame, dR: DataFrame,
                     lk: Seq[String], rk: Seq[String]): DataFrame =
    joinInner(dL, rNew, lk, rk).unionByName(joinInner(lOld, dR, lk, rk))

  /** Δ(L ⋈lo R): new-left part, new-match part, and padding corrections
    * driven by key-count transitions on R (Griffin–Kumar style).
    */
  def deltaLeftOuter(lOld: DataFrame, dL: DataFrame,
                     rOld: DataFrame, dR: DataFrame, rNew: DataFrame,
                     lk: Seq[String], rk: Seq[String],
                     rCols: Seq[(String, ColType)]): DataFrame = {
    val part1 = joinLeftOuterSnap(dL, rNew, lk, rk, rCols)
    val part2 = joinInner(lOld, dR, lk, rk)
    val trans = transitions(rOld, dR, rk)
    val ld    = attach(lOld).withColumnRenamed(MULT, "__lm")
    val joined = ld.join(trans, keyCond(ld, lk, trans, rk), "inner")
    // key went 0 -> positive: retract the padded row; positive -> 0: restore it.
    val corr = padNulls(
      joined.select(Delta.dataCols(lOld).map(ld(_)) :+
        (when(col("__is"), -col("__lm")).otherwise(col("__lm"))).as(MULT): _*),
      rCols)
    unionAll(Seq(part1, part2, corr))
  }

  /** Δ(L ⋉ R). */
  def deltaSemi(lOld: DataFrame, dL: DataFrame,
                rOld: DataFrame, dR: DataFrame, rNew: DataFrame,
                lk: Seq[String], rk: Seq[String]): DataFrame = {
    val part1 = semiSnap(dL, rNew, lk, rk)
    val trans = transitions(rOld, dR, rk)
    val ld    = attach(lOld).withColumnRenamed(MULT, "__lm")
    val corr = ld.join(trans, keyCond(ld, lk, trans, rk), "inner")
      .select(Delta.dataCols(lOld).map(ld(_)) :+
        (when(col("__is"), col("__lm")).otherwise(-col("__lm"))).as(MULT): _*)
    part1.unionByName(corr)
  }

  /** Δ(L ▷ R). */
  def deltaAnti(lOld: DataFrame, dL: DataFrame,
                rOld: DataFrame, dR: DataFrame, rNew: DataFrame,
                lk: Seq[String], rk: Seq[String]): DataFrame = {
    val part1 = antiSnap(dL, rNew, lk, rk)
    val trans = transitions(rOld, dR, rk)
    val ld    = attach(lOld).withColumnRenamed(MULT, "__lm")
    val corr = ld.join(trans, keyCond(ld, lk, trans, rk), "inner")
      .select(Delta.dataCols(lOld).map(ld(_)) :+
        (when(col("__is"), -col("__lm")).otherwise(col("__lm"))).as(MULT): _*)
    part1.unionByName(corr)
  }

  // ----- attribute-perspective aggregate states ------------------------------

  /** State columns backing one aggregate call. */
  def stateCols(a: AggCall): Seq[String] = a.fn match {
    case SumF | AvgF         => Seq(s"${a.name}__sum", s"${a.name}__nn")
    case CountF | CountStarF => Seq(s"${a.name}__cnt")
    case MinF | MaxF =>
      throw new IllegalArgumentException(s"${a.fn} is not incrementally maintainable")
  }

  def stateSchema(keys: Seq[String], aggs: Seq[AggCall]): Seq[String] =
    keys ++ aggs.flatMap(stateCols) :+ "__gcnt"

  /** Initialize+Iterate: fold a delta-encoded input into per-group states. */
  def partialAgg(df: DataFrame, keys: Seq[String], aggs: Seq[AggCall]): DataFrame =
    groupAgg(attach(df), keys, aggs.flatMap(stateAggs) :+ sum(MULT).as("__gcnt"))

  /** The `+γ` merge operator: combine aggregate states with matching keys. */
  def mergeStates(states: Seq[DataFrame], keys: Seq[String], aggs: Seq[AggCall]): DataFrame = {
    val u = states.reduce(_ unionByName _)
    val sCols = (aggs.flatMap(stateCols) :+ "__gcnt").map(c => sum(c).as(c))
    groupAgg(u, keys, sCols).filter(col("__gcnt") =!= 0L)
  }

  /** Final: convert an aggregate state into the multiplicity-perspective
    * snapshot (also filters out empty groups — the paper's footnote 1).
    */
  def finalAgg(state: DataFrame, keys: Seq[String], aggs: Seq[AggCall]): DataFrame =
    state.filter(col("__gcnt") > 0L)
      .select(keys.map(col) ++ aggs.map(a => finalCol(a).as(a.name)) :+ lit(1L).as(MULT): _*)

  /** Aggregate a snapshot in one step, for an aggregate with a call that is
    * not incrementable. SUM, COUNT and AVG weigh each row by its
    * multiplicity, as [[partialAgg]] followed by [[finalAgg]] do; MIN and
    * MAX read the rows with a positive multiplicity. Empty groups are
    * dropped, as in [[finalAgg]].
    */
  def snapshotAgg(df: DataFrame, keys: Seq[String], aggs: Seq[AggCall]): DataFrame = {
    val m = col(MULT)
    val cols = aggs.flatMap { a =>
      a.fn match {
        case MinF => Seq(min(when(m > 0L, a.arg.get.toColumn)).as(a.name))
        case MaxF => Seq(max(when(m > 0L, a.arg.get.toColumn)).as(a.name))
        case _    => stateAggs(a)
      }
    } :+ sum(m).as("__gcnt")
    groupAgg(attach(df), keys, cols).filter(col("__gcnt") > 0L)
      .select(keys.map(col) ++ aggs.map { a =>
        (if (a.incrementable) finalCol(a) else col(a.name)).as(a.name)
      } :+ lit(1L).as(MULT): _*)
  }

  private def groupAgg(df: DataFrame, keys: Seq[String], cols: Seq[Column]): DataFrame =
    if (keys.isEmpty) df.agg(cols.head, cols.tail: _*)
    else df.groupBy(keys.map(col): _*).agg(cols.head, cols.tail: _*)

  /** The [[stateCols]] of one call over multiplicity-weighted rows. */
  private def stateAggs(a: AggCall): Seq[Column] = {
    val m = col(MULT)
    a.fn match {
      case SumF | AvgF =>
        val arg = a.arg.get.toColumn
        Seq(
          sum(when(arg.isNotNull, arg * m).otherwise(lit(0.0))).as(s"${a.name}__sum"),
          sum(when(arg.isNotNull, m).otherwise(lit(0L))).as(s"${a.name}__nn"))
      case CountF =>
        val arg = a.arg.get.toColumn
        Seq(sum(when(arg.isNotNull, m).otherwise(lit(0L))).as(s"${a.name}__cnt"))
      case CountStarF =>
        Seq(sum(m).as(s"${a.name}__cnt"))
      case MinF | MaxF =>
        throw new IllegalArgumentException(s"${a.fn} is not incrementally maintainable")
    }
  }

  /** The value of one call, read off its [[stateCols]]. */
  private def finalCol(a: AggCall): Column = a.fn match {
    case SumF =>
      when(col(s"${a.name}__nn") > 0L, col(s"${a.name}__sum")).otherwise(lit(null))
    case AvgF =>
      when(col(s"${a.name}__nn") > 0L, col(s"${a.name}__sum") / col(s"${a.name}__nn"))
        .otherwise(lit(null))
    case CountF | CountStarF => col(s"${a.name}__cnt")
    case MinF | MaxF =>
      throw new IllegalArgumentException(s"${a.fn} is not incrementally maintainable")
  }

  /** Filter a delta-encoded relation (linear rule: Δσ(R) = σ(ΔR)). */
  def filter(df: DataFrame, pred: Expr): DataFrame = attach(df).filter(pred.toColumn)

  /** Project a delta-encoded relation (linear; no dedup). */
  def project(df: DataFrame, exprs: Seq[(String, Expr)]): DataFrame = {
    val d = attach(df)
    d.select(exprs.map { case (n, e) => e.toColumn.as(n) } :+ col(MULT): _*)
  }
}
