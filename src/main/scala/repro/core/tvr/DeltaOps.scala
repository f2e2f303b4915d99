package repro.core.tvr

import org.apache.spark.sql.Column
import org.apache.spark.sql.catalyst.plans.{FullOuter, Inner, LeftAnti, LeftSemi}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.functions._
import repro.core.algebra._
import Delta.{MULT, dataCols, merge, unionAll}
import Plans.{aggregate, join, lhs, rhs, select, where}

/** Runtime incremental operators over delta-encoded relations, built as
  * Catalyst plans ([[Plans]]) over inputs that carry [[Delta.MULT]].
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
  private def sparkType(t: ColType): String = t match {
    case TLong => "bigint"; case TDouble => "double"
    case TString => "string"; case TDate => "date"
  }

  /** Inner join; multiplicities multiply. */
  def joinInner(l: LogicalPlan, r: LogicalPlan, lk: Seq[String], rk: Seq[String]): LogicalPlan =
    select(join(l, r, Inner, lk, rk),
      dataCols(l).map(lhs) ++ dataCols(r).map(rhs) :+ (lhs(MULT) * rhs(MULT)).as(MULT))

  /** Per-key total multiplicity of `p`, in column `total`. */
  private def keyTotals(p: LogicalPlan, keys: Seq[String], total: String): LogicalPlan =
    aggregate(p, keys, Seq(sum(MULT).as(total)))

  /** Keys of `r` with positive total multiplicity. */
  private def positiveKeys(r: LogicalPlan, rk: Seq[String]): LogicalPlan =
    select(where(keyTotals(r, rk, "__kc"), col("__kc") > 0L), rk.map(col))

  /** Snapshot-level left-semi join (left multiplicities preserved). */
  def semiSnap(l: LogicalPlan, r: LogicalPlan, lk: Seq[String], rk: Seq[String]): LogicalPlan =
    join(l, positiveKeys(r, rk), LeftSemi, lk, rk)

  /** Snapshot-level left-anti join. */
  def antiSnap(l: LogicalPlan, r: LogicalPlan, lk: Seq[String], rk: Seq[String]): LogicalPlan =
    join(l, positiveKeys(r, rk), LeftAnti, lk, rk)

  /** Append typed NULL columns (the outer-join padding projector). */
  def padNulls(p: LogicalPlan, cols: Seq[(String, ColType)]): LogicalPlan =
    // __mult stays the last column, for readability (unions are by name)
    select(p, dataCols(p).map(col) ++ cols.map { case (n, t) => lit(null).cast(sparkType(t)).as(n) } :+ col(MULT))

  /** Snapshot-level left-outer join: inner matches plus padded anti part.
    * Robust to uncollapsed inputs (padding detection uses key totals).
    */
  def joinLeftOuterSnap(l: LogicalPlan, r: LogicalPlan, lk: Seq[String], rk: Seq[String],
                        rCols: Seq[(String, ColType)]): LogicalPlan =
    unionAll(Seq(joinInner(l, r, lk, rk), padNulls(antiSnap(l, r, lk, rk), rCols)))

  /** Right keys whose total multiplicity crosses zero between `rOld` and
    * `rOld + dR`. Output columns: the key columns plus `__was`, `__is`.
    * At one shuffle partition the full outer join is planned under one
    * coalesce ([[repro.core.SparkScope.interpreted]]), so a join over the
    * transitions needs no exchange.
    */
  def transitions(rOld: LogicalPlan, dR: LogicalPlan, rk: Seq[String]): LogicalPlan = {
    val both = join(keyTotals(rOld, rk, "__oc"), keyTotals(dR, rk, "__dc"), FullOuter, rk, rk)
    val (oc, dc) = (coalesce(col("__oc"), lit(0L)), coalesce(col("__dc"), lit(0L)))
    where(select(both, rk.map(k => coalesce(lhs(k), rhs(k)).as(k)) ++
        Seq((oc > 0L).as("__was"), ((oc + dc) > 0L).as("__is"))),
      col("__was") =!= col("__is"))
  }

  /** The rows of `lOld` whose key is in `trans`, with multiplicity `mult`
    * of their own (`lhs(MULT)`) and of the transition (`__is`). */
  private def flips(lOld: LogicalPlan, trans: LogicalPlan, lk: Seq[String], rk: Seq[String],
                    mult: Column): LogicalPlan =
    select(join(lOld, trans, Inner, lk, rk), dataCols(lOld).map(lhs) :+ mult.as(MULT))

  /** Δ(L ⋈ R): the bilinear rule. `rNew` must equal `rOld + dR`. */
  def deltaInnerJoin(lOld: LogicalPlan, dL: LogicalPlan, rNew: LogicalPlan, dR: LogicalPlan,
                     lk: Seq[String], rk: Seq[String]): LogicalPlan =
    unionAll(Seq(joinInner(dL, rNew, lk, rk), joinInner(lOld, dR, lk, rk)))

  /** Δ(L ⋈lo R): new-left part, new-match part, and padding corrections
    * driven by key-count transitions on R (Griffin–Kumar style).
    */
  def deltaLeftOuter(lOld: LogicalPlan, dL: LogicalPlan,
                     rOld: LogicalPlan, dR: LogicalPlan, rNew: LogicalPlan,
                     lk: Seq[String], rk: Seq[String],
                     rCols: Seq[(String, ColType)]): LogicalPlan = {
    val part1 = joinLeftOuterSnap(dL, rNew, lk, rk, rCols)
    val part2 = joinInner(lOld, dR, lk, rk)
    // key went 0 -> positive: retract the padded row; positive -> 0: restore it.
    val m = lhs(MULT)
    val corr = padNulls(flips(lOld, transitions(rOld, dR, rk), lk, rk, when(col("__is"), -m).otherwise(m)), rCols)
    unionAll(Seq(part1, part2, corr))
  }

  /** Δ(L ⋉ R). */
  def deltaSemi(lOld: LogicalPlan, dL: LogicalPlan,
                rOld: LogicalPlan, dR: LogicalPlan, rNew: LogicalPlan,
                lk: Seq[String], rk: Seq[String]): LogicalPlan = {
    val m = lhs(MULT)
    unionAll(Seq(semiSnap(dL, rNew, lk, rk),
      flips(lOld, transitions(rOld, dR, rk), lk, rk, when(col("__is"), m).otherwise(-m))))
  }

  /** Δ(L ▷ R). */
  def deltaAnti(lOld: LogicalPlan, dL: LogicalPlan,
                rOld: LogicalPlan, dR: LogicalPlan, rNew: LogicalPlan,
                lk: Seq[String], rk: Seq[String]): LogicalPlan = {
    val m = lhs(MULT)
    unionAll(Seq(antiSnap(dL, rNew, lk, rk),
      flips(lOld, transitions(rOld, dR, rk), lk, rk, when(col("__is"), -m).otherwise(m))))
  }

  /** ΔQ of the outer-join view Q = L ⋈lo R from per-table updates, with the
    * padding corrections read off the previous snapshot `qOld` of Q
    * (Eq. 4b). The first of `rCols` is R's key column in Q, NULL exactly on
    * padded rows.
    */
  def ojvDelta(lOld: LogicalPlan, dL: LogicalPlan, rOld: LogicalPlan, dR: LogicalPlan, qOld: LogicalPlan,
               lk: Seq[String], rk: Seq[String], rCols: Seq[(String, ColType)]): LogicalPlan = {
    val dQD = joinInner(lOld, dR, lk, rk)
    val trans = transitions(rOld, dR, rk)
    // keys whose match count went 0 -> positive: retract the padded rows,
    // read off the previous snapshot of Q
    val leftCols = dataCols(qOld).filterNot(c => rCols.exists(_._1 == c))
    val padded = select(where(qOld, col(rCols.head._1).isNull), leftCols.map(col) :+ col(MULT))
    val corrRetract = padNulls(flips(padded, where(trans, col("__is")), lk, rk, -lhs(MULT)), rCols)
    // keys whose match count went positive -> 0: restore padding for every
    // left row with that key (the previous snapshot has no padded rows for
    // them, so source from L)
    val corrRestore = padNulls(flips(lOld, where(trans, !col("__is")), lk, rk, lhs(MULT)), rCols)
    val dQL = joinLeftOuterSnap(dL, merge(rOld, dR), lk, rk, rCols)
    unionAll(Seq(dQD, corrRetract, corrRestore, dQL))
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
  def partialAgg(p: LogicalPlan, keys: Seq[String], aggs: Seq[AggCall]): LogicalPlan =
    aggregate(p, keys, aggs.flatMap(stateAggs) :+ sum(MULT).as("__gcnt"))

  /** The `+γ` merge operator: combine aggregate states with matching keys. */
  def mergeStates(states: Seq[LogicalPlan], keys: Seq[String], aggs: Seq[AggCall]): LogicalPlan = {
    val sCols = (aggs.flatMap(stateCols) :+ "__gcnt").map(c => sum(c).as(c))
    where(aggregate(unionAll(states), keys, sCols), col("__gcnt") =!= 0L)
  }

  /** Final: convert an aggregate state into the multiplicity-perspective
    * snapshot (also filters out empty groups — the paper's footnote 1).
    */
  def finalAgg(state: LogicalPlan, keys: Seq[String], aggs: Seq[AggCall]): LogicalPlan =
    select(where(state, col("__gcnt") > 0L),
      keys.map(col) ++ aggs.map(a => finalCol(a).as(a.name)) :+ lit(1L).as(MULT))

  /** Aggregate a snapshot in one step, for an aggregate with a call that is
    * not incrementable. SUM, COUNT and AVG weigh each row by its
    * multiplicity, as [[partialAgg]] followed by [[finalAgg]] do; MIN and
    * MAX read the rows with a positive multiplicity. Empty groups are
    * dropped, as in [[finalAgg]].
    */
  def snapshotAgg(p: LogicalPlan, keys: Seq[String], aggs: Seq[AggCall]): LogicalPlan = {
    val m = col(MULT)
    val cols = aggs.flatMap { a =>
      a.fn match {
        case MinF => Seq(min(when(m > 0L, a.arg.get.toColumn)).as(a.name))
        case MaxF => Seq(max(when(m > 0L, a.arg.get.toColumn)).as(a.name))
        case _    => stateAggs(a)
      }
    } :+ sum(m).as("__gcnt")
    select(where(aggregate(p, keys, cols), col("__gcnt") > 0L),
      keys.map(col) ++ aggs.map { a =>
        (if (a.incrementable) finalCol(a) else col(a.name)).as(a.name)
      } :+ lit(1L).as(MULT))
  }

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
  def filter(p: LogicalPlan, pred: Expr): LogicalPlan = where(p, pred.toColumn)

  /** Project a delta-encoded relation (linear; no dedup). */
  def project(p: LogicalPlan, exprs: Seq[(String, Expr)]): LogicalPlan =
    select(p, exprs.map { case (n, e) => e.toColumn.as(n) } :+ col(MULT))
}
