package repro.core.tvr

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.Literal
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, Limit, Union}
import org.apache.spark.sql.functions._
import Plans.{aggregate, columns, select, where}

/** Delta-encoded relations: every incremental relation carries a signed
  * multiplicity column [[Delta.MULT]] (the "#" column of the paper's Fig. 1).
  *
  * A snapshot is a delta-encoded relation whose collapsed multiplicities are
  * all positive; a delta may contain negative rows (retractions). The merge
  * operator `+#` of the TIP model is [[Delta.merge]]: bag union followed by
  * multiplicity collapse.
  *
  * The operators build Catalyst plans ([[Plans]]) over inputs that carry
  * [[MULT]]. The DataFrame forms of [[attach]], [[negate]], [[collapse]],
  * [[expand]] and [[unionAll]] wrap the plan forms through [[Plans.on]].
  */
object Delta {
  val MULT = "__mult"

  /** Data columns, i.e. everything except the multiplicity. */
  def dataCols(p: LogicalPlan): Seq[String] = columns(p).filterNot(_ == MULT)

  /** Attach __mult = 1 if the relation does not carry one yet. */
  def attach(p: LogicalPlan): LogicalPlan =
    if (columns(p).contains(MULT)) p else select(p, columns(p).map(col) :+ lit(1L).as(MULT))

  def attach(df: DataFrame): DataFrame = if (df.columns.contains(MULT)) df else Plans.on(df)(attach)

  def negate(p: LogicalPlan): LogicalPlan =
    select(p, columns(p).map(c => if (c == MULT) (-col(MULT)).as(MULT) else col(c)))

  def negate(df: DataFrame): DataFrame = Plans.on(attach(df))(negate)

  /** Group identical tuples and sum multiplicities; drop zeroes. */
  def collapse(p: LogicalPlan): LogicalPlan =
    where(aggregate(p, dataCols(p), Seq(sum(MULT).as(MULT))), col(MULT) =!= 0L)

  def collapse(df: DataFrame): DataFrame = Plans.on(attach(df))(collapse)

  /** The `+#` merge operator: R_t +# Δ = R_t'. */
  def merge(a: LogicalPlan, b: LogicalPlan): LogicalPlan = collapse(unionAll(Seq(a, b)))

  /** Bag union by column name, without collapsing (cheap; collapse lazily
    * when needed). Every input has the first input's columns; one with
    * another column order is projected to that order. */
  def unionAll(ps: Seq[LogicalPlan]): LogicalPlan =
    if (ps.size == 1) ps.head
    else {
      val cols = columns(ps.head)
      Union(ps.map { p =>
        val cs = columns(p)
        require(cs.sorted == cols.sorted, s"a union of columns ${cols.mkString(", ")} and ${cs.mkString(", ")}")
        if (cs == cols) p else select(p, cols.map(col))
      }, byName = false, allowMissingCol = false)
    }

  def unionAll(dfs: Seq[DataFrame]): DataFrame = Plans.on(dfs.map(attach))(unionAll)

  /** Expand a collapsed, all-positive relation to plain bag rows (each tuple
    * repeated `__mult` times) — used to hand results to the DuckDB oracle.
    */
  def expand(p: LogicalPlan): LogicalPlan = {
    val cols = dataCols(p).map(col)
    select(select(collapse(p), cols :+ explode(sequence(lit(1L), col(MULT))).as("__i")), cols)
  }

  def expand(df: DataFrame): DataFrame = Plans.on(attach(df))(expand)

  /** Empty delta with the same schema as `like`. */
  def empty(like: LogicalPlan): LogicalPlan = Limit(Literal(0), like)
}
