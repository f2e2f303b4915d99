package repro.core.tvr

import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.{Column, DataFrame, Encoders, Row, SparkSession, classic}
import org.apache.spark.sql.catalyst.FunctionIdentifier
import org.apache.spark.sql.catalyst.analysis.{FunctionRegistry, UnresolvedAttribute, UnresolvedFunction}
import org.apache.spark.sql.catalyst.expressions.{Expression, NamedExpression}
import org.apache.spark.sql.catalyst.expressions.aggregate.AggregateFunction
import org.apache.spark.sql.catalyst.plans.{JoinType, LeftAnti, LeftSemi}
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.classic.ColumnConversions
import org.apache.spark.sql.functions.col

/** Catalyst logical plans built from `Column` expressions without analysing
  * them, and the one bridge between such plans and DataFrames.
  *
  * Spark analyses every DataFrame call on the spot, at a cost fixed per
  * call rather than per operator; [[Delta]] and [[DeltaOps]] instead build
  * plans, and Spark analyses a plan once, when [[frame]] wraps it. A plan's
  * leaves are analysed plans of frames ([[of]]); its column names are read
  * off the plan ([[columns]]), so building it needs no analysis. The two
  * sides of a join are qualified with `SubqueryAlias`, so a column is named
  * by its side where both sides have it.
  *
  * Spark internals used: `classic.ColumnConversions.expression` turns a
  * `Column` into its unresolved Catalyst expression,
  * `FunctionRegistry.builtin` looks its functions up, and
  * `sessionState.executePlan` analyses a plan. `Dataset.ofRows` is private
  * to Spark, so [[frame]] wraps the analysed plan with the public
  * `classic.Dataset` constructor.
  */
object Plans {
  /** The analysed plan of `df`. */
  def of(df: DataFrame): LogicalPlan = df.asInstanceOf[classic.Dataset[_]].queryExecution.analyzed

  /** `p` as a frame of `spark`, analysed once: Spark's analyzer returns a
    * plan it marked analysed as it is, so the frame's own query execution
    * does not analyse it again. */
  def frame(spark: SparkSession, p: LogicalPlan): DataFrame = {
    val session = spark.asInstanceOf[classic.SparkSession]
    val qe = session.sessionState.executePlan(p)
    qe.assertAnalyzed()
    new classic.Dataset[Row](session, qe.analyzed, () => Encoders.row(qe.analyzed.schema))
  }

  /** `f` over the plan of `df`, as one frame of its session. */
  def on(df: DataFrame)(f: LogicalPlan => LogicalPlan): DataFrame = frame(df.sparkSession, f(of(df)))

  /** `f` over the plans of `dfs`, as one frame of their session. */
  def on(dfs: Seq[DataFrame])(f: Seq[LogicalPlan] => LogicalPlan): DataFrame =
    frame(dfs.head.sparkSession, f(dfs.map(of)))

  /** The output column names of `p`, an analysed plan or one built here
    * over analysed plans. */
  def columns(p: LogicalPlan): Seq[String] = p match {
    case _ if p.resolved => p.output.map(_.name)
    case Project(list, _) => list.map(name)
    case a: Aggregate => a.aggregateExpressions.map(name)
    case u: Union => columns(u.children.head)
    case j: Join if j.joinType == LeftSemi || j.joinType == LeftAnti => columns(j.left)
    case u: UnaryNode => columns(u.child)
    case other => throw new IllegalArgumentException(s"no column names for an unresolved ${other.nodeName}")
  }

  private def name(e: NamedExpression): String = e match {
    case a: UnresolvedAttribute => a.nameParts.last
    case n                      => n.name
  }

  /** The Catalyst expression of `c`, with its functions looked up in
    * Spark's built-in registry, as the analyzer's `ResolveFunctions` does.
    * The analyzer resolves a plan in passes of a fixed-point batch, and an
    * operator's output resolves only once its functions do, so a plan whose
    * functions are left unresolved takes one pass per operator layer. A
    * function whose builder needs resolved arguments (`explode`) is left to
    * the analyzer. */
  private def expression(c: Column): Expression = ColumnConversions.expression(c).transformUp {
    case f: UnresolvedFunction if f.nameParts.size == 1 =>
      Try(FunctionRegistry.builtin.lookupFunction(FunctionIdentifier(f.nameParts.head), f.arguments)) match {
        case Success(a: AggregateFunction) => a.toAggregateExpression(f.isDistinct)
        case Success(e)                    => e
        case Failure(_)                    => f
      }
  }

  /** A named column: a column reference or an aliased expression. */
  private def named(c: Column): NamedExpression = expression(c) match {
    case n: NamedExpression => n
    case e => throw new IllegalArgumentException(s"an unnamed column in a plan: $e")
  }

  def select(p: LogicalPlan, cols: Seq[Column]): LogicalPlan = Project(cols.map(named), p)

  def where(p: LogicalPlan, cond: Column): LogicalPlan = Filter(expression(cond), p)

  /** Group `p` by the columns `keys` (none: one group) and compute `aggs`;
    * the output is the keys, then the aggregates. */
  def aggregate(p: LogicalPlan, keys: Seq[String], aggs: Seq[Column]): LogicalPlan =
    Aggregate(keys.map(k => expression(col(k))), (keys.map(col) ++ aggs).map(named), p, None)

  /** `p` under an observer that computes the aggregate `metric` over its
    * rows, under `name`, in whichever job computes `p` (`Dataset.observe`
    * as a plan). A plan that reads `p` twice holds two copies of the
    * observer, with one name and one id, which Spark's analysis accepts. */
  def observe(p: LogicalPlan, name: String, metric: Column): LogicalPlan =
    CollectMetrics(name, Seq(named(metric)), p, 0L)

  /** The qualifiers of the two sides of a [[join]]. */
  private val L = "__l"
  private val R = "__r"

  /** Column `c` of the left or right side of a [[join]]. */
  def lhs(c: String): Column = col(s"$L.$c")
  def rhs(c: String): Column = col(s"$R.$c")

  /** The `kind` equi-join of `l` and `r` on `lk = rk`, with the sides
    * qualified as [[L]] and [[R]]. */
  def join(l: LogicalPlan, r: LogicalPlan, kind: JoinType, lk: Seq[String], rk: Seq[String]): LogicalPlan = {
    val cond = lk.zip(rk).map { case (a, b) => lhs(a) === rhs(b) }.reduce(_ && _)
    Join(SubqueryAlias(L, l), SubqueryAlias(R, r), kind, Some(expression(cond)), JoinHint.NONE)
  }
}
