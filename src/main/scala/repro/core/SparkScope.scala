package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession, classic}
import org.apache.spark.sql.catalyst.plans.logical.{Expand, LocalRelation, LogicalPlan, Union}
import org.apache.spark.sql.execution.{CoalesceExec, ExpandExec, LocalTableScanExec, SparkPlan, SparkStrategy, UnionExec}

/** Session settings scoped to one block of work, shared by statistics
  * collection ([[repro.core.stats.TvrStats.fromData]]) and the executor
  * ([[repro.core.exec.Executor]]).
  */
object SparkScope {
  private val WholeStage = "spark.sql.codegen.wholeStage"
  private val FactoryMode = "spark.sql.codegen.factoryMode"
  private val MaxSinglePartitionBytes = "spark.sql.maxSinglePartitionBytes"

  /** True if `spark` plans one shuffle partition: the small-input case,
    * where a job's cost is fixed per stage and per generated class. */
  def onePartition(spark: SparkSession): Boolean =
    spark.asInstanceOf[classic.SparkSession].sessionState.conf.numShufflePartitions == 1

  /** `df` coalesced to one partition if its session has one shuffle
    * partition, and as it is otherwise. `coalesce(1)` is a narrow dependency
    * whose `SinglePartition` output satisfies every distribution a join or
    * an aggregate requires, so Spark plans no exchange above it. */
  def single(df: DataFrame): DataFrame = if (onePartition(df.sparkSession)) df.coalesce(1) else df

  /** Run `body` without generated code and without shuffles if `spark` has
    * one shuffle partition, and as it is otherwise.
    *
    * Inside, whole-stage code generation is off and
    * `spark.sql.codegen.factoryMode` is `NO_CODEGEN`, so projections,
    * predicates, orderings and mutable projections take Spark's interpreted
    * path too: on a few thousand rows, compiling a class costs more than it
    * saves. Spark marks `factoryMode` as internal (its own suites use it to
    * run the interpreted expression paths), so it is set only inside this
    * scope.
    *
    * Every query planned inside also has no `ShuffleExchangeExec`, so each
    * job runs in one stage. Spark plans an exchange under any join or
    * aggregate whose child does not report `SinglePartition`, and under a
    * join with a one-partition side whose estimated size exceeds
    * `spark.sql.maxSinglePartitionBytes`. Inside the scope:
    *  - `OnePartitionPlans` plans a union, an expand (Spark's rewrite of
    *    several distinct aggregates) and an empty local relation (what
    *    Spark leaves of a plan over an empty input) as Spark's own operator
    *    under `CoalesceExec(1, …)`;
    *  - `spark.sql.maxSinglePartitionBytes` is `Long.MaxValue`: without
    *    cost-based optimization, join size estimates multiply, and would
    *    trip the limit on a few thousand rows.
    * A full outer join's output does not report one partition either; the
    * one full outer join, in [[repro.core.tvr.DeltaOps.transitions]], is
    * coalesced there ([[single]]).
    *
    * All settings are restored afterwards, also when `body` throws.
    * [[repro.core.exec.Executor.run]] and the aggregate job of
    * [[repro.core.stats.TvrStats.fromData]] run inside this scope.
    */
  def interpreted[A](spark: SparkSession)(body: => A): A =
    if (!onePartition(spark)) body
    else withConf(spark)(WholeStage -> "false", FactoryMode -> "NO_CODEGEN",
                         MaxSinglePartitionBytes -> Long.MaxValue.toString) {
      val methods = spark.asInstanceOf[classic.SparkSession].experimental
      val before = methods.extraStrategies
      methods.extraStrategies = before :+ OnePartitionPlans
      try body finally methods.extraStrategies = before
    }

  /** Spark's own plans of the operators whose plan does not report one
    * partition, under `CoalesceExec(1, …)`, for [[interpreted]]. A coalesce
    * is narrow: one task reads every input partition, and no row is
    * shuffled. */
  private object OnePartitionPlans extends SparkStrategy {
    def apply(plan: LogicalPlan): Seq[SparkPlan] = (plan match {
      case u: Union  => Some(UnionExec(u.children.map(planLater)))
      case e: Expand => Some(ExpandExec(e.projections, e.output, planLater(e.child)))
      case r: LocalRelation if r.data.isEmpty => Some(LocalTableScanExec(r.output, r.data, r.stream))
      case _         => None
    }).map(CoalesceExec(1, _)).toSeq
  }

  /** Run `body` with the runtime SQL confs `pairs` set, then restore each
    * one's earlier value (or unset it), also when `body` throws.
    */
  def withConf[A](spark: SparkSession)(pairs: (String, String)*)(body: => A): A = {
    val before = pairs.map { case (k, _) => k -> spark.conf.getOption(k) }
    pairs.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally before.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }

  /** Run `body` with `label` as the thread's Spark call site, short and long
    * form, then restore the earlier one, also when `body` throws. Each job
    * carries `label`, and Spark builds RDDs without a stack walk each. */
  def withCallSite[A](spark: SparkSession)(label: String)(body: => A): A = {
    val (sc, keys) = (spark.sparkContext, Seq("callSite.short", "callSite.long"))
    val before = keys.map(sc.getLocalProperty)
    keys.foreach(sc.setLocalProperty(_, label))
    try body finally keys.zip(before).foreach { case (k, v) => sc.setLocalProperty(k, v) }
  }
}
