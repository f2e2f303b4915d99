package repro.core

import scala.reflect.ClassTag
import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{SparkSession, classic}
import org.apache.spark.sql.catalyst.plans.FullOuter
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join, LocalRelation, LogicalPlan, Repartition, Union}
import org.apache.spark.sql.execution.{CoalesceExec, LocalTableScanExec, SparkPlan, SparkPlanner, SparkStrategy,
  UnionExec}
import org.apache.spark.sql.execution.aggregate.{HashAggregateExec, ObjectHashAggregateExec}

/** Session settings scoped to one block of work, shared by statistics
  * collection ([[repro.core.stats.TvrStats.fromTables]]) and the executor
  * ([[repro.core.exec.Executor]]).
  */
object SparkScope {
  private val WholeStage = "spark.sql.codegen.wholeStage"
  private val FactoryMode = "spark.sql.codegen.factoryMode"
  private val MaxSinglePartitionBytes = "spark.sql.maxSinglePartitionBytes"
  private val UsePartitionEvaluator = "spark.sql.execution.usePartitionEvaluator"

  /** True if `spark` plans one shuffle partition: the small-input case,
    * where a job's cost is fixed per stage and per generated class. */
  def onePartition(spark: SparkSession): Boolean =
    spark.asInstanceOf[classic.SparkSession].sessionState.conf.numShufflePartitions == 1

  /** `p` coalesced to one partition if `spark` has one shuffle partition,
    * and as it is otherwise. `coalesce(1)` is a narrow dependency whose
    * `SinglePartition` output satisfies every distribution a join or an
    * aggregate requires, so Spark plans no exchange above it. */
  def single(spark: SparkSession)(p: LogicalPlan): LogicalPlan =
    if (onePartition(spark)) Repartition(1, shuffle = false, p) else p

  /** Run `body` without generated code, without shuffles and with less
    * closure cleaning if `spark` has one shuffle partition, and as it is
    * otherwise.
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
    *  - `OnePartitionPlans` plans a union, an empty local relation (what
    *    Spark leaves of a plan over an empty input) and a full outer join
    *    (whose output reports no partitioning, as in
    *    [[repro.core.tvr.DeltaOps.transitions]]) as Spark's own operator
    *    under `CoalesceExec(1, …)`;
    *  - `spark.sql.maxSinglePartitionBytes` is `Long.MaxValue`: without
    *    cost-based optimization, join size estimates multiply, and would
    *    trip the limit on a few thousand rows.
    *
    * Aggregates and sort-merge joins planned inside build their RDDs
    * without Spark's closure cleaner, which reads the whole class file that
    * defines each closure, with no cache, every time an RDD is built over
    * it:
    *  - `OnePartitionPlans` plans each aggregate as Spark does, with
    *    `ObjectHashAggregateExec` in place of `HashAggregateExec`: the same
    *    fields, but its RDD is built by a Spark-internal call that skips the
    *    cleaner;
    *  - `spark.sql.execution.usePartitionEvaluator` is on, so a sort-merge
    *    join zips its inputs with a partition evaluator, not a closure.
    * A job run with [[runJob]] and a named function skips the cleaner too.
    *
    * All settings are restored afterwards, also when `body` throws.
    * [[repro.core.exec.Executor.run]] and the one aggregate job of
    * [[repro.core.stats.TvrStats.fromTables]] run inside this scope.
    */
  def interpreted[A](spark: SparkSession)(body: => A): A =
    if (!onePartition(spark)) body
    else withConf(spark)(WholeStage -> "false", FactoryMode -> "NO_CODEGEN",
                         MaxSinglePartitionBytes -> Long.MaxValue.toString, UsePartitionEvaluator -> "true") {
      val session = spark.asInstanceOf[classic.SparkSession]
      val methods = session.experimental
      val before = methods.extraStrategies
      methods.extraStrategies = before :+ new OnePartitionPlans(session.sessionState.planner)
      try body finally methods.extraStrategies = before
    }

  /** Spark's own plans of the operators whose plan does not report one
    * partition (a union, an empty local relation, and a full outer join
    * planned by `planner`'s join strategy), under `CoalesceExec(1, …)`, and
    * of aggregates with no closure cleaning, for [[interpreted]]. A coalesce is narrow: one task
    * reads every input partition, and no row is shuffled. An aggregate is
    * planned by `planner`'s own aggregation strategy, with each
    * `HashAggregateExec` (whose RDD is built through the public
    * `mapPartitionsWithIndex`, so the cleaner reads its 117 KB class each
    * time) replaced by an `ObjectHashAggregateExec` of the same fields. */
  private final class OnePartitionPlans(planner: SparkPlanner) extends SparkStrategy {
    def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
      case u: Union  => Seq(CoalesceExec(1, UnionExec(u.children.map(planLater))))
      case r: LocalRelation if r.data.isEmpty => Seq(CoalesceExec(1, LocalTableScanExec(r.output, r.data, r.stream)))
      case j: Join if j.joinType == FullOuter => planner.JoinSelection(j).map(CoalesceExec(1, _))
      case a: Aggregate => planner.Aggregation(a).map(_.transformUp {
        case h: HashAggregateExec =>
          ObjectHashAggregateExec(h.requiredChildDistributionExpressions, h.isStreaming, h.numShufflePartitions,
            h.groupingExpressions, h.aggregateExpressions, h.aggregateAttributes, h.initialInputBufferOffset,
            h.resultExpressions, h.child)
      })
      case _ => Nil
    }
  }

  /** Run one job over every partition of `rdd`, and return what `f` gives
    * for each partition, in partition order. An exception thrown by `f`
    * reaches the caller.
    *
    * Spark's closure cleaner returns at once for a function whose class is
    * not a closure, so pass `f` as a named function object: a lambda here
    * makes the cleaner read the class that defines it, and Spark's own
    * `runJob(rdd, Iterator[T] => U)` wraps `f` in a lambda of
    * `SparkContext`, whose class is read too. */
  def runJob[T, U: ClassTag](rdd: RDD[T], f: (TaskContext, Iterator[T]) => U): IndexedSeq[U] = {
    val results = new Array[U](rdd.partitions.length)
    rdd.sparkContext.runJob(rdd, f, (i: Int, u: U) => results(i) = u)
    results.toIndexedSeq
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
