package repro.core

import org.apache.spark.sql.{SparkSession, classic}

/** Session settings scoped to one block of work, shared by statistics
  * collection ([[repro.core.stats.TvrStats.fromData]]) and the executor
  * ([[repro.core.exec.Executor]]).
  */
object SparkScope {
  private val WholeStage = "spark.sql.codegen.wholeStage"
  private val FactoryMode = "spark.sql.codegen.factoryMode"

  /** True if `spark` plans one shuffle partition: the small-input case,
    * where a job's cost is fixed per stage and per generated class. */
  def onePartition(spark: SparkSession): Boolean =
    spark.asInstanceOf[classic.SparkSession].sessionState.conf.numShufflePartitions == 1

  /** Run `body` without generated code if `spark` has one shuffle partition,
    * and as it is otherwise. Inside, whole-stage code generation is off and
    * `spark.sql.codegen.factoryMode` is `NO_CODEGEN`, so projections,
    * predicates, orderings and mutable projections take Spark's interpreted
    * path too: on a few thousand rows, compiling a class costs more than it
    * saves. Spark marks `factoryMode` as internal (its own suites use it to
    * run the interpreted expression paths), so it is set only inside this
    * scope, and both settings are restored afterwards, also when `body`
    * throws. [[repro.core.exec.Executor.run]] and the aggregate job of
    * [[repro.core.stats.TvrStats.fromData]] run inside it.
    */
  def interpreted[A](spark: SparkSession)(body: => A): A =
    if (!onePartition(spark)) body
    else withConf(spark)(WholeStage -> "false", FactoryMode -> "NO_CODEGEN")(body)

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
