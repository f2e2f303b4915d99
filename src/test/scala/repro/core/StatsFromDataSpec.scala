package repro.core

import org.apache.spark.sql.{AnalysisException, DataFrame, classic}
import org.apache.spark.sql.execution.{ExpandExec, SparkPlan}
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions.{col, countDistinct}
import repro.SparkSpec
import repro.core.cost.VectorCost
import repro.core.stats.TvrStats
import repro.core.tvr.Delta
import repro.queries.{LiteQueries, TpcdsLite}

/** [[TvrStats.fromData]] against a per-column reference, and its cost in
  * Spark jobs: one per problem, whatever its number of tables
  * ([[TvrStats.fromTables]]). At one shuffle partition it runs interpreted,
  * in one stage, with no exchange, no expand and no hash aggregate, whose
  * RDD Spark builds through its closure cleaner ([[SparkScope.interpreted]]),
  * with the same result and job count.
  */
class StatsFromDataSpec extends SparkSpec {
  import spark.implicits._

  /** One count per delta, one distinct count per column, one retraction check. */
  private def reference(deltas: Vector[DataFrame], cols: Seq[String]): TvrStats = {
    val all = deltas.map(Delta.attach).reduce(_ unionByName _)
    TvrStats(deltas.map(_.count().toDouble),
      cols.map(c => c -> all.agg(countDistinct(col(c))).collect()(0).getLong(0).toDouble).toMap,
      all.filter(col(Delta.MULT) < 0).count() > 0)
  }

  /** What [[SparkScope.interpreted]] sets: the code generation settings,
    * the one-partition size limit, partition evaluators and the extra
    * planner strategies. */
  private val scoped = Seq("spark.sql.codegen.wholeStage", "spark.sql.codegen.factoryMode",
                           "spark.sql.maxSinglePartitionBytes", "spark.sql.execution.usePartitionEvaluator")
  private def scopeState = (scoped.map(spark.conf.getOption),
                            spark.asInstanceOf[classic.SparkSession].experimental.extraStrategies)
  private def atOnePartition[A](body: => A): A =
    SparkSpec.withConf(spark)("spark.sql.shuffle.partitions" -> "1",
                              "spark.sql.adaptive.enabled" -> "false")(body)
  private def at16Partitions[A](body: => A): A =
    SparkSpec.withConf(spark)("spark.sql.shuffle.partitions" -> "16",
                              "spark.sql.adaptive.enabled" -> "false")(body)

  /** An exchange, an expand or a hash aggregate in `plan`. */
  private def unwanted(plan: SparkPlan): Seq[SparkPlan] = plan.collect {
    case e: ShuffleExchangeExec => e
    case e: ExpandExec => e
    case h: HashAggregateExec => h
  }

  private def oneJob(name: String, deltas: Vector[DataFrame], cols: Seq[String]): Unit = {
    test(s"one aggregate job equals the per-column reference: $name") {
      val (stats, jobs) = SparkSpec.countJobs(spark)(TvrStats.fromData(deltas, cols))
      assert(stats == reference(deltas, cols))
      assert(jobs == 1)
    }
    test(s"one partition, interpreted: the same statistics in one job: $name") {
      val many = TvrStats.fromData(deltas, cols)
      val before = scopeState
      val ((stats, jobs), plans) = atOnePartition(
        SparkSpec.plansOf(spark)(SparkSpec.countJobs(spark)(TvrStats.fromData(deltas, cols))))
      assert(stats == many)
      assert(jobs == 1)
      assert(plans.size == 1)
      assert(unwanted(plans.head).isEmpty, plans.head)
      assert(scopeState == before)
    }
  }

  private def rows(xs: (Option[Long], Option[String])*): DataFrame = xs.toDF("k", "s")
  private val retracting =
    Delta.attach(rows(Some(1L) -> Some("a"), Some(2L) -> Some("b")))
      .unionByName(Delta.negate(rows(Some(1L) -> Some("a"))))

  oneJob("nulls and duplicate rows", Vector(
    rows(Some(1L) -> Some("a"), Some(1L) -> Some("a"), None -> Some("b"), Some(2L) -> None),
    rows(None -> None, Some(3L) -> Some("a"))), Seq("k", "s"))
  oneJob("an empty delta", Vector(rows(Some(1L) -> Some("a")), rows(), rows(Some(2L) -> Some("c"))),
    Seq("k", "s"))
  oneJob("a single delta", Vector(rows(Some(5L) -> Some("x"), Some(6L) -> Some("x"))), Seq("k", "s"))
  oneJob("negative multiplicities", Vector(rows(Some(1L) -> Some("a")), retracting), Seq("k", "s"))
  oneJob("no deltas with rows", Vector(rows(), rows()), Seq("k"))

  test("one partition: the code generation settings are restored when the body throws") {
    val before = scopeState
    atOnePartition {
      intercept[AnalysisException](TvrStats.fromData(Vector(rows(Some(1L) -> Some("a"))), Seq("nope")))
      val e = intercept[IllegalStateException](SparkScope.interpreted(spark) {
        assert(spark.conf.get("spark.sql.codegen.wholeStage") == "false")
        assert(spark.conf.get("spark.sql.codegen.factoryMode") == "NO_CODEGEN")
        assert(spark.conf.get("spark.sql.maxSinglePartitionBytes") == Long.MaxValue.toString)
        assert(spark.conf.get("spark.sql.execution.usePartitionEvaluator") == "true")
        assert(scopeState._2.size == before._2.size + 1)
        throw new IllegalStateException("body failed")
      })
      assert(e.getMessage == "body failed")
    }
    assert(scopeState == before)
    // with more partitions the scope sets nothing
    SparkSpec.withConf(spark)("spark.sql.shuffle.partitions" -> "16") {
      SparkScope.interpreted(spark)(assert(scopeState == before))
    }
  }

  test("retractions are read off the data; the caller's flag only adds them") {
    val r = TvrStats.fromData(Vector(retracting), Seq("k"))
    assert(r.hasRetractions)
    val plain = Vector(rows(Some(1L) -> Some("a")))
    assert(!TvrStats.fromData(plain, Seq("k")).hasRetractions)
    assert(TvrStats.fromData(plain, Seq("k"), hasRetractions = true).hasRetractions)
  }

  test("problemFromData: one job, retractions found without the flag") {
    val q = LiteQueries.byName("q93")
    val in = TpcdsLite.inputsFor(spark, q, TpcdsLite.DeltaRS, 0.001)
    val (problem, jobs) = SparkSpec.countJobs(spark)(
      Harness.problemFromData(q, in, Seq(0, 1), VectorCost(2)))
    assert(jobs == 1)
    for ((t, s) <- problem.tableStats)
      withClue(t) { assert(s.hasRetractions == TpcdsLite.DeltaRS.retractTables.contains(t)) }
    assert(problem.tableStats.values.exists(_.hasRetractions))
  }

  test("floating point: -0.0 is 0.0 and NaN is one value, at 1 and 16 partitions") {
    val x = Seq(Some(0.0), Some(-0.0), Some(Double.NaN), Some(Double.NaN), None, Some(1.0))
    val d = x.map(v => (v, v.map(_.toFloat))).toDF("x", "y")
    val deltas = Vector(d, d)
    val ref = reference(deltas, Seq("x", "y"))
    assert(ref.distinct == Map("x" -> 3.0, "y" -> 3.0))
    assert(at16Partitions(TvrStats.fromData(deltas, Seq("x", "y"))) == ref)
    assert(atOnePartition(TvrStats.fromData(deltas, Seq("x", "y"))) == ref)
  }

  test("problemFromData at one partition: one job in one stage, no exchange, expand or hash aggregate") {
    val q = LiteQueries.byName("q40")
    val in = TpcdsLite.inputsFor(spark, q, TpcdsLite.DeltaRS, 0.001)
    val (jobs, plans) = atOnePartition(SparkSpec.plansOf(spark)(SparkSpec.jobsOf(spark)(
      Harness.problemFromData(q, in, Seq(1), VectorCost(2)))._2))
    assert(in.size > 1)
    assert(jobs.map(_.stages) == Seq(1))
    assert(plans.size == 1)
    assert(unwanted(plans.head).isEmpty, plans.head)
  }

  test("every lite query and pattern: the same statistics at 1 and 16 partitions") {
    for (p <- TpcdsLite.patterns) {
      // a table's deltas under a pattern are the same in every query that reads it
      val tables = LiteQueries.all.flatMap { lq =>
        TpcdsLite.inputsFor(spark, lq.root, p, 0.001).map { case (t, deltas) =>
          (t, lq.root.scans.find(_.table == t).get.schema) -> deltas
        }
      }.toMap.toSeq.map { case ((t, cols), deltas) => (t, deltas -> cols) }
      val one = atOnePartition(TvrStats.fromTables(tables.map(_._2)))
      val many = at16Partitions(TvrStats.fromTables(tables.map(_._2)))
      val differing = tables.map(_._1).zip(one.zip(many)).filter { case (_, (a, b)) => a != b }
      assert(differing.isEmpty, s"${p.name}: $differing")
    }
  }
}
