package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.exec.Executor
import repro.core.opt.{IncrementalPlan, Tempura}
import repro.core.rules.Methods
import repro.core.tvr.Delta
import repro.queries.{LiteQueries, TpcdsLite}

/** The executor labels each Spark job it starts with the plan node the job
  * materializes, and gives the thread's call site back as it found it, also
  * when a run throws.
  */
class ExecutorCallSiteSpec extends SparkSpec {
  private val Keys = Seq("callSite.short", "callSite.long")
  private val Label = """t=(\d+) node \((\d+),(\d+)\) \w+""".r

  /** q93 under PDW over two time steps, its inputs and its plan. */
  private lazy val (inputs, plan): (Map[String, Vector[DataFrame]], IncrementalPlan) = {
    val q = LiteQueries.q93
    val in = TpcdsLite.inputsFor(spark, q, TpcdsLite.DeltaBig, 0.001, 2)
    val problem = Harness.problemFromData(q, in, Seq(1), Harness.pdwCost2)
    (in.view.mapValues(_.map(Delta.attach)).toMap, Tempura.optimize(problem, Methods.full).plan)
  }

  private def callSite: Seq[String] = Keys.map(spark.sparkContext.getLocalProperty)

  test("every job of a run is labelled with the kept node or output it materializes") {
    spark.catalog.clearCache()
    val executor = new Executor(spark, plan, inputs, 2)
    val (_, jobs) = SparkSpec.jobsOf(spark)(executor.run())
    val nodes = jobs.map(_.props).map(props => props.getProperty("callSite.short") match {
      case l @ Label(t, g, nt) if t == nt && props.getProperty("callSite.long") == l => (g.toInt, nt.toInt)
      case other => fail(s"a job labelled $other")
    })
    assert(nodes.toSet == Executor.kept(plan) ++ plan.outputs.map(o => (o.plan.groupId, o.plan.time)))
  }

  test("a run restores the thread's call site, also when it throws") {
    spark.catalog.clearCache()
    SparkScope.withCallSite(spark)("outer") {
      new Executor(spark, plan, inputs, 2).run()
      assert(callSite == Seq("outer", "outer"))
      // no input deltas: the first scan throws inside a labelled node
      intercept[NoSuchElementException](new Executor(spark, plan, Map.empty, 2).run())
      assert(callSite == Seq("outer", "outer"))
    }
    intercept[NoSuchElementException](new Executor(spark, plan, Map.empty, 2).run())
    assert(callSite == Seq(null, null))
  }
}
