package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.algebra._
import repro.core.cost.WeightedCost
import repro.core.opt.Tempura
import repro.core.rules.Methods
import repro.queries.RunningExample._

/** Plan-selection behaviour: cost weights move work across time (§6.2), and
  * the greedy MQO materializes genuinely shared sub-plans (§6.3).
  */
class PlanSelectionSpec extends SparkSpec {

  private def inputs: Map[String, Vector[DataFrame]] = Map(
    "sales"   -> Vector(salesDf(spark, salesT1), salesDf(spark, salesT2)),
    "returns" -> Vector(returnsDf(spark, returnsT1), returnsDf(spark, returnsT2)))

  test("cheap early resources pull computation into the first run") {
    val in = inputs
    val cheap = Harness.problemFromData(summary, in, Seq(1), WeightedCost(Vector(0.05, 1.0)))
    val dear  = Harness.problemFromData(summary, in, Seq(1), WeightedCost(Vector(0.95, 1.0)))
    val rc = Tempura.optimize(cheap)
    val rd = Tempura.optimize(dear)
    assert(rc.estCost.at(0) >= rd.estCost.at(0),
      s"w1=0.05 must do at least as much early work: ${rc.estCost.at} vs ${rd.estCost.at}")
    assert(rc.estCost.at(1) <= rd.estCost.at(1),
      "early work must pay off with a cheaper final run")
  }

  test("batch-at-the-end plan is chosen when early resources cost the same") {
    // with w1 = w2 = 1 there is no discount for early work; save/load overhead
    // should keep (almost) everything at t1
    val in = inputs
    val p = Harness.problemFromData(summary, in, Seq(1), WeightedCost(Vector(1.0, 1.0)))
    val r = Tempura.optimize(p)
    assert(r.estCost.at(0) <= r.estCost.at(1),
      "no early-resource discount: bulk of the work should sit in the final run")
  }

  test("MQO materializes a sub-plan shared by two consumers") {
    val in = inputs
    val joined = JoinOp(salesScan, returnsScan, Inner, Seq("s_oid"), Seq("r_oid"))
    val shared = UnionAllOp(Seq(
      ProjectOp(joined, Seq("cat" -> Col("s_cat"), "m" -> Arith("*", Col("s_price"), Lit(1.1)))),
      ProjectOp(joined, Seq("cat" -> Col("s_cat"), "m" -> Arith("-", Col("s_price"), Coalesce(Seq(Col("r_cost"), Lit(0.0))))))))
    val q = AggOp(shared, Seq("cat"), Seq(AggCall(SumF, Some(Col("m")), "tot")))
    val p = Harness.problemFromData(q, in, Seq(1), Harness.pdwCost2)
    val (res, exec) = Harness.optimizeAndRun(spark, p, in)
    Harness.checkOutputs(exec, q, in)
    // the Theorem-7 reduction must not change the achievable best cost class:
    val noThm7 = Tempura.optimize(p, Methods(), theorem7 = false)
    assert(math.abs(p.costFn.scalarize(noThm7.estCost) - p.costFn.scalarize(res.estCost)) <=
      0.5 * math.abs(p.costFn.scalarize(res.estCost)) + 1e-6)
  }

  test("IVM outputs at early runs are materialized as states") {
    val in = inputs
    val p = Harness.problemFromData(summary, in, Seq(0, 1), Harness.ivmCost2)
    val res = Tempura.optimize(p)
    assert(res.plan.states.exists(_.time == 0),
      "the t0 view must be kept as a state for the t1 run")
  }

  test("estimated state rows are reported") {
    val in = inputs
    val p = Harness.problemFromData(summary, in, Seq(0, 1), Harness.ivmCost2)
    val res = Tempura.optimize(p)
    assert(res.plan.estStateRows > 0)
  }

  test("traditional baseline optimizes a single batch run") {
    val in = inputs
    val p = Harness.problemFromData(summary, in, Seq(1), Harness.pdwCost2)
    val r = Tempura.optimizeTraditional(summary, p.tableStats)
    assert(r.plan.outputs.size == 1 && r.plan.outputs.head.time == 0)
    assert(r.exploration.im2RulesFired == 0 && r.exploration.hovRulesFired == 0)
  }

  test("PSE and SMO timings are measured and positive") {
    val in = inputs
    val p = Harness.problemFromData(summary, in, Seq(1), Harness.pdwCost2)
    val r = Tempura.optimize(p)
    assert(r.pseMillis > 0 && r.smoMillis > 0)
    assert(r.memoGroups > 10 && r.memoNodes >= r.memoGroups)
  }
}
