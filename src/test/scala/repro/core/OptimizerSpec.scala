package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.memo._
import repro.core.opt.Tempura
import repro.core.rules.{Methods, OptFlags, RuleEngine}
import repro.core.tvr.Delta
import repro.queries.RunningExample._

/** End-to-end optimizer tests on the paper's running example: plan-space
  * exploration, DP plan selection, and oracle-checked execution of the
  * chosen incremental plans under every method configuration.
  */
class OptimizerSpec extends SparkSpec {

  private def inputs2: Map[String, Vector[DataFrame]] = Map(
    "sales"   -> Vector(salesDf(spark, salesT1), salesDf(spark, salesT2)),
    "returns" -> Vector(returnsDf(spark, returnsT1), returnsDf(spark, returnsT2)))

  private def inputsRetract: Map[String, Vector[DataFrame]] = Map(
    "sales" -> Vector(salesDf(spark, salesT1),
      Delta.attach(salesDf(spark, salesT2))
        .unionByName(Delta.negate(salesDf(spark, Seq((2L, "c2", 150.0)))))),
    "returns" -> Vector(returnsDf(spark, returnsT1), returnsDf(spark, returnsT2)))

  private val allMethods = Seq(
    "IM-1" -> Methods.im1, "IM-2" -> Methods.im2, "OJV" -> Methods.ojv,
    "HOV" -> Methods.hov, "Tempura" -> Methods.full)

  test("exploration populates snapshots, deltas and merges for the summary query") {
    val problem = Harness.problemFromData(summary, inputs2, Seq(1), Harness.pdwCost2)
    val exp = new RuleEngine(problem, Methods(), OptFlags()).explore()
    val memo = exp.memo
    val root = memo.tvrs(exp.rootTvr)
    assert(root.links.contains(Snap(1)), "root must have the final snapshot")
    assert(root.links.contains(Snap(0, StateP)), "early aggregate state missing")
    assert(root.links.contains(Del(0, 1, StateP)), "aggregate state delta missing")
    // the outer-join TVR must have both an IM-1 delta and an IM-2 decomposition
    val loTvr = memo.tvrs.find(_.logical.exists {
      case repro.core.algebra.JoinOp(_, _, repro.core.algebra.LeftOuter, _, _) => true
      case _ => false
    }).get
    assert(loTvr.links.contains(Del(0, 1)), "outer-join delta missing")
    assert(loTvr.inter.contains(Im2Pos) && loTvr.inter.contains(Im2Neg), "IM-2 parts missing")
    assert(exp.im2RulesFired > 0 && exp.ojvRulesFired > 0)
  }

  test("IM-2 decomposition of the outer join is absent under retractions") {
    val problem = Harness.problemFromData(summary, inputsRetract, Seq(1), Harness.pdwCost2,
      retractions = Set("sales"))
    val exp = new RuleEngine(problem, Methods(), OptFlags()).explore()
    val loTvr = exp.memo.tvrs.find(_.logical.exists {
      case repro.core.algebra.JoinOp(_, _, repro.core.algebra.LeftOuter, _, _) => true
      case _ => false
    }).get
    assert(!loTvr.inter.contains(Im2Pos), "IM-2 must not decompose a retracting input")
  }

  for ((name, methods) <- allMethods) {
    test(s"PDW-PD plan with $name is correct on the running example") {
      val in = inputs2
      val problem = Harness.problemFromData(summary, in, Seq(1), Harness.pdwCost2)
      val (res, exec) = Harness.optimizeAndRun(spark, problem, in, methods)
      assert(res.plan.outputs.size == 1)
      Harness.checkOutputs(exec, summary, in)
    }
  }

  for ((name, methods) <- allMethods) {
    test(s"IVM-PD plan with $name is correct at both output times") {
      val in = inputs2
      val problem = Harness.problemFromData(summary, in, Seq(0, 1), Harness.ivmCost2)
      val (res, exec) = Harness.optimizeAndRun(spark, problem, in, methods)
      assert(exec.outputs.size == 2)
      Harness.checkOutputs(exec, summary, in)
    }
  }

  test("PDW-PD with retractions is correct for every method") {
    val in = inputsRetract
    val problem = Harness.problemFromData(summary, in, Seq(1), Harness.pdwCost2,
      retractions = Set("sales"))
    for ((name, methods) <- allMethods) {
      val (_, exec) = Harness.optimizeAndRun(spark, problem, in, methods)
      withClue(name) { Harness.checkOutputs(exec, summary, in) }
    }
  }

  test("Tempura's estimated cost is never worse than any individual method") {
    val in = inputs2
    val problem = Harness.problemFromData(summary, in, Seq(1), Harness.pdwCost2)
    val full = Tempura.optimize(problem, Methods())
    val fullScalar = problem.costFn.scalarize(full.estCost)
    for ((name, methods) <- allMethods if name != "Tempura") {
      val m = Tempura.optimize(problem, methods)
      withClue(s"$name: ") {
        assert(fullScalar <= problem.costFn.scalarize(m.estCost) + 1e-6)
      }
    }
  }

  test("inner-join + aggregate query works end to end") {
    val in = inputs2
    val problem = Harness.problemFromData(innerSummary, in, Seq(1), Harness.pdwCost2)
    for ((name, methods) <- allMethods) {
      val (_, exec) = Harness.optimizeAndRun(spark, problem, in, methods)
      withClue(name) { Harness.checkOutputs(exec, innerSummary, in) }
    }
  }

  test("three time points, output at the last only") {
    val in = Map(
      "sales" -> Vector(salesDf(spark, salesT1), salesDf(spark, salesT2),
        salesDf(spark, Seq((8L, "c3", 10.0)))),
      "returns" -> Vector(returnsDf(spark, returnsT1), returnsDf(spark, returnsT2),
        returnsDf(spark, Seq((8L, 1.0)))))
    val problem = Harness.problemFromData(summary, in, Seq(2),
      repro.core.cost.WeightedCost(Vector(0.25, 0.3, 1.0)))
    for ((name, methods) <- allMethods) {
      val (_, exec) = Harness.optimizeAndRun(spark, problem, in, methods)
      withClue(name) { Harness.checkOutputs(exec, summary, in) }
    }
  }

  test("plain outer-join query (no aggregate) as the root") {
    val in = inputs2
    val problem = Harness.problemFromData(salesStatus, in, Seq(1), Harness.pdwCost2)
    for ((name, methods) <- allMethods) {
      val (_, exec) = Harness.optimizeAndRun(spark, problem, in, methods)
      withClue(name) { Harness.checkOutputs(exec, salesStatus, in) }
    }
  }

  test("temporal assignment validity: no operator runs before its inputs exist") {
    val in = inputs2
    val problem = Harness.problemFromData(summary, in, Seq(1), Harness.pdwCost2)
    val res = Tempura.optimize(problem)
    def minAvail(op: MOp): Int = op match {
      case MScanSnap(_, t) => t
      case MScanDelta(_, _, t2) => t2
      case _ => 0
    }
    def walk(p: repro.core.opt.PlanNode): Unit = p match {
      case repro.core.opt.Compute(_, t, op, cs) =>
        assert(t >= minAvail(op), s"$op scheduled at $t before its data exists")
        cs.foreach { c => assert(c.time <= t); walk(c) }
      case repro.core.opt.LoadState(_, t, from) => assert(from <= t)
    }
    res.plan.outputs.foreach(o => walk(o.plan))
    res.plan.states.foreach(s => walk(s.plan))
  }
}
