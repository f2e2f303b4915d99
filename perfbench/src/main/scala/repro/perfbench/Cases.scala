package repro.perfbench

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.benchlib.Scenarios
import repro.core.Harness
import repro.core.cost.{CostFn, TCost, VectorCost, WeightedCost}
import repro.core.exec.Executor
import repro.core.opt.{Compute, Dp, LoadState, OptResult, PlanNode, Tempura}
import repro.core.rules.{IqpProblem, Methods}
import repro.core.tvr.Delta
import repro.queries.{LiteQueries, QueryStats, TpcdsLite}
import repro.queries.TpcdsLite.{DeltaBig, DeltaRS, Pattern}

/** One case of a workload: a query planned (and, for a [[DataCase]], run and
  * checked) once per pass.
  */
sealed trait BenchCase { def id: String }

/** Planner only, from synthetic SF-1 statistics (§8.4). */
final case class PlanCase(id: String, problem: IqpProblem) extends BenchCase

/** Statistics, plan, execution and oracle check over generated data. */
final case class DataCase(id: String, query: String, pattern: Pattern, numTimes: Int,
                          outputTimes: Seq[Int], costFn: CostFn, method: (String, Methods))
    extends BenchCase

/** A case's outcome in one pass: `failure` holds the exception or oracle
  * mismatch, `v` the measured values by metric name.
  */
final case class CaseResult(failure: Option[String], mismatch: Boolean, v: Map[String, Double]) {
  def apply(k: String): Double = v.getOrElse(k, 0.0)
}

final case class Workload(cases: Seq[BenchCase]) {
  def dataCases: Seq[DataCase] = cases.collect { case d: DataCase => d }
}

object Workloads {
  val names: Seq[String] = Seq("plan-sweep", "pdw-2step", "ivm-3step")

  private val SF = 0.001
  private val SweepPdwK = 3
  private val SweepIvmK = 2

  private val pdwCost = WeightedCost(Vector(0.25, 1.0))

  private def pdw(q: String, p: Pattern, m: (String, Methods)) =
    DataCase(s"$q/${p.name}/${m._1}/pdw2", q, p, 2, Seq(1), pdwCost, m)

  private def ivm(k: Int)(q: String, p: Pattern, m: (String, Methods)) =
    DataCase(s"$q/${p.name}/${m._1}/ivm$k", q, p, k, 0 until k, VectorCost(k), m)
  private val ivm2 = ivm(2) _
  private val ivm3 = ivm(3) _

  private val tempura = "Tempura" -> Methods.full
  private val hov = "HOV" -> Methods.hov

  /** The Table-2 queries under PDW (weighted cost, output at the last time)
    * and under IVM (vector cost, an output at every time).
    */
  private def sweep: Seq[BenchCase] =
    QueryStats.paperTable2.map(_._1).flatMap { q =>
      val root = LiteQueries.byName(q)
      Seq(
        PlanCase(s"$q/pdw$SweepPdwK", Scenarios.planningProblem(root, SweepPdwK)),
        PlanCase(s"$q/ivm$SweepIvmK", IqpProblem(SweepIvmK, root, 0 until SweepIvmK,
          Scenarios.syntheticStats(root, 1.0, SweepIvmK), VectorCost(SweepIvmK))))
    }

  /** The workload's cases; the seed orders the plan-sweep cases. */
  def apply(name: String, seed: Long): Workload = name match {
    case "plan-sweep" =>
      // q93 also runs end to end (IVM, two steps) so that every layer reports
      Workload(new scala.util.Random(seed).shuffle(sweep :+ ivm2("q93", DeltaRS, tempura)))
    case "pdw-2step" =>
      Workload(Seq(pdw("q93", DeltaBig, tempura), pdw("q40", DeltaRS, hov)))
    case "ivm-3step" =>
      // q93 and q40 fail in Executor.run, so BENCHMARK.json does not list it
      Workload(Seq("q20", "q93", "q40").map(ivm3(_, DeltaRS, tempura)))
  }

  /** A data case's inputs, generated from the seed and held as local
    * relations: the program reads them without regenerating them, and
    * clearing Spark's cache between cases keeps them.
    */
  def inputs(spark: SparkSession, c: DataCase, seed: Long): Map[String, Vector[DataFrame]] =
    TpcdsLite.inputsFor(spark, LiteQueries.byName(c.query), c.pattern, SF, c.numTimes, seed)
      .view.mapValues(_.map(d => spark.createDataFrame(d.collect().toSeq.asJava, d.schema)))
      .toMap

  /** The oracle's tables for each output time: the inputs merged through it. */
  def oracleTables(c: DataCase, in: Map[String, Vector[DataFrame]])
      : Map[Int, Seq[(String, DataFrame)]] =
    c.outputTimes.map { t =>
      t -> in.toSeq.map { case (name, deltas) =>
        name -> Delta.expand(Delta.collapse(Delta.unionAll(deltas.take(t + 1).map(Delta.attach))))
      }
    }.toMap
}

final case class CaseData(inputs: Map[String, Vector[DataFrame]],
                          oracleTables: Map[Int, Seq[(String, DataFrame)]])

/** Runs one case through the program's public entry points, timing each
  * layer call with the recorder.
  */
final class Runner(spark: SparkSession, caseData: Map[String, CaseData]) {

  /** Run a case; `check` compares its outputs with the oracle. */
  def run(c: BenchCase, rec: Recorder, check: Boolean): CaseResult = {
    spark.catalog.clearCache()
    val r = new Run(c, rec, check)
    val failure = try {
      rec.time("case", c.id) {
        c match {
          case p: PlanCase =>
            val res = r.plan(p.problem, Methods.full)
            val covered = res.plan.outputs.map(_.time).toSet
            require(p.problem.outputTimes.forall(covered), s"plan lacks outputs: $covered")
          case d: DataCase => r.data(d)
        }
      }
      None
    } catch {
      case NonFatal(e) =>
        Some(s"${e.getClass.getSimpleName}: ${e.getMessage}".linesIterator.mkString(" "))
    }
    CaseResult(failure, r.mismatch, r.v.toMap)
  }

  private final class Run(c: BenchCase, rec: Recorder, check: Boolean) {
    val v = mutable.LinkedHashMap[String, Double]().withDefaultValue(0.0)
    var mismatch = false

    /** A timed call into `layer`; its seconds add to `key`, also on failure. */
    def stage[A](layer: String, key: String)(body: => A): A = {
      val t0 = System.nanoTime()
      try rec.time(layer, c.id)(body)
      finally v(key) += (System.nanoTime() - t0) / 1e9
    }

    def plan(problem: IqpProblem, methods: Methods): OptResult = {
      val res = stage("opt", "opt.s")(Tempura.optimize(problem, methods))
      rec.firstPhase("rules", res.pseNanos)
      val est = problem.costFn.scalarize(res.estCost)
      require(!est.isNaN && !est.isInfinite, s"estimated cost is $est")
      v("plans") += 1
      v("est_cost") += est
      v("rules.s") += res.pseNanos / 1e9
      v("opt.smo_s") += res.smoNanos / 1e9
      v("rules.attempts") += res.exploration.memo.nRuleAttempts.toDouble
      v("rules.fires") += res.exploration.memo.nRuleFires.toDouble
      v("memo.groups") += res.memoGroups
      v("memo.nodes") += res.memoNodes
      v("opt.states") += res.plan.states.size
      v("opt.plan_nodes") += Runner.nodes(res)
      if (rec.traced) {
        // one from-scratch temporal DP over the explored memo: the unit of SMO work
        val dp = new Dp(res.exploration.memo, problem)
        stage("opt.solve", "opt.solve_s")(dp.solve(Map.empty))
      }
      res
    }

    def data(d: DataCase): Unit = {
      val q = LiteQueries.byName(d.query)
      val in = caseData(d.id).inputs
      val problem = stage("stats", "stats.s")(
        Harness.problemFromData(q, in, d.outputTimes, d.costFn, d.pattern.retractTables))
      val res = plan(problem, d.method._2)
      v("exec.plan_nodes") += Runner.nodes(res)
      val exec = stage("exec", "exec.s")(new Executor(spark, res.plan,
        in.view.mapValues(_.map(Delta.attach)).toMap, d.numTimes).run())
      val steps = exec.perTimeWallMs.map(_ / 1000)
      v("exec.last_run_s") += steps.last
      v("exec.early_runs_s") += steps.init.sum
      v("exec.rows") += exec.totalRows
      v("exec.state_rows") += exec.stateRows
      v("real_cost") += d.costFn.scalarize(TCost(exec.perTimeRows))
      Recorder.drainListenerBus(spark.sparkContext)
      v("exec.cached_mb") += spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1e6
      // every output time against DuckDB over the inputs merged through that time
      for ((t, out) <- exec.outputs if check) {
        val tables = caseData(d.id).oracleTables(t)
        try stage("oracle", "oracle.s")(Oracle.assertEquivalent(Delta.expand(out), q.toSql, tables: _*))
        catch { case NonFatal(e) => mismatch = true; throw e }
        v("oracle.checks") += 1
      }
      v("outputs") = exec.outputs.size
    }
  }
}

object Runner {
  private def size(p: PlanNode): Int = p match {
    case Compute(_, _, _, cs) => 1 + cs.map(size).sum
    case _: LoadState         => 1
  }

  /** Plan nodes over all state and output trees of a plan. */
  def nodes(res: OptResult): Int =
    (res.plan.states.map(_.plan) ++ res.plan.outputs.map(_.plan)).map(size).sum
}
