package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.core.algebra.RelOp
import repro.core.cost._
import repro.core.exec.{ExecReport, Executor}
import repro.core.opt.{OptResult, Tempura}
import repro.core.rules.{IqpProblem, Methods, OptFlags}
import repro.core.stats.TvrStats
import repro.core.tvr.{Delta, Plans}

/** Shared helpers for optimizer end-to-end tests and benches. */
object Harness {

  /** Build an IQP problem with stats computed exactly from the input data,
    * in one aggregate job for all tables ([[TvrStats.fromTables]]). A table
    * has retractions if its data has a negative multiplicity or it is named
    * in `retractions`, which can add caution but never hide a retraction.
    */
  def problemFromData(query: RelOp, inputs: Map[String, Vector[DataFrame]],
                      outputTimes: Seq[Int], costFn: CostFn,
                      retractions: Set[String] = Set.empty): IqpProblem = {
    val tables = inputs.toSeq
    val stats = TvrStats.fromTables(tables.map { case (t, deltas) =>
      deltas -> query.scans.find(_.table == t).get.schema
    })
    IqpProblem(inputs.head._2.size, query, outputTimes, tables.zip(stats).map { case ((t, _), s) =>
      t -> (if (retractions(t)) s.copy(hasRetractions = true) else s)
    }.toMap, costFn)
  }

  /** Optimize and execute; returns plan + runtime report. */
  def optimizeAndRun(spark: SparkSession, problem: IqpProblem,
                     inputs: Map[String, Vector[DataFrame]],
                     methods: Methods = Methods(),
                     flags: OptFlags = OptFlags()): (OptResult, ExecReport) = {
    val res = Tempura.optimize(problem, methods, flags)
    val exec = new Executor(spark, res.plan, inputs.view.mapValues(_.map(Delta.attach)).toMap,
      problem.numTimes).run()
    (res, exec)
  }

  /** Oracle-check every output of an incremental run: the output at time t
    * against batch SQL over the inputs merged through t.
    */
  def checkOutputs(exec: ExecReport, query: RelOp,
                   inputs: Map[String, Vector[DataFrame]]): Unit =
    for ((t, out) <- exec.outputs) {
      val tables = inputs.toSeq.map { case (tb, deltas) =>
        tb -> Plans.on(deltas.take(t + 1).map(Delta.attach))(ps => Delta.expand(Delta.unionAll(ps)))
      }
      try Oracle.assertEquivalent(Plans.on(out)(Delta.expand), query.toSql, tables: _*)
      catch { case e: IllegalArgumentException =>
        throw new IllegalArgumentException(s"output at t=$t: ${e.getMessage}", e) }
    }

  val pdwCost2: CostFn = WeightedCost(Vector(0.25, 1.0))
  val ivmCost2: CostFn = VectorCost(2)
}
