package repro.core

import repro.SparkSpec
import repro.core.cost.VectorCost
import repro.core.exec.Executor
import repro.core.opt.{Compute, Tempura}
import repro.core.rules.Methods
import repro.core.tvr.Delta
import repro.queries.{LiteQueries, TpcdsLite}
import repro.queries.TpcdsLite._

/** Incremental end-to-end runs of TPC-DS-lite queries: for each selected
  * (query, arrival pattern, method), optimize, execute across the time
  * steps, and oracle-check every output against batch DuckDB. The measured
  * per-time rows of each case are pinned in `exec-pins.txt`, so a change
  * to the executor or its cost accounting must reproduce them exactly.
  */
class IncrementalLiteSpec extends SparkSpec {
  private val SF = 0.001

  private val allMethods = Seq(
    "IM-1" -> Methods.im1, "IM-2" -> Methods.im2, "OJV" -> Methods.ojv,
    "HOV" -> Methods.hov, "Tempura" -> Methods.full)

  /** Pin key -> comma-separated `perTimeRows`. */
  private val golden: Map[String, String] = {
    val src = scala.io.Source.fromResource("exec-pins.txt")(scala.io.Codec.UTF8)
    try src.getLines().filter(_.nonEmpty).map { l =>
      val Array(key, rows) = l.split(' '); key -> rows
    }.toMap
    finally src.close()
  }

  /** One case over `k` time steps: under c̃_w (PDW) one output at the last
    * time, under c̃_v (IVM, `ivm = true`) an output at every time.
    */
  private def runCase(qName: String, pattern: Pattern, methodName: String,
                      methods: Methods, ivm: Boolean = false, k: Int = 2): Unit = {
    val q = LiteQueries.byName(qName)
    val in = TpcdsLite.inputsFor(spark, q, pattern, SF, k)
    val (outTimes, costFn, tag) =
      if (ivm) (0 until k, VectorCost(k), "v") else (Seq(k - 1), Harness.pdwCost2, "w")
    val problem = Harness.problemFromData(q, in, outTimes, costFn,
      retractions = pattern.retractTables)
    val (_, exec) = Harness.optimizeAndRun(spark, problem, in, methods)
    assert(exec.outputs.map(_._1) == outTimes)
    Harness.checkOutputs(exec, q, in)
    val key = s"$qName/${pattern.name}/$methodName/$tag/T=$k"
    val rows = exec.perTimeRows.mkString(",")
    assert(golden.get(key).contains(rows), s"$key measured $rows")
  }

  // q93 (simple outer join + agg): full grid of patterns x methods
  for (p <- TpcdsLite.patterns; (mn, m) <- allMethods) {
    test(s"q93 / ${p.name} / $mn") { runCase("q93", p, mn, m) }
  }

  // q40 (outer join + 3 dims): HOV-relevant; with and without retractions
  for (p <- Seq(DeltaBig, DeltaRS); (mn, m) <- Seq(
    "Tempura" -> Methods.full, "HOV" -> Methods.hov, "OJV" -> Methods.ojv)) {
    test(s"q40 / ${p.name} / $mn") { runCase("q40", p, mn, m) }
  }

  // q20 (star inner joins + agg): delta-small favours HOV
  for ((mn, m) <- allMethods) {
    test(s"q20 / delta-small / $mn") { runCase("q20", DeltaSmall, mn, m) }
  }

  // q10 / q35 (semi + multiple lo joins)
  test("q10 / delta-big / Tempura") { runCase("q10", DeltaBig, "Tempura", Methods()) }
  test("q10 / delta-big / IM-2") {
    runCase("q10", DeltaBig, "IM-2", Methods.im2)
  }
  test("q35 / delta-big / Tempura") { runCase("q35", DeltaBig, "Tempura", Methods()) }

  // q80 (three outer-join channels + union)
  test("q80 / delta-big / Tempura") { runCase("q80", DeltaBig, "Tempura", Methods()) }

  // IVM setting: outputs at every time
  test("q93 / delta-big / Tempura under IVM (outputs at every run)") {
    runCase("q93", DeltaBig, "Tempura", Methods(), ivm = true)
  }
  // three steps: a state loads another state saved at the same time
  for (q <- Seq("q93", "q40")) {
    test(s"$q / delta-RS / Tempura under IVM, |T|=3 (outputs at every run)") {
      runCase(q, DeltaRS, "Tempura", Methods.full, ivm = true, k = 3)
    }
  }

  // the executor persists and counts only the nodes it keeps; every other
  // node's row count is observed inside its consumer's job
  test("q93 / delta-big / Tempura starts one Spark job per kept node and output") {
    val q = LiteQueries.byName("q93")
    val in = TpcdsLite.inputsFor(spark, q, DeltaBig, SF, 2)
    val problem = Harness.problemFromData(q, in, Seq(1), Harness.pdwCost2)
    val plan = Tempura.optimize(problem, Methods.full).plan
    val executor = new Executor(spark, plan, in.view.mapValues(_.map(Delta.attach)).toMap, 2)
    val (exec, jobs) = SparkSpec.countJobs(spark)(executor.run())
    val nodes = (plan.states.map(_.plan) ++ plan.outputs.map(_.plan)).flatMap(all).distinct
    val kept = nodes.filter(Executor.kept(plan))
    assert(jobs == kept.size + plan.outputs.size)
    assert(jobs == 4)
    assert(golden.get("q93/delta-big/Tempura/w/T=2").contains(exec.perTimeRows.mkString(",")))
  }

  private def all(p: repro.core.opt.PlanNode): Seq[(Int, Int)] = p match {
    case Compute(g, t, _, cs) => (g, t) +: cs.flatMap(all)
    case _                    => Nil // a loaded state was counted where it was saved
  }
}
