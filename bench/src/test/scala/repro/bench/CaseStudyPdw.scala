package repro.bench

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.benchlib.Scenarios
import repro.core.Harness
import repro.core.cost.WeightedCost
import repro.core.exec.Executor
import repro.core.opt.Tempura
import repro.core.tvr.{Delta, Plans}
import repro.queries.{TpcdsLite, WorkloadGen}

/** Fig. 6(e)(f) + Fig. 7(h)(i): the progressive-data-warehouse case study.
  *
  * Each recurring job is executed two ways: TDW (all data at 24:00, batch
  * plan, weight 1.0) and PDW (incremental runs at 14:00/19:00/24:00 with
  * weights 0.25/0.3/1.0, plans from Tempura). We report the PDW-to-TDW
  * ratio distribution of the weighted cost and of the 24:00 cost, the total
  * cost breakdowns, and a per-job sample — the paper's W-A/W-B are
  * downscaled to `REPRO_CASE_JOBS` jobs per workload (default 10) at
  * SF `REPRO_CASE_SF` (default 0.005).
  */
class CaseStudyPdw extends SparkSpec {
  private val sf = sys.env.getOrElse("REPRO_CASE_SF", "0.005").toDouble
  private val nJobs = sys.env.getOrElse("REPRO_CASE_JOBS", "6").toInt
  private val weights = Vector(0.25, 0.3, 1.0)
  private val cf = WeightedCost(weights)

  private final case class JobResult(name: String, tdw: Double, pdwWeighted: Double,
                                     pdwByTime: Vector[Double])

  private def runJob(job: WorkloadGen.Job): JobResult = {
    val in = TpcdsLite.inputsFor(spark, job.query, job.pattern, sf, numTimes = 3,
      seed = math.abs(job.name.hashCode) % 1000)
    val cached = in.view.mapValues(_.map { d => val p = Delta.attach(d).persist(); p.count(); p }).toMap
    // PDW: incremental plan over the real arrival
    val pProb = Harness.problemFromData(job.query, cached, Seq(2), cf)
    val pRes = Tempura.optimize(pProb)
    val pExec = new Executor(spark, pRes.plan, cached, 3).run()
    // TDW: everything arrives at 24:00; batch plan
    val batched = cached.view.mapValues { ds =>
      Vector.fill(2)(Plans.on(Delta.attach(ds.head))(Delta.empty)) :+ Delta.collapse(Delta.unionAll(ds))
    }.toMap
    val tProb = Harness.problemFromData(job.query, batched, Seq(2), cf)
    val tRes = Tempura.optimize(tProb)
    val tExec = new Executor(spark, tRes.plan, batched, 3).run()
    cached.values.flatten.foreach(_.unpersist())
    JobResult(job.name, tExec.weighted(weights), pExec.weighted(weights), pExec.perTimeRows)
  }

  private lazy val results: Map[String, Seq[JobResult]] = Map(
    "W-A" -> WorkloadGen.workload("W-A", nJobs, seed = 1).map(runJob),
    "W-B" -> WorkloadGen.workload("W-B", nJobs, seed = 2).map(runJob))

  private def cdf(ratios: Seq[Double]): Seq[(String, Double)] = {
    val sorted = ratios.sorted
    Seq(0.1, 0.25, 0.5, 0.75, 0.9).map(q =>
      f"p${(q * 100).toInt}" -> sorted(((sorted.size - 1) * q).toInt))
  }

  test("Fig 6(e): cumulative distribution of PDW-to-TDW weighted cost ratio") {
    val rows = results.toSeq.map { case (w, rs) =>
      val ratios = rs.map(r => r.pdwWeighted / math.max(r.tdw, 1e-9))
      val better = 100.0 * ratios.count(_ < 1.0) / ratios.size
      w +: (cdf(ratios).map { case (_, v) => f"$v%.2f" } :+ f"$better%.0f%%")
    }
    Scenarios.printTable("Fig 6(e) — PDW/TDW weighted cost ratio",
      Seq("workload", "p10", "p25", "p50", "p75", "p90", "% jobs cheaper"), rows)
    for ((w, rs) <- results) {
      val total = rs.map(_.pdwWeighted).sum / rs.map(_.tdw).sum
      println(f"$w total PDW/TDW weighted cost = $total%.3f")
      assert(total < 1.0, s"$w: PDW must reduce total weighted cost")
    }
  }

  test("Fig 6(f): PDW-to-TDW ratio of the 24:00 cost") {
    val rows = results.toSeq.map { case (w, rs) =>
      val ratios = rs.map(r => r.pdwByTime.last / math.max(r.tdw, 1e-9))
      val reduced = 100.0 * ratios.count(_ < 1.0) / ratios.size
      w +: (cdf(ratios).map { case (_, v) => f"$v%.2f" } :+ f"$reduced%.0f%%")
    }
    Scenarios.printTable("Fig 6(f) — PDW/TDW cost ratio at 24:00",
      Seq("workload", "p10", "p25", "p50", "p75", "p90", "% jobs reduced"), rows)
    for ((w, rs) <- results) {
      val peak = rs.map(_.pdwByTime.last).sum / rs.map(_.tdw).sum
      assert(peak < 1.0, s"$w: PDW must offload work away from the 24:00 peak")
    }
  }

  test("Fig 7(h): total CPU cost breakdowns") {
    val rows = results.toSeq.map { case (w, rs) =>
      val t14 = rs.map(_.pdwByTime(0)).sum; val t19 = rs.map(_.pdwByTime(1)).sum
      val t24 = rs.map(_.pdwByTime.last).sum
      val tdw = rs.map(_.tdw).sum
      val pdwWeighted = rs.map(_.pdwWeighted).sum
      val overhead = 100.0 * ((t14 + t19 + t24) - tdw) / tdw
      Seq(w, f"$tdw%.0f", f"$t14%.0f", f"$t19%.0f", f"$t24%.0f",
        f"$pdwWeighted%.0f", f"$overhead%.1f%%")
    }
    Scenarios.printTable("Fig 7(h) — cost breakdowns (TDW vs PDW at 14/19/24h)",
      Seq("workload", "TDW@24", "PDW@14", "PDW@19", "PDW@24", "PDW weighted", "PDW overhead"),
      rows)
  }

  test("Fig 7(i): per-job costs (sample)") {
    val sample = results.values.flatten.toSeq.take(30)
    Scenarios.printTable("Fig 7(i) — per-job TDW vs PDW weighted cost",
      Seq("job", "TDW", "PDW", "ratio"),
      sample.map(r => Seq(r.name, f"${r.tdw}%.0f", f"${r.pdwWeighted}%.0f",
        f"${r.pdwWeighted / math.max(r.tdw, 1e-9)}%.2f")))
  }
}
