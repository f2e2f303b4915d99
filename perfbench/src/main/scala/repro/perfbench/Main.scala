package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession

/** The benchmark harness: one JVM, one local SparkSession, one case at a time.
  *
  * Set-up starts Spark, generates the workload's inputs from the seed (three
  * times; the median counts) and runs one warm-up pass. Then it runs passes
  * over the workload's cases until `--seconds` have passed and there have
  * been two untraced passes; the outputs of the first (and of the first
  * traced one) go to the oracle. With
  * `--trace 1` the passes alternate between untraced and traced ones: the
  * traced ones record a span per layer call, with Spark job counts, and give
  * the per-layer metrics; the difference in pass time is the tracing overhead.
  *
  * Writes every metric as `name value unit` lines and as a JSON object to
  * `--out`; the spans of the traced passes go to `--spans`.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, spans: String)

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") == "1", need("out"), m.getOrElse("spans", need("out") + ".spans.json"))
    require(Workloads.names.contains(a.workload),
      s"unknown workload ${a.workload}; expected one of ${Workloads.names.mkString(", ")}")
    a
  }

  private def session(): SparkSession = SparkSession.builder()
    .master(s"local[${Runtime.getRuntime.availableProcessors}]")
    .appName("repro-perfbench")
    // shuffle joins as in the test suites; the inputs are a few thousand rows,
    // so one shuffle partition and no adaptive re-planning keep the per-job
    // overhead that dominates at this scale low
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.sql.shuffle.partitions", 1)
    .config("spark.sql.adaptive.enabled", false)
    // generated inputs do not depend on the number of cores
    .config("spark.default.parallelism", 4)
    .config("spark.ui.enabled", false)
    // storage figures are current as soon as the listener bus is drained
    .config("spark.ui.liveUpdate.period", "0")
    .getOrCreate()

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  final case class Pass(traced: Boolean, results: Seq[CaseResult], spans: Vector[Span],
                        gcS: Double) {
    def sum(k: String): Double = results.map(_(k)).sum
    /** Stats + plan + execute time; the oracle is left out. */
    def seconds: Double = sum("stats.s") + sum("opt.s") + sum("opt.solve_s") + sum("exec.s")
    def failed: Int = results.count(_.failure.nonEmpty)
    /** Outputs of completed cases: checked by the oracle in the first pass,
      * and repeating its measured rows in the others.
      */
    def verifiedOutputs: Double = results.filter(_.failure.isEmpty).map(_("outputs")).sum
    def jobs(layer: String): Double = spans.filter(_.name == layer).map(_.jobs).sum.toDouble
    def selfSeconds(layer: String): Double = {
      val self = Recorder.selfSeconds(spans)
      spans.filter(_.name == layer).map(s => self(s.id)).sum
    }
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val toMain = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val t0 = System.nanoTime()
    val spark = session()
    val wl = Workloads(a.workload, a.seed)
    val sessionS = (System.nanoTime() - t0) / 1e9

    val genS = Seq.fill(3) {
      val g0 = System.nanoTime()
      val in = wl.dataCases.map(c => c -> Workloads.inputs(spark, c, a.seed)).toMap
      ((System.nanoTime() - g0) / 1e9, in)
    }
    val runner = new Runner(spark, genS.last._2.map { case (c, in) =>
      c.id -> CaseData(in, Workloads.oracleTables(c, in))
    })

    def pass(n: Int, traced: Boolean): Pass = {
      val rec = new Recorder(spark.sparkContext, traced)
      val gc0 = gcSeconds()
      val results = wl.cases.map { c =>
        val r = runner.run(c, rec, check = n == 1 || (traced && n == 2))
        val status = r.failure.map(f => s"FAILED ${if (r.mismatch) "(oracle) " else ""}$f").getOrElse("ok")
        println(f"pass $n%d${if (traced) " traced" else ""}%s ${c.id}%s: stats ${r("stats.s")}%.3f s, " +
          f"plan ${r("opt.s")}%.3f s, exec ${r("exec.s")}%.3f s, oracle ${r("oracle.s")}%.3f s, $status%s")
        r.failure.foreach(f => Console.err.println(
          s"[perfbench] failure workload=${a.workload} case=${c.id} seed=${a.seed} message=$f"))
        r
      }
      val spans = rec.spans()
      rec.stop()
      Pass(traced, results, spans, gcSeconds() - gc0)
    }

    val w0 = System.nanoTime()
    pass(0, traced = false) // warm-up
    val warmS = (System.nanoTime() - w0) / 1e9
    val setupS = toMain + sessionS + median(genS.map(_._1)) + warmS
    println(f"set-up: JVM $toMain%.3f s, Spark $sessionS%.3f s, inputs ${genS.map(_._1).mkString(", ")} s, " +
      f"warm-up pass $warmS%.3f s")

    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    var passes = Vector.empty[Pass]
    // two untraced passes at least; a traced run needs one of each
    val minPlain = if (a.trace) 1 else 2
    while (elapsed < a.seconds || passes.count(!_.traced) < minPlain || (a.trace && !passes.exists(_.traced)))
      passes :+= pass(passes.size + 1, traced = a.trace && passes.size % 2 == 1)
    val plain = passes.filterNot(_.traced)
    val traced = passes.filter(_.traced)

    // values that must repeat exactly from pass to pass
    val repeated = Seq("est_cost", "real_cost", "plans", "opt.states", "memo.nodes")
      .map(k => k -> passes.map(_.sum(k))) :+ ("exec.jobs" -> traced.map(_.jobs("exec")))
    val checks = repeated.collect {
      case (k, vs) if vs.distinct.size > 1 => s"$k differs between passes: ${vs.mkString(", ")}"
    }
    checks.foreach(c => Console.err.println(s"[perfbench] check failed workload=${a.workload} seed=${a.seed}: $c"))
    val mismatches = passes.flatMap(_.results).count(_.mismatch)

    val attempted = passes.map(_.results.size).sum
    val failed = passes.map(_.failed).sum
    val p1 = plain.head
    def med(ps: Seq[Pass])(f: Pass => Double) = median(ps.map(f))

    val endToEnd: Seq[(String, Double, String)] = Seq(
      ("setup_s", setupS, "s"),
      ("est_cost", p1.sum("est_cost"), "cost"),
      ("outputs_per_min", 60 * plain.map(_.verifiedOutputs).sum / plain.map(_.seconds).sum, "1/min"),
      ("pass_s", med(plain)(_.seconds), "s"),
      ("last_run_s", med(plain)(_.sum("exec.last_run_s")), "s"),
      ("real_cost", p1.sum("real_cost"), "rows"),
      ("cached_mb", med(plain)(_.sum("exec.cached_mb")), "MB"),
      ("fail_ratio", failed.toDouble / attempted, "ratio"),
      ("ok_ratio", 1 - failed.toDouble / attempted, "ratio"))

    val tp = if (traced.nonEmpty) traced else plain
    def tmed(f: Pass => Double) = med(tp)(f)
    val smo = tmed(_.sum("opt.smo_s")); val solve = tmed(_.sum("opt.solve_s"))
    val attempts = tmed(_.sum("rules.attempts")); val fires = tmed(_.sum("rules.fires"))
    val execJobs = tmed(_.jobs("exec"))
    val layers = Seq("stats", "opt", "rules", "opt.solve", "exec")
    val perLayer: Seq[(String, Double, String)] = Seq(
      ("opt.plans_per_min", 60 * tp.map(_.sum("plans")).sum / tp.map(_.sum("opt.s")).sum, "1/min"),
      ("opt.plan_max_s", tmed(_.results.map(_("opt.s")).max), "s"),
      ("opt.smo_s", smo, "s"),
      ("opt.solve_s", solve, "s"),
      ("opt.solves_equiv", if (solve > 0) smo / solve else 0.0, "count"),
      ("opt.states", tmed(_.sum("opt.states")), "count"),
      ("opt.plan_nodes", tmed(_.sum("opt.plan_nodes")), "count"),
      ("rules.explore_s", tmed(_.sum("rules.s")), "s"),
      ("rules.attempts", attempts, "count"),
      ("rules.fires", fires, "count"),
      ("rules.fire_ratio", if (attempts > 0) fires / attempts else 0.0, "ratio"),
      ("memo.groups", tmed(_.sum("memo.groups")), "count"),
      ("memo.nodes", tmed(_.sum("memo.nodes")), "count"),
      ("stats.s", tmed(_.sum("stats.s")), "s"),
      ("stats.jobs", tmed(_.jobs("stats")), "count"),
      ("exec.s", tmed(_.sum("exec.s")), "s"),
      ("exec.jobs", execJobs, "count"),
      ("exec.jobs_per_node", execJobs / tmed(_.sum("exec.plan_nodes")), "ratio"),
      ("exec.early_runs_s", tmed(_.sum("exec.early_runs_s")), "s"),
      ("exec.last_run_s", tmed(_.sum("exec.last_run_s")), "s"),
      ("exec.rows", tmed(_.sum("exec.rows")), "rows"),
      ("exec.state_rows", tmed(_.sum("exec.state_rows")), "rows"),
      ("exec.cached_mb", tmed(_.sum("exec.cached_mb")), "MB"),
      ("oracle.s", tmed(_.sum("oracle.s")), "s"),
      ("oracle.jobs", tmed(_.jobs("oracle")), "count"),
      ("oracle.checks", tmed(_.sum("oracle.checks")), "count"),
      ("jvm.gc_s", tmed(_.gcS), "s"),
      ("trace.pass_s", tmed(_.seconds), "s"),
      ("trace.overhead_s", tmed(_.seconds) - med(plain)(_.seconds), "s"),
      ("trace.self_share", tmed(p => layers.map(p.selfSeconds).sum) / med(plain)(_.seconds), "ratio"))

    println(f"workload ${a.workload} seed ${a.seed} passes ${plain.size} untraced + ${traced.size} traced, " +
      f"$attempted attempted, $failed failed, $mismatches oracle mismatches")
    for ((n, v, u) <- endToEnd ++ perLayer) println(f"  $n%-20s $v%.6f $u")

    val origin = passes.flatMap(_.spans).map(_.startNs).minOption.getOrElse(0L)
    if (a.trace) Files.write(Paths.get(a.spans),
      Recorder.toJson(passes.flatMap(_.spans), origin).getBytes(StandardCharsets.UTF_8))
    def obj(ms: Seq[(String, Double, String)]) =
      ms.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }.mkString("{", ", ", "}")
    val correct = mismatches == 0 && checks.isEmpty
    Files.write(Paths.get(a.out),
      (s"""{"workload": "${a.workload}", "seed": ${a.seed}, "correct": $correct, """ +
       s""""attempted": $attempted, "failed": $failed, "end_to_end": ${obj(endToEnd)}, """ +
       s""""per_layer": ${obj(perLayer)}}""").getBytes(StandardCharsets.UTF_8))
    spark.stop()
  }
}
