package repro.core

import org.apache.spark.sql.{DataFrame, classic}
import org.apache.spark.sql.execution.{SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.execution.columnar.{InMemoryRelation, InMemoryTableScanExec}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.metrics.source.CodegenMetrics
import repro.SparkSpec
import repro.core.algebra._
import repro.core.cost.VectorCost
import repro.core.exec.{ExecReport, Executor}
import repro.core.memo.{MHovInit, MHovStep, MOp}
import repro.core.opt.{Compute, IncrementalPlan, LoadState, PlanNode, Tempura}
import repro.core.rules.Methods
import repro.core.tvr.{Delta, Plans}
import repro.queries.{LiteQueries, TpcdsLite}
import repro.queries.TpcdsLite._

/** Incremental end-to-end runs of TPC-DS-lite queries: for each selected
  * (query, arrival pattern, method), optimize, execute across the time
  * steps, and oracle-check every output against batch DuckDB. The measured
  * per-time rows of each case are pinned in `exec-pins.txt`, so a change
  * to the executor or its cost accounting must reproduce them exactly.
  * The grid runs at one shuffle partition, as the benchmark does; a subset
  * runs again at 16 ([[gridTest]]).
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

  private type Inputs = Map[String, Vector[DataFrame]]

  /** One planned case: its pin key, inputs, output times, plan and the
    * executor that will run it. */
  private case class Case(key: String, query: RelOp, inputs: Inputs,
                          outTimes: Seq[Int], plan: IncrementalPlan, executor: Executor)

  /** q93 with a MIN or a MAX call beside incrementable ones: an aggregate
    * with no incremental state. */
  private val minMaxQueries: Map[String, RelOp] = {
    val AggOp(in, keys, Seq(net)) = LiteQueries.q93: @unchecked
    val act = Some(Col("act"))
    Map(
      "q93-min" -> AggOp(in, keys, Seq(AggCall(MinF, act, "lo_paid"), net, AggCall(CountStarF, None, "n"))),
      "q93-max" -> AggOp(in, keys, Seq(AggCall(MaxF, act, "hi_paid"), AggCall(CountF, act, "n"))))
  }

  /** q93 with an AVG in place of its SUM. */
  private val avgQuery: RelOp = {
    val AggOp(in, keys, _) = LiteQueries.q93: @unchecked
    AggOp(in, keys, Seq(AggCall(AvgF, Some(Col("act")), "avg_paid")))
  }

  private def query(qName: String): RelOp =
    if (qName == "q93-avg") avgQuery else minMaxQueries.getOrElse(qName, LiteQueries.byName(qName))

  /** Plan one case over `k` time steps: under c̃_w (PDW) one output at the
    * last time, under c̃_v (IVM, `ivm = true`) an output at every time.
    * `edit` changes the generated inputs.
    */
  private def planCase(qName: String, pattern: Pattern, methodName: String,
                       methods: Methods, ivm: Boolean = false, k: Int = 2,
                       edit: Inputs => Inputs = identity): Case = {
    val q = query(qName)
    val in = edit(TpcdsLite.inputsFor(spark, q, pattern, SF, k))
    val (outTimes, costFn, tag) =
      if (ivm) (0 until k, VectorCost(k), "v") else (Seq(k - 1), Harness.pdwCost2, "w")
    val problem = Harness.problemFromData(q, in, outTimes, costFn,
      retractions = pattern.retractTables)
    val plan = Tempura.optimize(problem, methods).plan
    Case(s"$qName/${pattern.name}/$methodName/$tag/T=$k", q, in, outTimes, plan,
      new Executor(spark, plan, in.view.mapValues(_.map(Delta.attach)).toMap, k))
  }

  /** Check a case's run: an output at every output time, each equal to
    * batch DuckDB. */
  private def checkOutputs(c: Case, exec: ExecReport): Unit = {
    assert(exec.outputs.map(_._1) == c.outTimes)
    Harness.checkOutputs(exec, c.query, c.inputs)
  }

  /** [[checkOutputs]], and the measured per-time rows equal to the pin. */
  private def check(c: Case, exec: ExecReport): Unit = {
    checkOutputs(c, exec)
    val rows = exec.perTimeRows.mkString(",")
    assert(golden.get(c.key).contains(rows), s"${c.key} measured $rows")
  }

  /** `body` at `parts` shuffle partitions, with adaptive execution on only
    * above one (as the benchmark runs at one), and from an empty cache, so
    * no frame cached by an earlier case stands in for a subplan. */
  private def atPartitions[A](parts: Int)(body: => A): A =
    SparkSpec.withConf(spark)("spark.sql.shuffle.partitions" -> parts.toString,
                              "spark.sql.adaptive.enabled" -> (parts > 1).toString) {
      spark.catalog.clearCache()
      body
    }

  /** A grid test at one shuffle partition; with `sixteen`, also at 16
    * partitions as "<name> at 16 partitions", so that path stays tested by
    * one case per query and by the |T| = 3 cases. */
  private def gridTest(name: String, sixteen: Boolean = false)(body: => Unit): Unit = {
    test(name)(atPartitions(1)(body))
    if (sixteen) test(s"$name at 16 partitions")(atPartitions(16)(body))
  }

  private def runCase(qName: String, pattern: Pattern, methodName: String,
                      methods: Methods, ivm: Boolean = false, k: Int = 2): Unit = {
    val c = planCase(qName, pattern, methodName, methods, ivm, k)
    check(c, c.executor.run())
  }

  /** Run and check a case, with the Spark jobs it starts. */
  private def countedRun(c: Case): (ExecReport, Seq[SparkSpec.Job]) = {
    val (exec, jobs) = SparkSpec.jobsOf(spark)(c.executor.run())
    check(c, exec)
    (exec, jobs)
  }

  // q93 (simple outer join + agg): full grid of patterns x methods
  for (p <- TpcdsLite.patterns; (mn, m) <- allMethods) {
    gridTest(s"q93 / ${p.name} / $mn", sixteen = p == DeltaRS && mn == "Tempura") { runCase("q93", p, mn, m) }
  }

  // q40 (outer join + 3 dims): HOV-relevant; with and without retractions
  for (p <- Seq(DeltaBig, DeltaRS); (mn, m) <- Seq(
    "Tempura" -> Methods.full, "HOV" -> Methods.hov, "OJV" -> Methods.ojv)) {
    gridTest(s"q40 / ${p.name} / $mn", sixteen = p == DeltaBig && mn == "Tempura") { runCase("q40", p, mn, m) }
  }

  // q20 (star inner joins + agg): delta-small favours HOV
  for ((mn, m) <- allMethods) {
    gridTest(s"q20 / delta-small / $mn", sixteen = mn == "Tempura") { runCase("q20", DeltaSmall, mn, m) }
  }

  // q10 / q35 (semi + multiple lo joins)
  gridTest("q10 / delta-big / Tempura", sixteen = true) { runCase("q10", DeltaBig, "Tempura", Methods()) }
  gridTest("q10 / delta-big / IM-2") {
    runCase("q10", DeltaBig, "IM-2", Methods.im2)
  }
  gridTest("q35 / delta-big / Tempura", sixteen = true) { runCase("q35", DeltaBig, "Tempura", Methods()) }

  // q80 (three outer-join channels + union)
  gridTest("q80 / delta-big / Tempura", sixteen = true) { runCase("q80", DeltaBig, "Tempura", Methods()) }

  // IVM setting: outputs at every time
  gridTest("q93 / delta-big / Tempura under IVM (outputs at every run)") {
    runCase("q93", DeltaBig, "Tempura", Methods(), ivm = true)
  }
  // three steps: a state loads another state saved at the same time
  for (q <- Seq("q93", "q40")) {
    gridTest(s"$q / delta-RS / Tempura under IVM, |T|=3 (outputs at every run)", sixteen = true) {
      runCase(q, DeltaRS, "Tempura", Methods.full, ivm = true, k = 3)
    }
  }

  // MIN/MAX keep no aggregate state: the aggregate is recomputed from the
  // snapshot of its input wherever the plan needs it
  for (q <- minMaxQueries.keys.toSeq.sorted; (mn, m) <- allMethods; ivm <- Seq(false, true)) {
    gridTest(s"$q / delta-RS / $mn${if (ivm) " under IVM" else ""}: plans, runs and matches DuckDB",
             sixteen = mn == "Tempura" && !ivm) {
      val c = planCase(q, DeltaRS, mn, m, ivm)
      checkOutputs(c, c.executor.run())
    }
  }

  // AVG's multiplicity-weighted average lands a few ulps off the exact one
  // that DuckDB returns, on the other side of a 6-decimal rounding boundary
  // (at 16 partitions, customer 17 at t1: 110.725312 against 110.725313):
  // the oracle compares numbers to within 1e-6
  gridTest("q93-avg / delta-RS / Tempura under IVM matches DuckDB to within 1e-6", sixteen = true) {
    val c = planCase("q93-avg", DeltaRS, "Tempura", Methods.full, ivm = true)
    checkOutputs(c, c.executor.run())
  }

  // no fact rows arrive at t1: kept nodes cache zero rows, and with adaptive
  // execution no observed subtree beside an empty input drops out of its
  // consumer's plan, so none is counted by a job of its own
  private def emptyFactsAtT1(in: Inputs): Inputs = in.map { case (tb, ds) =>
    tb -> (if (TpcdsLite.factTables(tb)) ds.updated(1, Plans.on(ds(1))(Delta.empty)) else ds)
  }
  for ((parts, aqe) <- Seq(1 -> false, 16 -> true); ivm <- Seq(false, true)) {
    val mode = if (ivm) "IVM" else "PDW"
    test(s"q93 / empty fact deltas at t1 / Tempura / $mode at $parts partitions matches DuckDB") {
      atPartitions(parts) {
        val c = planCase("q93", DeltaBig, "Tempura", Methods.full, ivm, edit = emptyFactsAtT1)
        val (exec, jobs) = SparkSpec.jobsOf(spark, adaptive = aqe)(c.executor.run())
        checkOutputs(c, exec)
        val observed = jobs.map(_.props.getProperty("callSite.short")).filter(_.endsWith(" observed"))
        assert(observed.isEmpty, observed)
      }
    }
  }

  // the executor persists and counts only the nodes it keeps; every other
  // node's row count is observed inside its consumer's job
  test("q93 / delta-big / Tempura starts one Spark job per kept node and output") {
    val c = planCase("q93", DeltaBig, "Tempura", Methods.full)
    val jobs = countedRun(c)._2.size
    val kept = ops(c.plan).keys.filter(Executor.kept(c.plan))
    assert(jobs == kept.size + c.plan.outputs.size)
    assert(jobs == 4)
  }

  // the executor builds each kept node's and each output's frame as one
  // plan, lazy nodes and delta operators included, so Spark analyses one
  // plan per kept node and output
  test("a run analyses at most one Catalyst plan per kept node and output") {
    atPartitions(1) {
      for ((q, p, mn, m) <- Seq(("q93", DeltaBig, "Tempura", Methods.full), ("q40", DeltaRS, "HOV", Methods.hov))) {
        val c = planCase(q, p, mn, m)
        val (exec, analyses) = SparkSpec.analysesOf(c.executor.run())
        check(c, exec)
        val bound = ops(c.plan).keys.count(Executor.kept(c.plan)) + c.plan.outputs.size
        assert(analyses > 0 && analyses <= bound, s"${c.key}: $analyses analyses, $bound kept nodes and outputs")
      }
    }
  }

  // with one shuffle partition the executor runs without generated code and
  // without shuffles: rows, outputs and job counts are as with many
  // partitions, and the session's code generation settings are back
  // afterwards. Every job runs in one stage: the cached plan of every kept
  // node and output, at every time step, has no exchange and no generated
  // stage, and no hash aggregate, whose RDD Spark builds through its closure
  // cleaner. A run compiles so few classes that the next run finds them all
  // in Spark's code cache
  test("one shuffle partition: same rows, outputs and jobs; one stage per job, no exchange or generated stage") {
    val codegen = Seq("spark.sql.codegen.wholeStage", "spark.sql.codegen.factoryMode")
    val before = codegen.map(spark.conf.getOption)
    atPartitions(1) {
      for ((q, p, mn, m, ivm, k) <- Seq(
        ("q93", DeltaBig, "Tempura", Methods.full, false, 2),
        ("q40", DeltaRS, "HOV", Methods.hov, false, 2),
        ("q93", DeltaRS, "Tempura", Methods.full, true, 3))) {
        // no frame cached by an earlier case may stand in for a subplan
        spark.catalog.clearCache()
        val c = planCase(q, p, mn, m, ivm, k)
        val (exec, jobs) = countedRun(c)
        assert(codegen.map(spark.conf.getOption) == before)
        assert(jobs.forall(_.stages == 1),
          s"${c.key}: stages per job ${jobs.map(j => j.props.getProperty("callSite.short") -> j.stages)}")
        if (c.key == "q93/delta-big/Tempura/w/T=2") assert(jobs.size == 4 && jobs.map(_.stages).sum == 4)
        // a HOV trigger keeps view bundles, not a frame
        val keptNodes = ops(c.plan).collect {
          case (n, op) if Executor.kept(c.plan)(n) && !op.isInstanceOf[MHovInit] && !op.isInstanceOf[MHovStep] => n
        }.toSeq.sorted
        val cachedPlans = keptNodes.map { n =>
          s"node $n" -> c.executor.keptPlan(n).getOrElse(fail(s"${c.key}: node $n has no cached plan"))
        } ++ exec.outputs.map { case (t, df) =>
          s"output at t$t" -> cacheBuilder(df, s"${c.key}: output at t$t").cachedPlan
        }
        assert(keptNodes.nonEmpty, c.key)
        for ((name, cachedPlan) <- cachedPlans) {
          val found = cachedPlan.collect {
            case e: ShuffleExchangeExec => e
            case w: WholeStageCodegenExec => w
            case h: HashAggregateExec => h
          }
          assert(found.isEmpty, s"${c.key}: $name plans $found")
        }
      }
      // the q40 case twice more, back to back: the second run finds the
      // few classes the first compiled in Spark's code cache
      val compiles = CodegenMetrics.METRIC_COMPILATION_TIME
      val (again, exec, compiled) = Seq.fill(2) {
        spark.catalog.clearCache()
        val c = planCase("q40", DeltaRS, "HOV", Methods.hov)
        val start = compiles.getCount
        val exec = c.executor.run()
        (c, exec, compiles.getCount - start)
      }.last
      check(again, exec)
      assert(compiled <= 10, s"${again.key}: a second run compiled $compiled classes")
    }
  }

  // a kept node's frame is freed once its last reader has run; only the
  // outputs, which the caller reads, stay persisted
  test("after a run the session holds one persisted RDD per output") {
    atPartitions(1) {
      for ((q, p, mn, m) <- Seq(("q93", DeltaBig, "Tempura", Methods.full), ("q40", DeltaRS, "HOV", Methods.hov))) {
        val c = planCase(q, p, mn, m)
        val before = spark.sparkContext.getPersistentRDDs.keySet
        val exec = c.executor.run()
        check(c, exec)
        val held = spark.sparkContext.getPersistentRDDs.keySet -- before
        val outputs = exec.outputs.map { case (t, df) => cacheBuilder(df, s"t$t").cachedColumnBuffers.id }.toSet
        assert(held == outputs && outputs.size == exec.outputs.size, s"${c.key}: persisted $held, outputs $outputs")
      }
    }
  }

  // a kept node's last reader's step is the last step with a job whose
  // cached plan scans the node's buffers (or the node's own step); the
  // node's frame is unpersisted after that step's last job and before the
  // next step's first
  test("q93 / delta-RS / Tempura under IVM, |T|=3 unpersists each kept node right after its last reader's step") {
    atPartitions(1) {
      val c = planCase("q93", DeltaRS, "Tempura", Methods.full, ivm = true, k = 3)
      val (exec, events) = SparkSpec.eventsOf(spark)(c.executor.run())
      check(c, exec)
      // (event index, step, node, output?, RDD id, cached plan) of each job
      val jobs = events.zipWithIndex.collect { case (j: SparkSpec.Job, i) =>
        val label = j.props.getProperty("callSite.short")
        val Label(t, g, nt, op) = label: @unchecked
        val node = (g.toInt, nt.toInt)
        val plan =
          if (op == "output") cacheBuilder(exec.outputs.find(_._1 == t.toInt).get._2, label).cachedPlan
          else c.executor.keptPlan(node).get
        (i, t.toInt, node, op == "output", j.rdd, plan)
      }
      val kept = jobs.filterNot(_._4)
      assert(kept.map(_._3).toSet == Executor.kept(c.plan).filter(computes(c.plan).contains))
      val unpersisted = events.zipWithIndex.collect { case (SparkSpec.Unpersist(rdd), i) => rdd -> i }
      val outputs = jobs.filter(_._4).map(_._5).toSet
      assert(!unpersisted.exists(u => outputs(u._1)), "an output was unpersisted")
      for ((_, own, n, _, rdd, plan) <- kept) {
        val last = (own +: jobs.collect { case (_, t, _, _, _, p) if scans(p).exists(_ eq plan) => t }).max
        val at = unpersisted.collect { case (`rdd`, i) => i }
        assert(at.size == 1, s"node $n: unpersisted ${at.size} times")
        val after = jobs.filter(_._2 <= last).map(_._1).max
        val before = jobs.filter(_._2 > last).map(_._1).minOption.getOrElse(Int.MaxValue)
        assert(after < at.head && at.head < before, s"node $n, last read at t$last: unpersisted as event ${at.head}")
      }
    }
  }

  // a consumer reads each kept node it depends on as an in-memory leaf, not
  // through the node's lineage, so analysed plans stop growing with t. Over
  // four steps t1 and t2 run the same plan shape; the last step keeps only
  // its output root, so its one plan is the step's whole work
  test("q40 / delta-RS / Tempura under IVM, |T|=4 analyses kept inputs as cached leaves; no larger plans at t2") {
    atPartitions(1) {
      val c = planCase("q40", DeltaRS, "Tempura", Methods.full, ivm = true, k = 4)
      val (exec, analysed) = SparkSpec.analysedPlansOf(c.executor.run())
      checkOutputs(c, exec)
      val kept = Executor.kept(c.plan)
      val nodes = computes(c.plan)
      val entries = c.plan.states.map(s => (s.groupId, s.time) -> s.plan).toMap
      def key(p: PlanNode) = (p.groupId, p.time)
      def source(p: PlanNode): PlanNode = p match {
        case LoadState(g, _, from) => entries.get((g, from)).fold(p)(source)
        case _                     => p
      }
      // the kept nodes whose frames a plan over `p` reads
      def keptInputs(p: PlanNode): Set[(Int, Int)] =
        if (kept(key(p))) Set(key(p))
        else p match {
          case Compute(_, _, _, cs) => cs.map(source).flatMap(keptInputs).toSet
          case _                    => Set.empty
        }
      val sizes = for ((label, p) <- analysed) yield {
        val Label(t, g, nt, op) = label: @unchecked
        val expected =
          if (op == "output") keptInputs(source(c.plan.outputs.find(_.time == t.toInt).get.plan))
          else nodes((g.toInt, nt.toInt)).children.map(source).flatMap(keptInputs).toSet
        val leaves = p.collect { case r: InMemoryRelation =>
          kept.find(n => c.executor.keptPlan(n).exists(_ eq r.cacheBuilder.cachedPlan))
            .getOrElse(fail(s"$label reads a leaf of no kept node"))
        }
        assert(leaves.toSet == expected, s"$label reads ${leaves.toSet}, kept inputs $expected")
        t.toInt -> p.collect { case n => n }.size
      }
      val largest = sizes.groupMapReduce(_._1)(_._2)(_ max _)
      assert(largest(2) <= largest(1), s"largest analysed plan per step: $largest")
    }
  }

  private val Label = """t=(\d+) node \((\d+),(\d+)\) (\w+)""".r

  /** The cache builder of persisted frame `df`, which the failure message
    * names `what`. */
  private def cacheBuilder(df: DataFrame, what: String) = spark.asInstanceOf[classic.SparkSession].sharedState
    .cacheManager.lookupCachedData(df.asInstanceOf[classic.Dataset[_]]).getOrElse(fail(s"$what is not cached"))
    .cachedRepresentation.cacheBuilder

  /** The cached plans whose buffers `p` scans. */
  private def scans(p: SparkPlan): Seq[SparkPlan] =
    p.collect { case s: InMemoryTableScanExec => s.relation.cacheBuilder.cachedPlan }

  /** The operator of every computed node of `plan`, by node. */
  private def ops(plan: IncrementalPlan): Map[(Int, Int), MOp] = computes(plan).map { case (n, c) => n -> c.op }

  /** Every computed node of `plan`, by node. */
  private def computes(plan: IncrementalPlan): Map[(Int, Int), Compute] =
    (plan.states.map(_.plan) ++ plan.outputs.map(_.plan)).flatMap(all).map(c => (c.groupId, c.time) -> c).toMap

  private def all(p: PlanNode): Seq[Compute] = p match {
    case c: Compute => c +: c.children.flatMap(all)
    case _          => Nil // a loaded state was counted where it was saved
  }
}
