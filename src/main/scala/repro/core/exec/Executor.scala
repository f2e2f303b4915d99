package repro.core.exec

import scala.collection.mutable
import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, SparkSession, classic}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.columnar.CachedBatch
import org.apache.spark.sql.execution.{CollectMetricsExec, SQLExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AQEPropagateEmptyRelation
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.sql.functions.{count, lit}
import repro.core.SparkScope
import repro.core.algebra._
import repro.core.cost.OpCost
import repro.core.memo._
import repro.core.opt._
import repro.core.tvr.{Delta, DeltaOps, Plans}

/** Runtime value: a delta-encoded relation's Catalyst plan with the plan
  * node that produced it (which keys its row count), or a HOV view bundle
  * (with the trigger work that built it). */
sealed trait RtVal
final case class Rel(plan: LogicalPlan, node: (Int, Int)) extends RtVal
final case class HovRt(leafCur: Vector[DataFrame],
                       views: Vector[Option[DataFrame]],
                       contribution: DataFrame,
                       stateRows: Double,
                       work: Double) extends RtVal

/** Execution metrics of an incremental plan run (§8.2's "real" costs):
  * a rows-processed CPU proxy per time step ([[OpCost.work]] over observed
  * row counts, so measured and estimated costs come from one formula), wall
  * time per step, and materialized-state sizes (Fig. 7(e)(f)).
  */
final case class ExecReport(
    perTimeRows: Vector[Double],
    perTimeWallMs: Vector[Double],
    stateRows: Double,
    states: Vector[((Int, Int), Double)],
    outputs: Vector[(Int, DataFrame)]) {
  def totalRows: Double = perTimeRows.sum
  def weighted(weights: Vector[Double]): Double =
    perTimeRows.zip(weights).map { case (c, w) => c * w }.sum
}

/** Interprets an [[IncrementalPlan]] over real per-time input deltas.
  *
  * Only the nodes in [[Executor.kept]] are persisted and counted, one job
  * each; every other node stays lazy inside its one consumer's plan, and
  * its row count is observed in the job that materializes that consumer.
  * Work is added up at the end of each time step, once all its counts are in.
  *
  * [[Delta]] and [[DeltaOps]] build Catalyst plans, not DataFrames: a lazy
  * node is a plan fragment under a row-count observer ([[Plans.observe]])
  * inside its consumer's plan, and the executor makes one frame per kept
  * node and per output ([[Plans.frame]]), so Spark analyses one plan each,
  * where a DataFrame per operator call was analysed on the spot. A kept
  * node is then planned once, by `persist()`: its job sums the row counts
  * of the column buffers it caches, under the call site
  * `t=<t> node (g,t) <op>`. Its consumers read it as a leaf over those
  * buffers, not through its lineage, and its frame is unpersisted at the
  * end of its last reader's time step ([[Executor.lifetimes]]); outputs
  * stay cached. HOV init and step keep their view bundles as persisted
  * frames, one per leaf, view and contribution, for the whole run.
  *
  * When the session has one shuffle partition, the inputs are small and
  * each job's cost is fixed per stage, per generated class and per closure
  * Spark cleans, not per row. Four things then cut that cost:
  *  - The frames Spark plans over are coalesced to one partition
  *    ([[SparkScope.single]]): each input delta once, here, since an input
  *    may span several partitions, and each kept node and collapsed output
  *    before it is persisted: a cached inner join reports a collection of
  *    one-partition partitionings, which Spark does not take for one
  *    partition when it plans a join over it. `coalesce(1)` is a
  *    narrow dependency whose `SinglePartition` output satisfies every
  *    clustered or all-tuples distribution, so joins and aggregates over
  *    those frames need no hash exchange.
  *  - [[run]] runs [[SparkScope.interpreted]], which plans each union,
  *    each empty relation left of an empty delta and the full outer join of
  *    [[DeltaOps.transitions]] under one coalesce too, and lifts the size
  *    limit above which Spark shuffles a one-partition join side. So no
  *    plan holds an exchange, and each job runs in one stage.
  *  - The same scope turns generated code off: no whole-stage code and no
  *    generated projection, predicate or ordering classes, since compiling a
  *    class takes longer than the compiled code saves on a few thousand rows.
  *    A pass would compile more classes than Spark's code cache holds, so
  *    without this each pass compiled them all again.
  *  - Aggregates, sort-merge joins and count jobs skip Spark's closure
  *    cleaner, which reads the whole class file that defines each closure,
  *    with no cache, each time: the same scope plans those operators with
  *    ones that pass no closure, and each count job runs a named function
  *    through [[SparkScope.runJob]].
  * Rows, row counts and job counts are the same either way; with more
  * shuffle partitions none of this is done.
  */
final class Executor(spark: SparkSession, plan: IncrementalPlan,
                     deltas: Map[String, Vector[DataFrame]], numTimes: Int) {
  plan.validate(outputTimes = Nil) // every load resolves, before any job runs
  private val session = spark.asInstanceOf[classic.SparkSession]
  private val inputs = deltas.map { case (table, ds) =>
    table -> ds.map(d => SparkScope.single(spark)(Delta.attach(Plans.of(d))))
  }
  private val cache = mutable.HashMap[(Int, Int), RtVal]()
  /** The persisted frames of the kept nodes evaluated and not yet freed. */
  private val frames = mutable.HashMap[(Int, Int), DataFrame]()
  /** The cached physical plan of each kept node evaluated so far. */
  private val cachedPlans = mutable.HashMap[(Int, Int), SparkPlan]()
  private val rowsByTime = Array.fill(numTimes)(0.0)
  private val measuredKeys = mutable.HashSet[(Int, Int)]()
  private val stateSizes = mutable.LinkedHashMap[(Int, Int), Double]()
  /** Saved-state plans, for a load evaluated before [[run]] reached its
    * state (one listed after a consumer at the same time). */
  private val stateEntries = plan.states.map(s => (s.groupId, s.time) -> s.plan).toMap
  private val lifetimes = Executor.lifetimes(plan)
  private val counts = mutable.HashMap[(Int, Int), Long]()
  /** Lazy nodes by the name of their row-count observer. */
  private val observed = mutable.HashMap[String, Rel]()
  /** Work of the current time step, added in evaluation order at its end. */
  private val pending = mutable.ArrayBuffer[() => Unit]()

  private def frame(p: LogicalPlan): DataFrame = Plans.frame(spark, p)

  /** The relation of plan node `node`: persisted, counted and read as a leaf
    * over its cached column buffers if it is kept (with no output ordering,
    * which a fresh leaf would not rename), otherwise lazy and observed. */
  private def rel(node: (Int, Int), p: LogicalPlan): Rel =
    if (lifetimes.contains(node)) {
      val (d, imr, n) = materialize(p)
      counts(node) = n
      frames(node) = d
      cachedPlans(node) = imr.cacheBuilder.cachedPlan
      Rel(InMemoryRelation(imr.output, imr.cacheBuilder, Nil, imr.statsOfPlanToCache), node)
    } else {
      val name = s"rows${node._1}@${node._2}"
      val r = Rel(Plans.observe(p, name, count(lit(1)).as("rows")), node)
      observed(name) = r
      r
    }

  /** Persist `p` and count its rows in one job, over the cached column
    * buffers it builds, under the session's SQL confs. The lazy nodes it
    * computed leave their row counts on the observers of its cached plan. */
  private def materialize(p: LogicalPlan): (DataFrame, InMemoryRelation, Long) = {
    val d = frame(SparkScope.single(spark)(p)).persist()
    val imr = session.sharedState.cacheManager.lookupCachedData(d.asInstanceOf[classic.Dataset[_]])
      .getOrElse(throw new IllegalStateException("a persisted frame is not in the cache"))
      .cachedRepresentation
    val n = SQLExecution.withSQLConfPropagated(session)(
      SparkScope.runJob(imr.cacheBuilder.cachedColumnBuffers, Executor.BatchRows).sum)
    for ((name, row) <- CollectMetricsExec.collect(imr.cacheBuilder.cachedPlan); r <- observed.get(name))
      counts(r.node) = row.getLong(0)
    (d, imr, n)
  }

  private def relOf(v: RtVal): LogicalPlan = v match {
    case Rel(p, _) => p
    case h: HovRt  => Plans.of(h.contribution)
  }
  private def rowsOf(v: RtVal): Double = v match {
    case Rel(_, node) => counts.getOrElse(node, throw new IllegalStateException(
      s"no row count observed for plan node $node")).toDouble
    case h: HovRt  => h.stateRows
  }

  private def scanDelta(table: String, t1: Int, t2: Int): LogicalPlan =
    Delta.unionAll((t1 + 1 to t2).map(inputs(table)(_)))

  private def scanSnap(table: String, t: Int): LogicalPlan =
    Delta.collapse(Delta.unionAll((0 to t).map(inputs(table)(_))))

  private def eval(p: PlanNode): RtVal = cache.getOrElseUpdate((p.groupId, p.time), p match {
    case LoadState(g, t, from) =>
      val v = cache.getOrElse((g, from), eval(stateEntries((g, from))))
      pending += (() => addRows(t, (g, from), OpCost.stateWork(rowsOf(v))))
      v
    case Compute(g, t, op, children) =>
      val cs = children.map(eval)
      def in(i: Int) = relOf(cs(i))
      def mat(p: LogicalPlan): Rel = rel((g, t), p)
      val label = s"t=$t node ($g,$t) ${op.getClass.getSimpleName}"
      val value: RtVal = SparkScope.withCallSite(spark)(label)(op match {
        case MScanSnap(tb, ti) => mat(scanSnap(tb, ti))
        case MScanDelta(tb, t1, t2) => mat(scanDelta(tb, t1, t2))
        case MFilter(pred) => mat(DeltaOps.filter(in(0), pred))
        case MProject(es) => mat(DeltaOps.project(in(0), es))
        case MUnionAll(_) => mat(Delta.unionAll(children.indices.map(in)))
        case MJoin(kind, lk, rk, rCols) =>
          mat(kind match {
            case Inner     => DeltaOps.joinInner(in(0), in(1), lk, rk)
            case LeftOuter => DeltaOps.joinLeftOuterSnap(in(0), in(1), lk, rk, rCols)
            case LeftSemi  => DeltaOps.semiSnap(in(0), in(1), lk, rk)
            case LeftAnti  => DeltaOps.antiSnap(in(0), in(1), lk, rk)
          })
        case MDeltaJoin(kind, lk, rk, rCols) =>
          // children [lOld, dL, rOld, dR]; the resident right-side state is
          // updated in place
          val rNew = Delta.merge(in(2), in(3))
          mat(kind match {
            case Inner     => DeltaOps.deltaInnerJoin(in(0), in(1), rNew, in(3), lk, rk)
            case LeftOuter => DeltaOps.deltaLeftOuter(in(0), in(1), in(2), in(3), rNew, lk, rk, rCols)
            case LeftSemi  => DeltaOps.deltaSemi(in(0), in(1), in(2), in(3), rNew, lk, rk)
            case LeftAnti  => DeltaOps.deltaAnti(in(0), in(1), in(2), in(3), rNew, lk, rk)
          })
        case MMergeMult() => mat(Delta.merge(in(0), in(1)))
        case MMergeDelta() => mat(Delta.unionAll(Seq(in(0), in(1))))
        case MDiffMult() => mat(Delta.merge(in(0), Delta.negate(in(1))))
        case MPartialAgg(keys, aggs) => mat(DeltaOps.partialAgg(in(0), keys, aggs))
        case MMergeState(keys, aggs) => mat(DeltaOps.mergeStates(Seq(in(0), in(1)), keys, aggs))
        case MFinalAgg(keys, aggs) => mat(DeltaOps.finalAgg(in(0), keys, aggs))
        case MSnapAgg(keys, aggs) => mat(DeltaOps.snapshotAgg(in(0), keys, aggs))
        case MPadProject(cols) => mat(DeltaOps.padNulls(in(0), cols))
        // children [lOld, dL, rOld, dR, qOld]
        case MOjvDelta(lk, rk, rCols) => mat(DeltaOps.ojvDelta(in(0), in(1), in(2), in(3), in(4), lk, rk, rCols))
        case MHovInit(spec) =>
          val leaves = children.indices.map(i => frame(Delta.collapse(in(i))).persist()).toVector
          val views = (0 until spec.nLeaves).map { i =>
            if (i == 0) None
            else Some(frame(chainJoin(spec, leaves.map(Plans.of), skip = i)).persist())
          }.toVector
          val vRows = views.flatten.map(_.count().toDouble).sum
          val lRows = leaves.map(_.count().toDouble).sum
          HovRt(leaves, views, null, vRows + lRows, vRows + lRows)
        case MHovStep(spec, _) =>
          hovStep(spec, cs(0).asInstanceOf[HovRt],
            (1 until children.size).map(i => (in(i), rowsOf(cs(i)))).toVector)
        case MHovExtract(_) => mat(Plans.of(cs(0).asInstanceOf[HovRt].contribution))
      })
      pending += (() => addRows(t, (g, t), value match {
        case h: HovRt => h.work
        case r: Rel   => OpCost.work(op, cs.map(rowsOf), rowsOf(r))
      }))
      value
  })

  private def addRows(t: Int, key: (Int, Int), v: Double): Unit =
    if (measuredKeys.add((key._1, t))) rowsByTime(t) += v

  private def chainJoin(spec: HovSpec, frames: Vector[LogicalPlan], skip: Int,
                        replace: Map[Int, LogicalPlan] = Map.empty): LogicalPlan = {
    var acc = replace.getOrElse(0, frames(0))
    for (j <- 1 until spec.nLeaves if j != skip) {
      val f = replace.getOrElse(j, frames(j))
      acc = DeltaOps.joinInner(acc, f, spec.chain(j - 1)._1, spec.chain(j - 1)._2)
    }
    acc
  }

  /** One HOV trigger round: apply each leaf's delta in order, using the
    * complement views for the contribution joins and updating the other
    * views incrementally (DBToaster-style, §4.2 Eq. 5). Each delta comes
    * with its row count.
    */
  private def hovStep(spec: HovSpec, prev: HovRt, deltas: Vector[(LogicalPlan, Double)]): HovRt = {
    val n = spec.nLeaves
    val leafCols = spec.leafSchemas.flatten.map(_._1)
    var leaves = prev.leafCur
    var views = prev.views
    var work = 0.0
    val contribs = mutable.ArrayBuffer[LogicalPlan]()
    for (i <- 0 until n) {
      val (di, dRows) = deltas(i)
      work += dRows
      if (dRows > 0) {
        val contrib =
          if (i == 0) chainJoin(spec, leaves.map(Plans.of), skip = -1, replace = Map(0 -> di))
          else DeltaOps.joinInner(Plans.of(views(i).get), di, spec.chain(i - 1)._1, spec.chain(i - 1)._2)
        val c = frame(DeltaOps.project(contrib, leafCols.map(c => c -> Col(c)))).persist()
        work += c.count().toDouble
        contribs += Plans.of(c)
        // maintain the other complement views
        views = views.zipWithIndex.map {
          case (Some(v), j) if j != i =>
            val dV = chainJoin(spec, leaves.map(Plans.of), skip = j, replace = Map(i -> di))
            val nv = frame(Delta.merge(Plans.of(v), dV)).persist()
            work += dRows // delta-driven view update
            Some(nv)
          case (v, _) => v
        }
        leaves = leaves.updated(i, frame(Delta.merge(Plans.of(leaves(i)), di)).persist())
      }
    }
    val contribution =
      if (contribs.isEmpty)
        DeltaOps.partialAgg(Delta.empty(chainJoin(spec, leaves.map(Plans.of), -1)), spec.keys, spec.aggs)
      else DeltaOps.partialAgg(Delta.unionAll(contribs.toSeq), spec.keys, spec.aggs)
    val vRows = views.flatten.map(_.count().toDouble).sum
    val lRows = leaves.map(_.count().toDouble).sum
    HovRt(leaves, views, frame(contribution).persist(), vRows + lRows, work)
  }

  /** The cached physical plan of kept plan node `node`, once [[run]]
    * evaluated it, also after its frame is freed. */
  def keptPlan(node: (Int, Int)): Option[SparkPlan] = cachedPlans.get(node)

  /** Run the plan across all time steps, interpreted at one shuffle partition
    * ([[SparkScope.interpreted]]), each job under its plan node's call site,
    * and above it without `AQEPropagateEmptyRelation`, which drops observers. */
  def run(): ExecReport = SparkScope.interpreted(spark)(SparkScope.withConf(spark)(keepObservers: _*) {
    val wall = Array.fill(numTimes)(0.0)
    val outputs = mutable.ArrayBuffer[(Int, DataFrame)]()
    for (t <- 0 until numTimes) {
      val start = System.nanoTime()
      for (st <- plan.states if st.time == t) {
        val v = eval(st.plan)
        stateSizes((st.groupId, st.time)) = rowsOf(v)
      }
      for (out <- plan.outputs if out.time == t)
        outputs += SparkScope.withCallSite(spark)(s"t=$t node (${out.plan.groupId},$t) output") {
          (t, materialize(Delta.collapse(relOf(eval(out.plan))))._1)
        }
      observed.clear()
      pending.foreach(_())
      pending.clear()
      for (node <- frames.keys.toSeq if lifetimes(node) <= t) frames.remove(node).foreach(_.unpersist(blocking = true))
      wall(t) = (System.nanoTime() - start) / 1e6
    }
    ExecReport(rowsByTime.toVector, wall.toVector, stateSizes.values.sum,
      stateSizes.toVector, outputs.toVector)
  })

  private def keepObservers: Seq[(String, String)] = if (SparkScope.onePartition(spark)) Nil else {
    val key = "spark.sql.adaptive.optimizer.excludedRules"
    Seq(key -> (spark.conf.getOption(key).filter(_.nonEmpty).toSeq :+ AQEPropagateEmptyRelation.ruleName)
      .mkString(","))
  }
}

object Executor {
  /** The rows of one partition's cached column buffers: a named function,
    * which Spark's closure cleaner does not parse ([[SparkScope.runJob]]). */
  private object BatchRows extends ((TaskContext, Iterator[CachedBatch]) => Long) with Serializable {
    def apply(task: TaskContext, batches: Iterator[CachedBatch]): Long = batches.map(_.numRows.toLong).sum
  }

  /** The plan nodes an [[Executor]] persists and counts ([[lifetimes]]). */
  def kept(plan: IncrementalPlan): Set[(Int, Int)] = lifetimes(plan).keySet

  /** The plan nodes an [[Executor]] persists and counts in a job of their
    * own, each with the last time step that reads its frame: state roots,
    * nodes read by more than one consumer (over all time steps), inputs of
    * HOV init and step (the trigger branches on their row counts). An
    * output counts as one more reader of its root. A consumer of a load
    * reads the load's state root. The plan is walked in the executor's
    * evaluation order, each node once, and a node is read at the step that
    * walks its consumer (at its own step if nothing reads it).
    */
  def lifetimes(plan: IncrementalPlan): Map[(Int, Int), Int] = {
    def key(p: PlanNode) = (p.groupId, p.time)
    val entries = plan.states.map(s => (s.groupId, s.time) -> s.plan).toMap
    def source(p: PlanNode): (Int, Int) = p match {
      case LoadState(g, _, from) => entries.get((g, from)).fold(key(p))(source)
      case _                     => key(p)
    }
    val reads = mutable.HashMap[(Int, Int), Int]().withDefaultValue(0)
    val lastRead = mutable.HashMap[(Int, Int), Int]()
    val hovInputs = mutable.HashSet[(Int, Int)]()
    val seen = mutable.HashSet[(Int, Int)]()
    def walk(now: Int)(p: PlanNode): Unit = if (seen.add(key(p))) {
      lastRead(key(p)) = now
      p match {
        case LoadState(g, _, from) => entries.get((g, from)).foreach(walk(now))
        case Compute(_, _, op, cs) =>
          cs.foreach(c => reads(key(c)) += 1)
          op match {
            case _: MHovInit | _: MHovStep => hovInputs ++= cs.map(key)
            case _                         =>
          }
          cs.foreach { c => walk(now)(c); lastRead(source(c)) = now }
      }
    }
    (plan.states.map(s => s.time -> s.plan) ++ plan.outputs.map(o => o.time -> o.plan)).sortBy(_._1)
      .foreach { case (t, p) => walk(t)(p) }
    for (o <- plan.outputs) { // the collapsed output reads its root
      reads(key(o.plan)) += 1
      lastRead(source(o.plan)) = lastRead(source(o.plan)) max o.time
    }
    (plan.states.map(s => key(s.plan)).toSet ++ reads.collect { case (k, n) if n > 1 => k } ++ hovInputs)
      .map(k => k -> lastRead(k)).toMap
  }
}
