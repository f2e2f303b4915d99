package repro.core.exec

import scala.collection.mutable
import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, SparkSession, classic}
import org.apache.spark.sql.columnar.CachedBatch
import org.apache.spark.sql.execution.{CollectMetricsExec, SQLExecution}
import org.apache.spark.sql.functions.{count, lit}
import repro.core.SparkScope
import repro.core.algebra._
import repro.core.cost.OpCost
import repro.core.memo._
import repro.core.opt._
import repro.core.tvr.{Delta, DeltaOps}

/** Runtime value: a delta-encoded relation with the plan node that produced
  * it (which keys its row count), or a HOV view bundle (with the trigger
  * work that built it). */
sealed trait RtVal
final case class Rel(df: DataFrame, node: (Int, Int)) extends RtVal
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
  * each; every other node stays lazy inside its one consumer's frame, and
  * its row count is observed in the job that materializes that consumer.
  * Work is added up at the end of each time step, once all its counts are in.
  * A kept node is planned once, by `persist()`: its job sums the row counts of
  * the column buffers it caches, under the call site `t=<t> node (g,t) <op>`.
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
  *  - [[run]] runs [[SparkScope.interpreted]], which plans each union, and
  *    each empty relation left of an empty delta, under one coalesce too,
  *    and lifts the size limit above which Spark shuffles a one-partition
  *    join side; [[DeltaOps.transitions]] coalesces its full outer join.
  *    So no plan holds an exchange, and each job runs in one stage.
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
  private val inputs = deltas.map { case (table, ds) => table -> ds.map(SparkScope.single) }
  private val cache = mutable.HashMap[(Int, Int), RtVal]()
  private val rowsByTime = Array.fill(numTimes)(0.0)
  private val measuredKeys = mutable.HashSet[(Int, Int)]()
  private val stateSizes = mutable.LinkedHashMap[(Int, Int), Double]()
  /** Saved-state plans, for a load evaluated before [[run]] reached its
    * state (one listed after a consumer at the same time). */
  private val stateEntries = plan.states.map(s => (s.groupId, s.time) -> s.plan).toMap
  private val kept = Executor.kept(plan)
  private val counts = mutable.HashMap[(Int, Int), Long]()
  /** Lazy nodes by the name of their row-count observer. */
  private val observed = mutable.HashMap[String, Rel]()
  /** Work of the current time step, added in evaluation order at its end. */
  private val pending = mutable.ArrayBuffer[() => Unit]()

  /** The relation of plan node `node`: persisted and counted if it is kept,
    * otherwise lazy, with its row count observed under its own name. */
  private def rel(node: (Int, Int), df: DataFrame): Rel =
    if (kept(node)) {
      val (d, n) = materialize(df)
      counts(node) = n
      Rel(d, node)
    } else {
      val name = s"rows${node._1}@${node._2}"
      val r = Rel(df.observe(name, count(lit(1)).as("rows")), node)
      observed(name) = r
      r
    }

  /** Persist `df` and count its rows in one job, over the cached column
    * buffers it builds, under the session's SQL confs. The lazy nodes it
    * computed leave their row counts on the observers of its cached plan. */
  private def materialize(df: DataFrame): (DataFrame, Long) = {
    val d = SparkScope.single(df).persist()
    val cache = session.sharedState.cacheManager.lookupCachedData(d.asInstanceOf[classic.Dataset[_]])
      .getOrElse(throw new IllegalStateException("a persisted frame is not in the cache"))
      .cachedRepresentation.cacheBuilder
    val n = SQLExecution.withSQLConfPropagated(session)(
      SparkScope.runJob(cache.cachedColumnBuffers, Executor.BatchRows).sum)
    for ((name, row) <- CollectMetricsExec.collect(cache.cachedPlan); r <- observed.get(name))
      counts(r.node) = row.getLong(0)
    (d, n)
  }

  private def relOf(v: RtVal): DataFrame = v match {
    case Rel(df, _) => df
    case h: HovRt   => h.contribution
  }
  private def rowsOf(v: RtVal): Double = v match {
    case Rel(_, node) => counts.getOrElse(node, throw new IllegalStateException(
      s"no row count observed for plan node $node")).toDouble
    case h: HovRt  => h.stateRows
  }

  private def scanDelta(table: String, t1: Int, t2: Int): DataFrame =
    Delta.unionAll((t1 + 1 to t2).map(inputs(table)(_)).map(Delta.attach))

  private def scanSnap(table: String, t: Int): DataFrame =
    Delta.collapse(Delta.unionAll((0 to t).map(inputs(table)(_)).map(Delta.attach)))

  private def eval(p: PlanNode): RtVal = cache.getOrElseUpdate((p.groupId, p.time), p match {
    case LoadState(g, t, from) =>
      val v = cache.getOrElse((g, from), eval(stateEntries((g, from))))
      pending += (() => addRows(t, (g, from), OpCost.stateWork(rowsOf(v))))
      v
    case Compute(g, t, op, children) =>
      val cs = children.map(eval)
      def df(i: Int) = relOf(cs(i))
      def mat(d: DataFrame): Rel = rel((g, t), d)
      val label = s"t=$t node ($g,$t) ${op.getClass.getSimpleName}"
      val value: RtVal = SparkScope.withCallSite(spark)(label)(op match {
        case MScanSnap(tb, ti) => mat(scanSnap(tb, ti))
        case MScanDelta(tb, t1, t2) => mat(scanDelta(tb, t1, t2))
        case MFilter(pred) => mat(DeltaOps.filter(df(0), pred))
        case MProject(es) => mat(DeltaOps.project(df(0), es))
        case MUnionAll(_) => mat(Delta.unionAll(children.indices.map(df)))
        case MJoin(kind, lk, rk, rCols) =>
          mat(kind match {
            case Inner     => DeltaOps.joinInner(df(0), df(1), lk, rk)
            case LeftOuter => DeltaOps.joinLeftOuterSnap(df(0), df(1), lk, rk, rCols)
            case LeftSemi  => DeltaOps.semiSnap(df(0), df(1), lk, rk)
            case LeftAnti  => DeltaOps.antiSnap(df(0), df(1), lk, rk)
          })
        case MDeltaJoin(kind, lk, rk, rCols) =>
          // children [lOld, dL, rOld, dR]; the resident right-side state is
          // updated in place
          val rNew = Delta.merge(df(2), df(3))
          mat(kind match {
            case Inner     => DeltaOps.deltaInnerJoin(df(0), df(1), rNew, df(3), lk, rk)
            case LeftOuter => DeltaOps.deltaLeftOuter(df(0), df(1), df(2), df(3), rNew, lk, rk, rCols)
            case LeftSemi  => DeltaOps.deltaSemi(df(0), df(1), df(2), df(3), rNew, lk, rk)
            case LeftAnti  => DeltaOps.deltaAnti(df(0), df(1), df(2), df(3), rNew, lk, rk)
          })
        case MMergeMult() => mat(Delta.merge(df(0), df(1)))
        case MMergeDelta() => mat(Delta.unionAll(Seq(df(0), df(1))))
        case MDiffMult() => mat(Delta.merge(df(0), Delta.negate(df(1))))
        case MPartialAgg(keys, aggs) => mat(DeltaOps.partialAgg(df(0), keys, aggs))
        case MMergeState(keys, aggs) => mat(DeltaOps.mergeStates(Seq(df(0), df(1)), keys, aggs))
        case MFinalAgg(keys, aggs) => mat(DeltaOps.finalAgg(df(0), keys, aggs))
        case MSnapAgg(keys, aggs) => mat(DeltaOps.snapshotAgg(df(0), keys, aggs))
        case MPadProject(cols) => mat(DeltaOps.padNulls(df(0), cols))
        case MOjvDelta(lk, rk, rCols) =>
          // children [lOld, dL, rOld, dR, qOld]: per-table updates,
          // ΔQ^I derived from the previous snapshot of Q (Eq. 4b)
          import org.apache.spark.sql.functions.{col => fcol}
          val rNew = Delta.merge(df(2), df(3))
          val dQD = DeltaOps.joinInner(df(0), df(3), lk, rk)
          val trans = DeltaOps.transitions(df(2), df(3), rk)
          val qOld = df(4)
          val rKeyInQ = rCols.head._1
          // keys whose match count went 0 -> positive: retract the padded
          // rows, read off the previous snapshot of Q (Eq. 4b)
          val leftCols = Delta.dataCols(qOld).filterNot(c => rCols.exists(_._1 == c)).map(qOld(_))
          val padded = Delta.attach(qOld).filter(qOld(rKeyInQ).isNull)
            .select(leftCols :+ fcol(Delta.MULT): _*)
          val pd = padded.withColumnRenamed(Delta.MULT, "__lm")
          val gone = trans.filter(fcol("__is"))
          val corrRetract = DeltaOps.padNulls(
            pd.join(gone, lk.zip(rk).map { case (a, b) => pd(a) === gone(b) }.reduce(_ && _), "inner")
              .select(Delta.dataCols(padded).map(pd(_)) :+ (-pd("__lm")).as(Delta.MULT): _*),
            rCols)
          // keys whose match count went positive -> 0: restore padding for
          // every left row with that key (the previous snapshot has no
          // padded rows for them, so source from L)
          val ld = Delta.attach(df(0)).withColumnRenamed(Delta.MULT, "__lm")
          val back = trans.filter(!fcol("__is"))
          val corrRestore = DeltaOps.padNulls(
            ld.join(back, lk.zip(rk).map { case (a, b) => ld(a) === back(b) }.reduce(_ && _), "inner")
              .select(Delta.dataCols(df(0)).map(ld(_)) :+ ld("__lm").as(Delta.MULT): _*),
            rCols)
          val dQL = DeltaOps.joinLeftOuterSnap(df(1), rNew, lk, rk, rCols)
          mat(Delta.unionAll(Seq(dQD, corrRetract, corrRestore, dQL)))
        case MHovInit(spec) =>
          val leaves = children.indices.map(i => Delta.collapse(df(i)).persist()).toVector
          val views = (0 until spec.nLeaves).map { i =>
            if (i == 0) None
            else Some(chainJoin(spec, leaves, skip = i).persist())
          }.toVector
          val vRows = views.flatten.map(_.count().toDouble).sum
          val lRows = leaves.map(_.count().toDouble).sum
          HovRt(leaves, views, null, vRows + lRows, vRows + lRows)
        case MHovStep(spec, _) =>
          hovStep(spec, cs(0).asInstanceOf[HovRt],
            (1 until children.size).map(i => (df(i), rowsOf(cs(i)))).toVector)
        case MHovExtract(_) => mat(cs(0).asInstanceOf[HovRt].contribution)
      })
      pending += (() => addRows(t, (g, t), value match {
        case h: HovRt => h.work
        case r: Rel   => OpCost.work(op, cs.map(rowsOf), rowsOf(r))
      }))
      value
  })

  private def addRows(t: Int, key: (Int, Int), v: Double): Unit =
    if (measuredKeys.add((key._1, t))) rowsByTime(t) += v

  private def chainJoin(spec: HovSpec, frames: Vector[DataFrame], skip: Int,
                        replace: Map[Int, DataFrame] = Map.empty): DataFrame = {
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
  private def hovStep(spec: HovSpec, prev: HovRt, deltas: Vector[(DataFrame, Double)]): HovRt = {
    val n = spec.nLeaves
    val leafCols = spec.leafSchemas.flatten.map(_._1)
    var leaves = prev.leafCur
    var views = prev.views
    var work = 0.0
    val contribs = mutable.ArrayBuffer[DataFrame]()
    for (i <- 0 until n) {
      val (di, dRows) = deltas(i)
      work += dRows
      if (dRows > 0) {
        val contrib =
          if (i == 0) chainJoin(spec, leaves, skip = -1, replace = Map(0 -> di))
          else DeltaOps.joinInner(views(i).get, di, spec.chain(i - 1)._1, spec.chain(i - 1)._2)
        val c = contrib.select((leafCols :+ Delta.MULT).map(org.apache.spark.sql.functions.col): _*)
          .persist()
        work += c.count().toDouble
        contribs += c
        // maintain the other complement views
        views = views.zipWithIndex.map {
          case (Some(v), j) if j != i =>
            val dV = chainJoin(spec, leaves, skip = j, replace = Map(i -> di))
            val nv = Delta.merge(v, dV).persist()
            work += dRows // delta-driven view update
            Some(nv)
          case (v, _) => v
        }
        leaves = leaves.updated(i, Delta.merge(leaves(i), di).persist())
      }
    }
    val contribution =
      if (contribs.isEmpty)
        DeltaOps.partialAgg(Delta.attach(chainJoin(spec, leaves, -1).limit(0)), spec.keys, spec.aggs)
      else DeltaOps.partialAgg(Delta.unionAll(contribs.toSeq), spec.keys, spec.aggs)
    val vRows = views.flatten.map(_.count().toDouble).sum
    val lRows = leaves.map(_.count().toDouble).sum
    HovRt(leaves, views, contribution.persist(), vRows + lRows, work)
  }

  /** The persisted frame of kept plan node `node`, once [[run]] evaluated it. */
  def keptFrame(node: (Int, Int)): Option[DataFrame] =
    cache.get(node).collect { case Rel(df, n) if kept(n) => df }

  /** Run the plan across all time steps, interpreted at one shuffle partition
    * ([[SparkScope.interpreted]]), each job under its plan node's call site. */
  def run(): ExecReport = SparkScope.interpreted(spark) {
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
      // adaptive execution can drop an observed subtree from the final plan
      // when another input of its consumer turns out empty at run time; such
      // a node is counted by a job of its own
      for (r <- observed.values if !counts.contains(r.node))
        counts(r.node) = SparkScope.withCallSite(spark)(s"t=$t node ${r.node} observed")(r.df.count())
      observed.clear()
      pending.foreach(_())
      pending.clear()
      wall(t) = (System.nanoTime() - start) / 1e6
    }
    ExecReport(rowsByTime.toVector, wall.toVector, stateSizes.values.sum,
      stateSizes.toVector, outputs.toVector)
  }
}

object Executor {
  /** The rows of one partition's cached column buffers: a named function,
    * which Spark's closure cleaner does not parse ([[SparkScope.runJob]]). */
  private object BatchRows extends ((TaskContext, Iterator[CachedBatch]) => Long) with Serializable {
    def apply(task: TaskContext, batches: Iterator[CachedBatch]): Long = batches.map(_.numRows.toLong).sum
  }

  /** The plan nodes an [[Executor]] persists and counts in a job of their
    * own: state roots, nodes read by more than one consumer (over all time
    * steps), inputs of HOV init and step (the trigger branches on their row
    * counts). An output counts as one more reader of its root. The plan is
    * walked in the executor's evaluation order, each node once.
    */
  def kept(plan: IncrementalPlan): Set[(Int, Int)] = {
    def key(p: PlanNode) = (p.groupId, p.time)
    val entries = plan.states.map(s => (s.groupId, s.time) -> s.plan).toMap
    val reads = mutable.HashMap[(Int, Int), Int]().withDefaultValue(0)
    val hovInputs = mutable.HashSet[(Int, Int)]()
    val seen = mutable.HashSet[(Int, Int)]()
    def walk(p: PlanNode): Unit = if (seen.add(key(p))) p match {
      case LoadState(g, _, from) => entries.get((g, from)).foreach(walk)
      case Compute(_, _, op, cs) =>
        cs.foreach(c => reads(key(c)) += 1)
        op match {
          case _: MHovInit | _: MHovStep => hovInputs ++= cs.map(key)
          case _                         =>
        }
        cs.foreach(walk)
    }
    val roots = (plan.states.map(s => s.time -> s.plan) ++ plan.outputs.map(o => o.time -> o.plan))
      .sortBy(_._1).map(_._2)
    roots.foreach(walk)
    plan.outputs.foreach(o => reads(key(o.plan)) += 1) // the collapsed output reads its root
    plan.states.map(s => key(s.plan)).toSet ++ reads.collect { case (k, n) if n > 1 => k } ++ hovInputs
  }
}
