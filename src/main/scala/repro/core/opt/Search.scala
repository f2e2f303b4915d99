package repro.core.opt

import scala.collection.mutable
import repro.core.cost._
import repro.core.memo._
import repro.core.rules.{Exploration, IqpProblem}

/** A fully-specified physical step: an operator with its DP-assigned
  * execution time (§6.1's temporal assignment).
  */
sealed trait PlanNode { def groupId: Int; def time: Int }
final case class Compute(groupId: Int, time: Int, op: MOp,
                         children: Vector[PlanNode]) extends PlanNode
/** Reference to a state computed and saved at `fromTime`, loaded at `time`. */
final case class LoadState(groupId: Int, time: Int, fromTime: Int) extends PlanNode

/** A state materialized at `time` (either a cross-time transfer the DP chose,
  * or an MQO-selected shared sub-plan).
  */
final case class StateEntry(groupId: Int, time: Int, plan: PlanNode)
final case class OutputEntry(time: Int, plan: PlanNode)

final case class IncrementalPlan(
    states: Vector[StateEntry],
    outputs: Vector[OutputEntry],
    estCost: TCost,
    estStateRows: Double) {

  /** Check the plan before anything runs it: every time in `outputTimes`
    * has an output entry, every [[LoadState]] names a state entry saved no
    * later than it is loaded, and no state reaches itself through loads (a
    * cycle can only form among loads at one time, as every other load reads
    * an earlier time). Throws [[IllegalStateException]] naming the
    * offending node.
    */
  def validate(outputTimes: Seq[Int]): Unit = {
    def fail(msg: String) = throw new IllegalStateException(s"plan error: $msg")
    for (t <- outputTimes if !outputs.exists(_.time == t)) fail(s"no output entry at t=$t")
    val entries = states.map(s => (s.groupId, s.time) -> s.plan).toMap
    val done = mutable.HashSet[(Int, Int)]()
    val onPath = mutable.HashSet[(Int, Int)]()
    def enter(key: (Int, Int)): Unit = if (!done(key)) {
      onPath += key
      visit(entries(key))
      onPath -= key
      done += key
    }
    def visit(p: PlanNode): Unit = p match {
      case Compute(_, _, _, cs) => cs.foreach(visit)
      case l @ LoadState(g, t, from) =>
        if (from > t) fail(s"$l loads a state saved after t=$t")
        if (!entries.contains((g, from))) fail(s"$l names no state entry ($g,$from)")
        if (onPath((g, from))) fail(s"$l closes a cycle of loads at t=$t")
        enter((g, from))
    }
    states.foreach(s => enter((s.groupId, s.time)))
    outputs.foreach(o => visit(o.plan))
  }
}

/** A solved DP: per (group, time) the best temporal cost row and the choice
  * that produced it, in flat arrays (see [[Dp.solve]]).
  */
final class Solved private[opt] (k: Int, arity: Int, best: Array[Double],
                                 choice: Array[Int], times: Array[Int], val rounds: Int) {
  def cost(g: Int, t: Int): TCost = {
    val row = (g * k + t) * k
    TCost(Vector.tabulate(k)(i => best(row + i)))
  }
  /** Flat node index chosen for (g, t), [[Dp.Load]], or [[Dp.NoChoice]]. */
  private[opt] def choiceAt(g: Int, t: Int): Int = choice(g * k + t)
  /** Chosen time of child `i` (or the load's materialization time). */
  private[opt] def timeAt(g: Int, t: Int, i: Int): Int = times((g * k + t) * arity + i)
}

/** Eq.-6 dynamic program over (group, execution time) states, supporting a
  * set of shared/materialized sub-plans (for the MQO layer): a shared group
  * may be answered by a Load at any time ≥ its materialization time.
  *
  * The memo is flattened once: group g's nodes are the flat indices
  * `nodeStart(g) until nodeStart(g + 1)`, and node j's children are
  * `kids(kidStart(j) until kidStart(j + 1))`.
  */
final class Dp(val memo: Memo, val problem: IqpProblem) {
  import Dp._
  private val k = problem.numTimes
  private val costFn = problem.costFn
  private val nG = memo.groups.size

  private val nodes: Array[MNode] = memo.groups.iterator.flatMap(_.nodes).toArray
  private val nodeStart: Array[Int] = memo.groups.iterator.map(_.nodes.size).scanLeft(0)(_ + _).toArray
  private val kidStart: Array[Int] = nodes.scanLeft(0)(_ + _.children.size)
  private val kids: Array[Int] = nodes.flatMap(_.children)
  /** Slots per (group, time) for chosen child times; a load uses one. */
  private val arity: Int = nodes.foldLeft(1)(_ max _.children.size)

  /** Earliest possible execution time per group (t-dom lower bound). */
  val avail: Array[Int] = {
    val a = Array.fill(nG)(Int.MaxValue)
    def opAvail(op: MOp): Int = op match {
      case MScanSnap(_, t)       => t
      case MScanDelta(_, _, t2)  => t2
      case _                     => 0
    }
    var changed = true
    while (changed) {
      changed = false
      for (g <- 0 until nG; j <- nodeStart(g) until nodeStart(g + 1)) {
        val childA = nodes(j).children.map(a(_))
        if (childA.forall(_ != Int.MaxValue)) {
          val v = math.max(opAvail(nodes(j).op), (0 +: childA).max)
          if (v < a(g)) { a(g) = v; changed = true }
        }
      }
    }
    a
  }

  /** Earliest time all of node j's children exist (MaxValue: never). */
  private val readyAt: Array[Int] = nodes.map { n =>
    if (n.children.exists(avail(_) == Int.MaxValue)) Int.MaxValue
    else n.children.foldLeft(-1)((m, c) => m max avail(c))
  }

  /** Scalar resource cost of each node (time-independent), for the nodes
    * some solve can use. */
  private val nodeRes: Array[Double] = nodes.indices.map { j =>
    if (readyAt(j) >= k) Double.NaN
    else {
      val n = nodes(j)
      val out = memo.nodeIndex.get(n).map(g => memo.groups(g).stats)
        .getOrElse(repro.core.stats.RelStats.empty)
      OpCost.of(n.op, n.children.map(c => memo.groups(c).stats), out).scalar
    }
  }.toArray

  private val saves = Array.tabulate(nG)(g => OpCost.save(memo.groups(g).stats.rows).scalar)
  private val loads = Array.tabulate(nG)(g => OpCost.load(memo.groups(g).stats.rows).scalar)
  def saveScalar(g: Int): Double = saves(g)
  def loadScalar(g: Int): Double = loads(g)

  private var nSolves = 0
  private var mostRounds = 0
  /** Solves run on this DP so far. */
  def solves: Int = nSolves
  /** Most value-iteration rounds any one solve took. */
  def maxRounds: Int = mostRounds

  /** Value-iteration solve of the temporal DP under a shared set
    * (group -> materialization time). Each (group, time) keeps a cost row of
    * k entries in one flat array; a candidate replaces it only when
    * strictly better under the cost function. Throws if the tables are
    * still changing after [[MaxRounds]] rounds.
    */
  def solve(shared: Map[Int, Int]): Solved = {
    val sharedAt = Array.fill(nG)(Int.MaxValue)
    shared.foreach { case (g, ts) => sharedAt(g) = ts }
    val best = Array.fill(nG * k * k)(Double.PositiveInfinity)
    val choice = Array.fill(nG * k)(NoChoice)
    val times = new Array[Int](nG * k * arity)
    val sum = new Array[Double](k)
    val cand = new Array[Double](k)
    val bestC = new Array[Double](k)
    val kidTimes = new Array[Int](arity)

    var changed = true
    var rounds = 0
    while (changed) {
      if (rounds == MaxRounds)
        throw new IllegalStateException(s"temporal DP did not converge in $MaxRounds rounds")
      changed = false; rounds += 1
      var g = 0
      while (g < nG) {
        var t = if (avail(g) == Int.MaxValue) k else avail(g)
        while (t < k) {
          val slot = g * k + t
          val row = slot * k
          // option 1: load a materialized copy
          if (sharedAt(g) <= t) {
            java.util.Arrays.fill(cand, 0.0); cand(t) = loads(g)
            if (costFn.lt(cand, 0, best, row)) {
              System.arraycopy(cand, 0, best, row, k)
              choice(slot) = Load; times(slot * arity) = sharedAt(g)
              changed = true
            }
          }
          // option 2: compute via some node
          var j = nodeStart(g)
          while (j < nodeStart(g + 1)) {
            if (readyAt(j) <= t) {
              java.util.Arrays.fill(sum, 0.0); sum(t) = nodeRes(j)
              var ci = kidStart(j)
              while (ci < kidStart(j + 1)) {
                val c = kids(ci)
                var bestT = -1
                var tc = avail(c)
                while (tc <= t) {
                  System.arraycopy(best, (c * k + tc) * k, cand, 0, k)
                  if (tc < t) { cand(tc) += saves(c); cand(t) += loads(c) }
                  if (bestT < 0 || costFn.lt(cand, 0, bestC, 0)) {
                    System.arraycopy(cand, 0, bestC, 0, k); bestT = tc
                  }
                  tc += 1
                }
                var i = 0
                while (i < k) { sum(i) += bestC(i); i += 1 }
                kidTimes(ci - kidStart(j)) = bestT
                ci += 1
              }
              if (costFn.lt(sum, 0, best, row)) {
                System.arraycopy(sum, 0, best, row, k); choice(slot) = j
                System.arraycopy(kidTimes, 0, times, slot * arity, arity)
                changed = true
              }
            }
            j += 1
          }
          t += 1
        }
        g += 1
      }
    }
    nSolves += 1
    mostRounds = math.max(mostRounds, rounds)
    new Solved(k, arity, best, choice, times, rounds)
  }

  /** Extract a plan tree for (g, t); cross-time child edges become
    * [[LoadState]] references and are appended to `states` (dedup by
    * (group, time)). Groups in the solve's shared set resolve to loads.
    */
  def extract(solved: Solved, g: Int, t: Int,
              states: mutable.LinkedHashMap[(Int, Int), PlanNode]): PlanNode = {
    val j = solved.choiceAt(g, t)
    require(j != NoChoice, s"no plan for group $g at time $t (avail=${avail(g)})")
    if (j == Load) LoadState(g, t, solved.timeAt(g, t, 0)) // materialized elsewhere (MQO state or output)
    else {
      val node = nodes(j)
      val kidPlans = node.children.zipWithIndex.map { case (c, i) =>
        val tc = solved.timeAt(g, t, i)
        if (tc == t) extract(solved, c, tc, states)
        else {
          if (!states.contains((c, tc)))
            states((c, tc)) = extract(solved, c, tc, states)
          LoadState(c, t, tc)
        }
      }
      Compute(g, t, node.op, kidPlans)
    }
  }
}

object Dp {
  /** Value-iteration round cap; a solve still changing at the cap throws. */
  val MaxRounds = 200
  /** [[Solved]] choice markers: no plan yet, or load the shared copy. */
  private[opt] val NoChoice = -1
  private[opt] val Load = -2
}
