package repro.core.opt

import scala.collection.mutable
import repro.core.cost._
import repro.core.memo._

/** State-materialization MQO (§6.3 Algorithm 1, with the Theorem-7
  * earliest-time reduction): starting from the mandatory output states,
  * greedily add the shared sub-plan that lowers the total plan cost most,
  * while the cost improves.
  *
  * Costing a shared set solves the DP once per prefix of the set sorted by
  * time. A prefix that contains no candidate is a prefix of the chosen set,
  * and it recurs across candidates and rounds, so its solve is memoized;
  * the cache holds only prefixes of the current chosen set. Solves that
  * involve a candidate are dropped after use.
  */
object Mqo {

  def select(dp: Dp, rootTvr: Int, theorem7: Boolean): IncrementalPlan = {
    val memo = dp.memo
    val problem = dp.problem
    val k = problem.numTimes
    val costFn = problem.costFn

    val outPairs: Vector[(Int, Int)] = problem.outputTimes.toVector.map { ti =>
      val g = memo.linkGroup(rootTvr, Snap(ti, MultP)).getOrElse(
        throw new IllegalStateException(s"no snapshot of the query result at t=$ti"))
      (g, ti)
    }
    val lastT = problem.outputTimes.max
    // outputs required before the last run are states by definition (IVM
    // keeps the view materialized between runs)
    val autoShared: Vector[(Int, Int)] = outPairs.filter(_._2 < lastT)

    var s: Vector[(Int, Int)] = autoShared.sortBy(_._2)
    def prefixesOf(v: Vector[(Int, Int)]): Set[Map[Int, Int]] =
      (0 to v.size).map(i => v.take(i).toMap).toSet
    var prefixes = prefixesOf(s)
    val solved = mutable.HashMap[Map[Int, Int], Solved]()
    def solve(shared: Map[Int, Int]): Solved = solved.getOrElse(shared, {
      val sv = dp.solve(shared)
      if (prefixes(shared)) solved(shared) = sv
      sv
    })

    def planCost(sortedS: Vector[(Int, Int)]): TCost = {
      var total = TCost.zero(k)
      for (i <- sortedS.indices) {
        val (g, ts) = sortedS(i)
        val sv = solve(sortedS.take(i).toMap)
        total = total + sv.cost(g, ts) + TCost.at(k, ts, dp.saveScalar(g))
      }
      val svAll = solve(sortedS.toMap)
      for ((g, ti) <- outPairs) total = total + svAll.cost(g, ti)
      total
    }

    // ---- baseline plan (only the mandatory output states shared)
    var sCost = planCost(s)

    // ---- candidate set: groups used more than once in the baseline plan
    val baselineStates = mutable.LinkedHashMap[(Int, Int), PlanNode]()
    val svBase = solve(s.toMap)
    val baseOutPlans = outPairs.map { case (g, ti) => dp.extract(svBase, g, ti, baselineStates) }
    val usage = mutable.HashMap[Int, Int]().withDefaultValue(0)
    def walk(p: PlanNode): Unit = p match {
      case Compute(g, _, _, cs) => usage(g) += 1; cs.foreach(walk)
      case LoadState(g, _, _)   => usage(g) += 1
    }
    baseOutPlans.foreach(walk); baselineStates.values.foreach(walk)
    val candidateGroups = usage.filter(_._2 >= 2).keys
      .filterNot(g => s.exists(_._1 == g))
      .filter(g => dp.avail(g) != Int.MaxValue)
    val candidates = mutable.LinkedHashSet[(Int, Int)]()
    for (g <- candidateGroups) {
      if (theorem7) candidates.add((g, dp.avail(g)))
      else (dp.avail(g) until k).foreach(t => candidates.add((g, t)))
    }

    // ---- Algorithm 1: greedy addition while the plan cost improves
    var improved = true
    while (improved && candidates.nonEmpty) {
      improved = false
      var best: Option[((Int, Int), TCost)] = None
      for (c <- candidates) {
        val cc = planCost((s :+ c).sortBy(_._2))
        if (best.isEmpty || costFn.lt(cc, best.get._2)) best = Some((c, cc))
      }
      best match {
        case Some((c, cc)) if costFn.lt(cc, sCost) =>
          s = (s :+ c).sortBy(_._2); sCost = cc
          prefixes = prefixesOf(s)
          solved.filterInPlace((shared, _) => prefixes(shared))
          candidates.remove(c); improved = true
        case _ => ()
      }
    }

    // ---- final extraction under the chosen shared set
    val states = mutable.LinkedHashMap[(Int, Int), PlanNode]()
    for (i <- s.indices) {
      val (g, ts) = s(i)
      if (!states.contains((g, ts)))
        states((g, ts)) = dp.extract(solve(s.take(i).toMap), g, ts, states)
    }
    val svAll = solve(s.toMap)
    val outPlans = outPairs.map { case (g, ti) => OutputEntry(ti, dp.extract(svAll, g, ti, states)) }
    val stateEntries = states.toVector.map { case ((g, t), p) => StateEntry(g, t, p) }
      .sortBy(e => (e.time, e.groupId))
    val estStateRows = states.keys.map { case (g, _) => memo.groups(g).stats.rows }.sum
    IncrementalPlan(stateEntries, outPlans, sCost, estStateRows)
  }
}
