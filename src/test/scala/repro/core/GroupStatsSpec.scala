package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib.Scenarios
import repro.core.algebra._
import repro.core.cost.WeightedCost
import repro.core.memo._
import repro.core.rules.{IqpProblem, Methods, OptFlags, RuleEngine}
import repro.core.stats.{Estimator, RelStats, TvrStats}
import repro.queries.LiteQueries
import repro.queries.RunningExample.{returnsScan, salesScan}

/** A memo group's statistics are one function of its TVR and link: the same
  * under every method configuration, whichever rule registers the group
  * first.
  */
class GroupStatsSpec extends AnyFunSuite {

  /** The statistics of every TVR link's group, keyed by the TVR's logical
    * expression, its children's (which name a HOV view bundle, that has no
    * logical expression of its own) and the link. */
  private def groupStats(p: IqpProblem, methods: Methods)
      : Seq[((Option[RelOp], Seq[Option[RelOp]], TvrLink), RelStats)] = {
    val memo = new RuleEngine(p, methods, OptFlags()).explore().memo
    for (t <- memo.tvrs.toSeq; (link, g) <- t.links.toSeq)
      yield (t.logical, t.childTvrs.map(memo.tvrs(_).logical), link) -> memo.groups(g).stats
  }

  test("group statistics do not depend on the method configuration") {
    val k = 3
    val differing = for (lq <- LiteQueries.all; retract <- Seq(false, true)) yield {
      val p = IqpProblem(k, lq.root, Seq(k - 1), Scenarios.syntheticStats(lq.root, 1.0, k, retract),
        WeightedCost(Vector(0.3, 0.3, 1.0)))
      val byLink = Scenarios.methodConfigs
        .flatMap { case (name, m) => groupStats(p, m).map { case (key, st) => key -> (name, st) } }
        .groupBy(_._1).values.map(_.map(_._2))
      assert(byLink.exists(_.map(_._1).distinct.size == Scenarios.methodConfigs.size))
      s"${lq.name}, retractions $retract" -> byLink.filter(_.map(_._2).distinct.size > 1)
    }
    val failing = differing.filter(_._2.nonEmpty)
    assert(failing.isEmpty, s"${failing.size} cases, e.g. " +
      failing.take(2).map { case (c, ls) => s"$c: ${ls.head}" }.mkString("\n", "\n", ""))
  }

  test("a join over an aggregate: its delta has the snapshot-difference statistics") {
    val agg = AggOp(salesScan, Seq("s_oid"), Seq(AggCall(SumF, Some(Col("s_price")), "total")))
    val q = JoinOp(agg, returnsScan, Inner, Seq("s_oid"), Seq("r_oid"))
    val tables = Map(
      "sales" -> TvrStats(Vector(100.0, 50.0),
        Map("s_oid" -> 80.0, "s_cat" -> 5.0, "s_price" -> 60.0)),
      "returns" -> TvrStats(Vector(20.0, 10.0), Map("r_oid" -> 25.0, "r_cost" -> 20.0)))
    val p = IqpProblem(2, q, Seq(1), tables, WeightedCost(Vector(0.3, 1.0)))
    val exp = new RuleEngine(p, Methods.full, OptFlags()).explore()
    val memo = exp.memo
    def stats(t: Tvr, link: TvrLink): RelStats = memo.groups(t.links(link)).stats
    val join = memo.tvrs(exp.rootTvr)
    val Seq(aggT, retT) = join.childTvrs.map(memo.tvrs(_))
    val delta = memo.groups(join.links(Del(0, 1)))
    assert(delta.nodes.exists(_.op == MDiffMult()))
    assert(delta.nodes.exists(_.op.isInstanceOf[MDeltaJoin]))
    val (s1, s2) = (stats(join, Snap(0)), stats(join, Snap(1)))
    assert(delta.stats == RelStats(math.max(0.1 * s2.rows, s2.rows - s1.rows), s2.distinct))
    // the delta join's own estimate is a different number
    val viaDeltaJoin = Estimator.deltaJoin(stats(aggT, Snap(0)), stats(aggT, Del(0, 1)),
      stats(retT, Snap(1)), stats(retT, Del(0, 1)), Inner, Seq("s_oid"), Seq("r_oid")).out
    assert(viaDeltaJoin != delta.stats)
  }
}
