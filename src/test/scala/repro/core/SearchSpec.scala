package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.algebra._
import repro.core.cost.WeightedCost
import repro.core.memo._
import repro.core.opt.Dp
import repro.core.rules.{IqpProblem, Methods, OptFlags, RuleEngine}
import repro.core.stats.{RelStats, TvrStats}
import repro.queries.RunningExample.salesScan

/** Search-layer limits: the temporal DP must converge or fail loudly, and
  * exploration's translational-symmetry markers must not collide at large |T|.
  */
class SearchSpec extends AnyFunSuite {
  private val pred = Cmp(">", Col("a"), Lit(0L))
  private val stats = RelStats(10, Map.empty)

  /** A memo whose groups form one filter chain ending in a scan; group i
    * reads group i + 1, so each value-iteration round (in group-index order)
    * settles one more group. */
  private def chainDp(n: Int): Dp = {
    val m = new Memo
    (0 until n).foreach(_ => m.newGroup(stats))
    for (g <- 0 until n - 1) m.register(MNode(MFilter(pred), Vector(g + 1)), Some(g), stats)
    m.register(MNode(MScanSnap("t", 0), Vector.empty), Some(n - 1), stats)
    val q = FilterOp(Scan("t", Seq("a" -> TLong)), pred)
    new Dp(m, IqpProblem(1, q, Seq(0), Map.empty, WeightedCost(Vector(1.0))))
  }

  test("a DP that converges within the round cap reports its rounds") {
    val dp = chainDp(150)
    val sv = dp.solve(Map.empty)
    assert(sv.rounds == 151 && dp.solves == 1 && dp.maxRounds == 151)
    // a scan costs 10 rows read + 0.5 × 10 rows of IO; each filter 10 rows
    assert(sv.cost(0, 0).at == Vector(15.0 + 149 * 10.0))
  }

  test("a DP still changing at the round cap throws") {
    val e = intercept[IllegalStateException](chainDp(Dp.MaxRounds + 50).solve(Map.empty))
    assert(e.getMessage.contains("did not converge"))
  }

  test("translational symmetry keeps every delta span distinct at |T| = 103") {
    // spans (0, 102) and (1, 2) both encoded as 102 under a t1 * 100 + t2 key
    val k = 103
    val positive = Cmp(">", Col("s_price"), Lit(0.0))
    val q = FilterOp(salesScan, positive)
    val tables = Map("sales" -> TvrStats(Vector.fill(k)(10.0), Map("s_oid" -> 10.0)))
    val p = IqpProblem(k, q, Seq(k - 1), tables, WeightedCost(Vector.fill(k)(1.0)))
    val exp = new RuleEngine(p, Methods.im1, OptFlags(ge = false)).explore()
    val memo = exp.memo
    val base = memo.tvrs.find(_.baseTable.contains("sales")).get
    // the delta rule's output: the filter over the scan's delta of the span
    def hasFilterDelta(span: Del): Boolean = (for {
      d <- base.links.get(span); g <- memo.linkGroup(exp.rootTvr, span)
    } yield memo.groups(g).nodes.contains(MNode(MFilter(positive), Vector(d)))).contains(true)
    val missing = for (t1 <- 0 until k; t2 <- t1 + 1 until k if !hasFilterDelta(Del(t1, t2)))
      yield (t1, t2)
    assert(missing.isEmpty, s"${missing.size} spans lack their filter delta, e.g. ${missing.take(3)}")
  }
}
