package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.cost._
import repro.core.stats.RelStats
import repro.core.memo._
import repro.core.algebra._

/** Pure unit tests of the temporal cost algebra and the operator cost
  * model — no Spark needed.
  */
class CostSpec extends AnyFunSuite {

  test("TCost addition and weighted total") {
    val a = TCost(Vector(1.0, 2.0)); val b = TCost(Vector(0.5, 3.0))
    assert((a + b).at == Vector(1.5, 5.0))
    assert(a.total(Vector(0.25, 1.0)) == 0.25 + 2.0)
  }

  test("WeightedCost ordering follows the weighted sum") {
    val f = WeightedCost(Vector(0.25, 1.0))
    assert(f.lt(TCost(Vector(100.0, 1.0)), TCost(Vector(0.0, 30.0))))
    assert(!f.lt(TCost(Vector(0.0, 30.0)), TCost(Vector(100.0, 1.0))))
  }

  test("VectorCost compares in reverse lexical order (last entry dominates)") {
    val f = VectorCost(2)
    // cheaper at t1 wins even if much more expensive at t0
    assert(f.lt(TCost(Vector(1000.0, 1.0)), TCost(Vector(0.0, 2.0))))
    // ties at t1 break on t0
    assert(f.lt(TCost(Vector(1.0, 5.0)), TCost(Vector(2.0, 5.0))))
    assert(!f.lt(TCost(Vector(2.0, 5.0)), TCost(Vector(2.0, 5.0))))
  }

  test("the §6.2 save/load example: weights flip the optimal choice") {
    // computing a join costs 10, save 5, load 4:
    // (i) compute at t2: (0, 10); (ii) compute at t1 + save, load at t2: (15, 4)
    val optI = TCost(Vector(0.0, 10.0)); val optII = TCost(Vector(15.0, 4.0))
    val w06 = WeightedCost(Vector(0.6, 1.0)); val w02 = WeightedCost(Vector(0.2, 1.0))
    assert(w06.lt(optI, optII), "w1=0.6 must prefer computing at t2")
    assert(w02.lt(optII, optI), "w1=0.2 must prefer early compute + reload")
  }

  test("scalar combines resources linearly") {
    assert(Res(1, 2, 3, 4).scalar == 1 + 0.5 * 2 + 0.1 * 3 + 0.7 * 4)
    assert((Res(1, 0, 0, 0) + Res(0, 2, 0, 0)).scalar == Res(1, 2, 0, 0).scalar)
  }

  private val small = RelStats(100, Map("k" -> 50.0))
  private val big = RelStats(10000, Map("k" -> 5000.0))
  private val tiny = RelStats(10, Map("k" -> 10.0))

  test("delta join is cheaper than batch join when deltas are small") {
    val batch = OpCost.of(MJoin(Inner, Seq("k"), Seq("k"), Nil),
      Vector(big, big), RelStats(20000, Map.empty))
    val delta = OpCost.of(MDeltaJoin(Inner, Seq("k"), Seq("k"), Nil),
      Vector(big, tiny, big, tiny), RelStats(40, Map.empty))
    assert(delta.scalar < batch.scalar / 5,
      s"delta join (${delta.scalar}) should beat batch join (${batch.scalar})")
  }

  test("OJV's delta pays for scanning the previous snapshot of Q") {
    val im1 = OpCost.of(MDeltaJoin(LeftOuter, Seq("k"), Seq("k"), Nil),
      Vector(big, tiny, big, tiny), RelStats(40, Map.empty))
    val hugeQ = RelStats(200000, Map.empty)
    val ojv = OpCost.of(MOjvDelta(Seq("k"), Seq("k"), Nil),
      Vector(big, tiny, big, tiny, hugeQ), RelStats(40, Map.empty))
    assert(ojv.scalar > im1.scalar,
      "with a huge previous snapshot OJV must cost more than the direct delta rule")
  }

  test("snapshot difference is the most expensive way to get a delta") {
    val diff = OpCost.of(MDiffMult(), Vector(big, big), RelStats(100, Map.empty))
    val gen = OpCost.of(MDeltaJoin(Inner, Seq("k"), Seq("k"), Nil),
      Vector(big, tiny, big, tiny), RelStats(40, Map.empty))
    assert(gen.scalar < diff.scalar, "PNA's premise: generated deltas beat snapshot diffs")
  }

  test("merge prices the delta side, probing resident state") {
    val m = OpCost.of(MMergeMult(), Vector(big, tiny), big)
    assert(m.scalar < big.rows / 2, "merging a small delta must not rescan the snapshot")
  }

  test("merging two deltas streams both: nothing is resident") {
    val m = OpCost.of(MMergeDelta(), Vector(big, tiny), RelStats(big.rows + tiny.rows, Map.empty))
    assert(m.scalar == big.rows + tiny.rows)
  }
}
