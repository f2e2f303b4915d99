package repro.core.cost

import repro.core.algebra._
import repro.core.memo._
import repro.core.stats.{Estimator, RelStats}

/** One operator's resource usage: the paper's linear combination of CPU, IO,
  * memory, and network transfer (§8.1).
  */
final case class Res(cpu: Double, io: Double, mem: Double, net: Double) {
  def +(o: Res): Res = Res(cpu + o.cpu, io + o.io, mem + o.mem, net + o.net)
  /** The fixed linear combination used throughout the reproduction. */
  def scalar: Double = cpu + 0.5 * io + 0.1 * mem + 0.7 * net
}
object Res {
  val zero: Res = Res(0, 0, 0, 0)
  def cpu(x: Double): Res = Res(x, 0, 0, 0)
  def io(x: Double): Res = Res(0, x, 0, 0)
}

/** Temporal cost: a per-time vector of scalars. `c̃_w` collapses it with
  * weights; `c̃_v` compares it entry-wise in reverse lexical order (§6.2).
  */
final case class TCost(at: Vector[Double]) {
  def +(o: TCost): TCost = TCost(at.zip(o.at).map { case (a, b) => a + b })
  def total(weights: Vector[Double]): Double =
    at.zip(weights).map { case (c, w) => c * w }.sum
}
object TCost {
  def zero(k: Int): TCost = TCost(Vector.fill(k)(0.0))
  def inf(k: Int): TCost = TCost(Vector.fill(k)(Double.PositiveInfinity))
  def at(k: Int, t: Int, v: Double): TCost = TCost(Vector.tabulate(k)(i => if (i == t) v else 0.0))
}

/** Which temporal cost function the IQP problem minimizes. */
sealed trait CostFn {
  def k: Int
  /** true iff the cost row `a(ai until ai + k)` is strictly better than the
    * row `b(bi until bi + k)`. The DP compares flat rows with this. */
  def lt(a: Array[Double], ai: Int, b: Array[Double], bi: Int): Boolean
  /** true iff a is strictly better than b. */
  def lt(a: TCost, b: TCost): Boolean = lt(a.at.toArray, 0, b.at.toArray, 0)
  def describe(c: TCost): String
  def scalarize(c: TCost): Double
}
/** c̃_w: weighted sum over time (PDW-PD). */
final case class WeightedCost(weights: Vector[Double]) extends CostFn {
  private val w = weights.toArray
  def k: Int = weights.size
  /** Weighted total of a row, summed in index order from 0.0. */
  private def total(a: Array[Double], off: Int): Double = {
    var s = 0.0; var i = 0
    while (i < w.length) { s += a(off + i) * w(i); i += 1 }
    s
  }
  def lt(a: Array[Double], ai: Int, b: Array[Double], bi: Int): Boolean =
    total(a, ai) < total(b, bi)
  def describe(c: TCost): String = f"${c.total(weights)}%.1f"
  def scalarize(c: TCost): Double = c.total(weights)
}
/** c̃_v: per-time vector compared in reverse lexical order (IVM-PD): the
  * cost at the latest time dominates.
  */
final case class VectorCost(k: Int) extends CostFn {
  def lt(a: Array[Double], ai: Int, b: Array[Double], bi: Int): Boolean = {
    var i = k - 1
    while (i >= 0) {
      if (a(ai + i) < b(bi + i)) return true
      if (a(ai + i) > b(bi + i)) return false
      i -= 1
    }
    false
  }
  def describe(c: TCost): String = c.at.map(v => f"$v%.1f").mkString("[", ", ", "]")
  /** Most-significant entry (the last), used for single-number reporting. */
  def scalarize(c: TCost): Double = c.at.last
}

/** Per-operator resource model. Delta operators are priced on the streamed
  * (delta-sized) inputs plus output; snapshot-sized inputs they merely probe
  * are charged at a reduced rate, matching an execution substrate that keeps
  * join/aggregate state resident (the paper's IncrHashInnerJoin et al., §6.1).
  */
object OpCost {
  /** Fraction at which probed-but-resident state is charged. */
  val ProbeRate = 0.02
  /** Fraction of a state's rows charged for one save/load (fast local
    * storage vs full recomputation, as on the paper's production cluster). */
  val StateRate = 0.2

  def of(op: MOp, cs: Vector[RelStats], out: RelStats): Res = op match {
    case MScanSnap(_, _) | MScanDelta(_, _, _) =>
      Res(out.rows, out.rows, 0, 0)
    case MFilter(_) | MProject(_) | MPadProject(_) =>
      Res.cpu(cs(0).rows)
    case MUnionAll(_) =>
      Res.cpu(cs.map(_.rows).sum)
    case MJoin(_, _, _, _) =>
      val (l, r) = (cs(0), cs(1))
      Res(l.rows + r.rows + out.rows, 0, math.min(l.rows, r.rows), l.rows + r.rows)
    case MDeltaJoin(kind, lk, rk, _) =>
      // children [lOld, dL, rOld, dR]; the right-side resident state is
      // updated in place with dR and probed
      val Vector(lOld, dL, rOld, dR) = cs
      val rNew = RelStats(rOld.rows + dR.rows, rOld.distinct)
      val o1 = Estimator.join(dL, rNew, kind, lk, rk).rows
      // lo: new matches are a real inner join; semi/anti: membership flips
      // are bounded by the left side
      val o2 = Estimator.join(lOld, dR,
        if (kind == Inner || kind == LeftOuter) Inner else LeftSemi, lk, rk).rows
      val extra = if (kind == Inner) 0.0 else {
        val trans = math.min(dR.rows, rOld.d(rk.head) * 0.2 + 1)
        trans + Estimator.join(lOld, RelStats(trans, Map(rk.head -> trans)), Inner, lk, rk).rows
      }
      Res(dL.rows + dR.rows + o1 + o2 + extra + ProbeRate * (lOld.rows + rOld.rows),
          0, 0, dL.rows + dR.rows)
    case MMergeMult() | MMergeDelta() =>
      // appending a delta onto resident state
      Res(cs(1).rows + ProbeRate * cs(0).rows, 0, 0, 0)
    case MDiffMult() =>
      // full scans of both snapshots — the expensive alternative PNA prunes
      Res(cs(0).rows + cs(1).rows + out.rows, 0, 0, cs(0).rows + cs(1).rows)
    case MPartialAgg(_, _) =>
      Res(cs(0).rows + out.rows, 0, out.rows, cs(0).rows)
    case MMergeState(_, _) =>
      Res(cs(1).rows + ProbeRate * cs(0).rows, 0, out.rows, 0)
    case MFinalAgg(_, _) =>
      Res.cpu(cs(0).rows)
    case MOjvDelta(lk, rk, _) =>
      // children [lOld, dL, rOld, dR, qOld]; ΔQ^I needs a pass over the
      // previous snapshot of Q (Eq. 4b) — the term that hurts on complex
      // queries with big snapshots.
      val Vector(lOld, dL, rOld, dR, qOld) = cs
      val rNew = RelStats(rOld.rows + dR.rows, rOld.distinct)
      val o1 = Estimator.join(dL, rNew, LeftOuter, lk, rk).rows
      val o2 = Estimator.join(lOld, dR, Inner, lk, rk).rows
      Res(dL.rows + dR.rows + o1 + o2 + 0.3 * qOld.rows +
            ProbeRate * (lOld.rows + rOld.rows),
          0, 0, dL.rows + dR.rows)
    case MHovInit(spec) =>
      // build complement views of every non-root leaf: chain joins
      var total = 0.0
      for (i <- 1 until spec.nLeaves) {
        var acc = cs(0)
        for (j <- 1 until spec.nLeaves if j != i) {
          acc = Estimator.join(acc, cs(j), Inner, spec.chain(j - 1)._1, spec.chain(j - 1)._2)
          total += acc.rows + cs(j).rows
        }
      }
      Res(total + cs.map(_.rows).sum, 0, out.rows, cs.map(_.rows).sum)
    case MHovStep(spec, _) =>
      // children [prevAux] ++ leaf deltas; delta-driven trigger work
      val deltas = cs.drop(1)
      var total = 0.0
      for (i <- 0 until spec.nLeaves) {
        val di = deltas(i)
        // contribution join of ΔXi against its complement view (resident)
        total += di.rows * 3.0
        // view updates of the other leaves' complements
        total += di.rows * (spec.nLeaves - 1)
      }
      Res(total + out.rows + ProbeRate * cs(0).rows, 0, 0, deltas.map(_.rows).sum)
    case MHovExtract(_) =>
      Res.cpu(out.rows)
  }

  def save(rows: Double): Res = Res(0, StateRate * rows, 0, 0)
  def load(rows: Double): Res = Res(0, StateRate * rows, 0, 0)
}
