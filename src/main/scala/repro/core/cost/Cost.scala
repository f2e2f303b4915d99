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
  def cpu(x: Double): Res = Res(x, 0, 0, 0)
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
  /** Fraction of the previous snapshot of Q charged to OJV's ΔQ^I, which
    * reads the padded rows off it (Eq. 4b). */
  val OjvScanRate = 0.3

  /** Rows of work one operator does: streamed inputs plus output, resident
    * state it only probes at [[ProbeRate]]. The optimizer passes estimated
    * rows, the executor observed ones. The `out` terms are added in order
    * (an estimate passes a delta join's parts). HOV init/step do trigger
    * work, which is no function of row counts, and are not covered.
    */
  def work(op: MOp, in: IndexedSeq[Double], out: Double*): Double = {
    def plusOut(streamed: Double): Double = out.foldLeft(streamed)(_ + _)
    op match {
      case MScanSnap(_, _) | MScanDelta(_, _, _) | MHovExtract(_) => out.sum
      case MFilter(_) | MProject(_) | MPadProject(_) | MFinalAgg(_, _) => in(0)
      case MUnionAll(_) => in.sum
      case MJoin(_, _, _, _) | MDiffMult() => plusOut(in(0) + in(1))
      case MPartialAgg(_, _) | MSnapAgg(_, _) => plusOut(in(0))
      // children [lOld, dL, rOld, dR]: the right-side resident state is
      // updated in place with dR and probed
      case MDeltaJoin(_, _, _, _) =>
        plusOut(in(1) + in(3)) + ProbeRate * (in(0) + in(2))
      // children [lOld, dL, rOld, dR, qOld]
      case MOjvDelta(_, _, _) =>
        plusOut(in(1) + in(3)) + OjvScanRate * in(4) + ProbeRate * (in(0) + in(2))
      // appending a delta onto resident state
      case MMergeMult() | MMergeState(_, _) => in(1) + ProbeRate * in(0)
      // two streamed deltas, nothing resident
      case MMergeDelta() => in(0) + in(1)
      case MHovInit(_) | MHovStep(_, _) =>
        throw new IllegalArgumentException(s"$op does trigger work, not row work")
    }
  }

  def of(op: MOp, cs: Vector[RelStats], out: RelStats): Res = {
    val in = cs.map(_.rows)
    // ΔL ⋈ R_new and L_old ⋈ ΔR of a delta join over [lOld, dL, rOld, dR, ..]
    def parts(kind: JoinKind, lk: Seq[String], rk: Seq[String]) = {
      val dj = Estimator.deltaJoin(cs(0), cs(1), RelStats(in(2) + in(3), cs(2).distinct),
        cs(3), kind, lk, rk)
      Seq(dj.fromDL.rows, dj.fromDR.rows)
    }
    op match {
      case MDeltaJoin(kind, lk, rk, _) =>
        val (lOld, rOld, dR) = (cs(0), cs(2), cs(3))
        val extra = if (kind == Inner) 0.0 else {
          val trans = math.min(dR.rows, rOld.d(rk.head) * 0.2 + 1)
          trans + Estimator.join(lOld, RelStats(trans, Map(rk.head -> trans)), Inner, lk, rk).rows
        }
        Res(work(op, in, parts(kind, lk, rk) :+ extra: _*), 0, 0, in(1) + in(3))
      case MOjvDelta(lk, rk, _) =>
        // ΔQ^I needs a pass over the previous snapshot of Q (Eq. 4b) — the
        // term that hurts on complex queries with big snapshots.
        Res(work(op, in, parts(LeftOuter, lk, rk): _*), 0, 0, in(1) + in(3))
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
        Res(total + in.sum, 0, out.rows, in.sum)
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
      case _ =>
        val cpu = work(op, in, out.rows)
        op match {
          case MScanSnap(_, _) | MScanDelta(_, _, _) => Res(cpu, out.rows, 0, 0)
          case MJoin(_, _, _, _) => Res(cpu, 0, math.min(in(0), in(1)), in(0) + in(1))
          // full scans of both snapshots — the expensive alternative PNA prunes
          case MDiffMult() => Res(cpu, 0, 0, in(0) + in(1))
          case MPartialAgg(_, _) | MSnapAgg(_, _) => Res(cpu, 0, out.rows, in(0))
          case MMergeState(_, _) => Res(cpu, 0, out.rows, 0)
          case _ => Res.cpu(cpu)
        }
    }
  }

  /** Work of saving or loading a state of `rows` rows. */
  def stateWork(rows: Double): Double = StateRate * rows
  def save(rows: Double): Res = Res(0, stateWork(rows), 0, 0)
  def load(rows: Double): Res = save(rows)
}
