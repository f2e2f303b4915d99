package repro.core.rules

import scala.collection.mutable
import repro.core.algebra._
import repro.core.memo._
import repro.core.stats._

/** Which incremental methods' rules are enabled (§8.1 method simulation).
  *
  * The linear TVR-generating rules (filter/project/union/inner join) and the
  * intra-TVR merges are the shared foundation and are always on. What
  * defines each method is how it handles outer joins and aggregates:
  * `im1OuterDelta` is IM-1's direct outer/semi/anti-join delta rule
  * (Griffin–Kumar); `im1AggDelta` is the direct aggregate-state delta; the
  * other flags enable the corresponding inter-TVR rule families. Simulating
  * IM-2/OJV replaces the direct outer-join rule with their decompositions;
  * simulating HOV replaces the direct aggregate delta (where a view chain
  * applies) with factorized view maintenance.
  */
final case class Methods(im2: Boolean = true, ojv: Boolean = true, hov: Boolean = true,
                         im1OuterDelta: Boolean = true, im1AggDelta: Boolean = true)

object Methods {
  /** Classic incremental view maintenance. */
  val im1: Methods = Methods(im2 = false, ojv = false, hov = false)
  /** Stream-style positive/held-back decomposition for outer joins. */
  val im2: Methods = Methods(im2 = true, ojv = false, hov = false, im1OuterDelta = false)
  /** Larson–Zhou outer-join view maintenance. */
  val ojv: Methods = Methods(im2 = false, ojv = true, hov = false, im1OuterDelta = false)
  /** Higher-order view maintenance for aggregates over join chains. */
  val hov: Methods = Methods(im2 = false, ojv = false, hov = true, im1AggDelta = false)
  /** Tempura: every rule family enabled. */
  val full: Methods = Methods()
}

/** Exploration speed-up switches (§5.4): translational symmetry (skip
  * re-matching a rule on a (TVR, time) slot whose output already exists),
  * pruning non-promising alternatives (defer + skip snapshot-difference
  * rules when a TVR-generating delta exists), guided exploration (left-deep
  * merge order only: adjacent-delta merges, no delta-delta merging).
  */
final case class OptFlags(ts: Boolean = true, pna: Boolean = true, ge: Boolean = true)

/** An IQP problem instance (§2.1): `numTimes` discretized time points,
  * per-table delta statistics, the query, the times at which the full result
  * must be delivered, and the temporal cost function.
  */
final case class IqpProblem(
    numTimes: Int,
    query: RelOp,
    outputTimes: Seq[Int],
    tableStats: Map[String, TvrStats],
    costFn: repro.core.cost.CostFn)

final case class Exploration(
    memo: Memo,
    rootTvr: Int,
    exploreNanos: Long,
    im2RulesFired: Int,
    ojvRulesFired: Int,
    hovRulesFired: Int)

/** The Tempura rule engine: fires TVR rewrite rules on memo change events
  * until fixpoint, building the incremental plan space of §4/§5.
  */
final class RuleEngine(problem: IqpProblem, methods: Methods, flags: OptFlags) {
  val memo = new Memo
  private val k = problem.numTimes
  private val baseTvrByTable = mutable.HashMap[String, Int]()
  private val derived = mutable.HashMap[(String, Vector[Int]), Int]()
  /** Translational-symmetry skip-markers, keyed (rule, tvr, t1, t2): a time
    * point t is the slot (t, t), a delta span (t1, t2]. */
  private val fired = mutable.HashSet[(String, Int, Int, Int)]()
  /** Per TVR, the delta-delta merges done, indexed (a * k + b) * k + c. */
  private val mergedDeltas = mutable.HashMap[Int, java.util.BitSet]()
  /** Per HOV view-bundle TVR, the keys joining its leaf chain. */
  private val hovChains = mutable.HashMap[Int, Vector[(Seq[String], Seq[String])]]()
  private var im2Fired = 0; private var ojvFired = 0; private var hovFired = 0

  // ---------------------------------------------------------------- helpers

  private def tvr(id: Int): Tvr = memo.tvrs(id)

  /** Skip-marker for translational symmetry; only set on success. */
  private def done(rule: String, id: Int, t1: Int, t2: Int): Boolean =
    flags.ts && fired.contains((rule, id, t1, t2))
  private def markDone(rule: String, id: Int, t1: Int, t2: Int): Unit =
    if (flags.ts) fired.add((rule, id, t1, t2))

  /** Statistics of link `link` of TVR `id`: the one derivation of a memo
    * group's statistics. They follow from the TVR's logical expression and
    * the link alone, never from the rule that happens to register the group
    * first, so group statistics (and so DP costs) are the same under every
    * method configuration, and enabling more rules can only improve the
    * optimum.
    *  - A snapshot follows its operator over the children's snapshots; an
    *    aggregate's state snapshot or state delta aggregates its child's
    *    snapshot or delta (whichever way that delta is derived).
    *  - A delta is propagated from its inputs' deltas (§4.1) where every one
    *    of them is a base-table delta or propagated itself. Otherwise (every
    *    delta of an aggregate, and of what reads one) it is the difference
    *    of the TVR's own snapshots: `max(0.1·s₂, s₂ − s₁)` rows with s₂'s
    *    distinct counts.
    *  - The HOV view bundle (a TVR with no logical expression, whose rows
    *    count the stored bundle) at t is its complement views plus its leaf
    *    snapshots; a stepped bundle is the previous bundle plus the leaf
    *    deltas.
    */
  private val linkStatsCache = mutable.HashMap[(Int, TvrLink), RelStats]()
  private def linkStats(id: Int, link: TvrLink): RelStats =
    linkStatsCache.getOrElseUpdate((id, link), {
      val t = tvr(id)
      val c = t.childTvrs
      def snap(x: Int, ti: Int) = linkStats(x, Snap(ti))
      (t.logical, link) match {
        case (Some(s: Scan), Snap(ti, MultP))          => problem.tableStats(s.table).snapStats(ti)
        case (Some(FilterOp(_, p)), Snap(ti, MultP))   => Estimator.filter(snap(c(0), ti), p)
        case (Some(ProjectOp(_, es)), Snap(ti, MultP)) => Estimator.project(snap(c(0), ti), es)
        case (Some(JoinOp(_, _, kd, lk, rk)), Snap(ti, MultP)) =>
          Estimator.join(snap(c(0), ti), snap(c(1), ti), kd, lk, rk)
        case (Some(UnionAllOp(_)), Snap(ti, MultP)) => Estimator.unionAll(c.map(snap(_, ti)))
        case (Some(AggOp(_, keys, _)), Snap(ti, _)) => Estimator.agg(snap(c(0), ti), keys)
        case (Some(AggOp(_, keys, _)), Del(t1, t2, StateP)) =>
          Estimator.agg(linkStats(c(0), Del(t1, t2)), keys)
        case (Some(_), Del(t1, t2, MultP)) =>
          propagatedDelta(id, t1, t2).getOrElse {
            val (s2, s1) = (snap(id, t2), snap(id, t1))
            RelStats(math.max(s2.rows * 0.1, s2.rows - s1.rows), s2.distinct)
          }
        case (None, Snap(ti, AuxP)) =>
          // every complement view: leaf 0 joined with all leaves but one
          val chain = hovChains(id)
          val leaves = c.map(snap(_, ti))
          var total = 0.0
          for (i <- 1 until leaves.size) {
            var acc = leaves(0)
            for (j <- 1 until leaves.size if j != i)
              acc = Estimator.join(acc, leaves(j), Inner, chain(j - 1)._1, chain(j - 1)._2)
            total += acc.rows
          }
          RelStats(total + leaves.map(_.rows).sum, Map.empty)
        case (None, Del(t1, t2, AuxP)) =>
          RelStats(linkStats(id, Snap(t1, AuxP)).rows +
            c.map(linkStats(_, Del(t1, t2)).rows).sum, Map.empty)
        case other => throw new IllegalStateException(s"no statistics for $other of $t")
      }
    })

  /** A delta's statistics propagated from its inputs' deltas, if every
    * input delta is a base-table delta or is itself propagated. */
  private def propagatedDelta(id: Int, t1: Int, t2: Int): Option[RelStats] = {
    val t = tvr(id)
    def del(i: Int) = propagatedDelta(t.childTvrs(i), t1, t2)
    t.logical match {
      case Some(s: Scan)          => Some(problem.tableStats(s.table).deltaStats(t1, t2))
      case Some(FilterOp(_, p))   => del(0).map(Estimator.filter(_, p))
      case Some(ProjectOp(_, es)) => del(0).map(Estimator.project(_, es))
      case Some(JoinOp(_, _, kd, lk, rk)) =>
        for (dL <- del(0); dR <- del(1)) yield Estimator.deltaJoin(
          linkStats(t.childTvrs(0), Snap(t1)), dL, linkStats(t.childTvrs(1), Snap(t2)), dR,
          kd, lk, rk).out
      case Some(UnionAllOp(_)) =>
        val ds = t.childTvrs.indices.map(del)
        if (ds.forall(_.isDefined)) Some(Estimator.unionAll(ds.map(_.get))) else None
      case _ => None
    }
  }

  /** Register an operator as a given intra-TVR link (creating the group if
    * the TVR does not have that link yet). Returns true if new.
    */
  private def registerAs(tvrId: Int, link: TvrLink, op: MOp, children: Vector[Int]): Boolean = {
    memo.nRuleFires += 1
    val existing = memo.linkGroup(tvrId, link)
    val g = memo.register(MNode(op, children), existing, linkStats(tvrId, link))
    memo.addLink(tvrId, link, g) || existing.isEmpty
  }

  /** IM-2's padded held-back part `pad(Q^N_t)`: a group with no TVR link,
    * with its input's rows and the padded columns at one distinct value. */
  private def padGroup(cols: Seq[(String, ColType)], neg: Int): Int = {
    val in = memo.groups(neg).stats
    memo.register(MNode(MPadProject(cols), Vector(neg)), None,
      RelStats(in.rows, in.distinct ++ cols.map(_._1 -> 1.0)))
  }

  // --------------------------------------------------------------- seeding

  /** Build TVR skeletons for the whole query and seed scan links. */
  private def seedTvr(op: RelOp): Int = op match {
    case SubqueryOp(_, c) => seedTvr(c) // transparent boundary
    case s: Scan =>
      baseTvrByTable.getOrElseUpdate(s.table, {
        val t = memo.newTvr()
        t.baseTable = Some(s.table); t.logical = Some(s)
        t.appendOnly = !problem.tableStats(s.table).hasRetractions
        for (i <- 0 until k) {
          registerAs(t.id, Snap(i), MScanSnap(s.table, i), Vector.empty)
          if (i > 0) registerAs(t.id, Del(i - 1, i), MScanDelta(s.table, i - 1, i), Vector.empty)
        }
        t.id
      })
    case o =>
      val children = o.children.map(seedTvr).toVector
      val key = (o.getClass.getSimpleName + sig(o), children)
      derived.getOrElseUpdate(key, {
        val t = memo.newTvr()
        t.logical = Some(o); t.childTvrs = children
        t.appendOnly = o match {
          case _: FilterOp | _: ProjectOp | _: UnionAllOp => children.forall(tvr(_).appendOnly)
          case JoinOp(_, _, Inner, _, _) | JoinOp(_, _, LeftSemi, _, _) =>
            children.forall(tvr(_).appendOnly)
          case _ => false
        }
        children.foreach(c => memo.recordParent(c, t.id))
        t.id
      })
  }

  /** Structural signature of an operator (ignoring its children objects). */
  private def sig(o: RelOp): String = o match {
    case FilterOp(_, p)        => s"F(${p.toSql})"
    case ProjectOp(_, es)      => s"P(${es.map { case (n, e) => s"$n=${e.toSql}" }.mkString(",")})"
    case JoinOp(_, _, kd, lk, rk) => s"J($kd,$lk,$rk)"
    case AggOp(_, ks, as)      => s"A($ks,${as.map(_.toSql).mkString(",")})"
    case UnionAllOp(cs)        => s"U(${cs.size})"
    case s: Scan               => s"S(${s.table})"
    case SubqueryOp(n, _)      => s"Q($n)"
  }

  /** Create-or-reuse a derived TVR for an inter-TVR rule result. */
  private def derivedTvr(disc: String, logical: RelOp, children: Vector[Int],
                         appendOnly: Boolean): (Int, Boolean) = {
    val key = (disc + sig(logical), children)
    derived.get(key) match {
      case Some(id) => (id, false)
      case None =>
        val t = memo.newTvr()
        t.logical = Some(logical); t.childTvrs = children; t.appendOnly = appendOnly
        children.foreach(c => memo.recordParent(c, t.id))
        derived(key) = t.id
        (t.id, true)
    }
  }

  // ----------------------------------------------------------------- rules

  /** Def. 3: [Q(R)]_t = Q(R_t) — register snapshots of this TVR at every
    * time where all children's snapshots exist.
    */
  private def ruleSnapshotPropagate(id: Int): Unit = {
    val t = tvr(id)
    val logical = t.logical.getOrElse(return)
    if (t.baseTable.isDefined) return
    for (ti <- 0 until k if !done("snap", id, ti, ti)) {
      memo.nRuleAttempts += 1
      val childSnaps = t.childTvrs.map(c => memo.linkGroup(c, Snap(ti)))
      if (childSnaps.forall(_.isDefined)) {
        val cs = childSnaps.map(_.get)
        logical match {
          case FilterOp(_, p)   => registerAs(id, Snap(ti), MFilter(p), cs)
          case ProjectOp(_, es) => registerAs(id, Snap(ti), MProject(es), cs)
          case UnionAllOp(_)    => registerAs(id, Snap(ti), MUnionAll(cs.size), cs)
          case JoinOp(_, r, kd, lk, rk) =>
            registerAs(id, Snap(ti), MJoin(kd, lk, rk, rightColsOf(id)), cs)
          case AggOp(_, keys, aggs) if aggs.forall(_.incrementable) =>
            registerAs(id, Snap(ti, StateP), MPartialAgg(keys, aggs), cs)
          // MIN/MAX keep no state: such an aggregate is recomputed at
          // every snapshot it is asked for
          case AggOp(_, keys, aggs) => registerAs(id, Snap(ti), MSnapAgg(keys, aggs), cs)
          case _: Scan => ()
        }
        markDone("snap", id, ti, ti)
      }
    }
  }

  private def rightColsOf(id: Int): Seq[(String, ColType)] = groupColsOfTvr(tvr(id).childTvrs(1))

  /** Final: aggregate state snapshot → multiplicity snapshot. */
  private def ruleFinal(id: Int): Unit = {
    val t = tvr(id)
    t.logical match {
      case Some(AggOp(_, keys, aggs)) =>
        for (ti <- 0 until k if !done("final", id, ti, ti)) {
          memo.nRuleAttempts += 1
          memo.linkGroup(id, Snap(ti, StateP)).foreach { g =>
            registerAs(id, Snap(ti), MFinalAgg(keys, aggs), Vector(g))
            markDone("final", id, ti, ti)
          }
        }
      case _ => ()
    }
  }

  /** All spans for which delta links may exist (adjacent only under GE). */
  private def spans: Seq[(Int, Int)] =
    if (flags.ge) (0 until k - 1).map(t => (t, t + 1))
    else for { a <- 0 until k - 1; b <- a + 1 until k } yield (a, b)

  /** TVR-generating rules (§4.1): per-operator delta queries. */
  private def ruleDelta(id: Int): Unit = {
    val t = tvr(id)
    val logical = t.logical.getOrElse(return)
    if (t.baseTable.isDefined) return
    for ((t1, t2) <- spans if !done("delta", id, t1, t2)) {
      memo.nRuleAttempts += 1
      def cDel(i: Int, p: Persp = MultP) = memo.linkGroup(t.childTvrs(i), Del(t1, t2, p))
      def cSnap(i: Int, ti: Int) = memo.linkGroup(t.childTvrs(i), Snap(ti))
      logical match {
        case FilterOp(_, p) =>
          cDel(0).foreach { g =>
            registerAs(id, Del(t1, t2), MFilter(p), Vector(g)); markDone("delta", id, t1, t2)
          }
        case ProjectOp(_, es) =>
          cDel(0).foreach { g =>
            registerAs(id, Del(t1, t2), MProject(es), Vector(g)); markDone("delta", id, t1, t2)
          }
        case UnionAllOp(cs) =>
          val ds = t.childTvrs.indices.map(i => cDel(i))
          if (ds.forall(_.isDefined)) {
            registerAs(id, Del(t1, t2), MUnionAll(ds.size), ds.map(_.get).toVector)
            markDone("delta", id, t1, t2)
          }
        case AggOp(_, keys, aggs) if aggs.forall(_.incrementable) &&
            (methods.im1AggDelta || hovChain(id).isEmpty) =>
          cDel(0).foreach { g =>
            registerAs(id, Del(t1, t2, StateP), MPartialAgg(keys, aggs), Vector(g))
            markDone("delta", id, t1, t2)
          }
        case JoinOp(_, _, kd, lk, rk) if kd == Inner || methods.im1OuterDelta =>
          // children [lOld, dL, rOld, dR]; the operator maintains the
          // resident right-side state internally (IncrHashJoin-style), so
          // the delta is charged exactly once
          val need = Seq(cSnap(0, t1), cDel(0), cSnap(1, t1), cDel(1))
          if (need.forall(_.isDefined)) {
            registerAs(id, Del(t1, t2), MDeltaJoin(kd, lk, rk, rightColsOf(id)),
              need.map(_.get).toVector)
            markDone("delta", id, t1, t2)
          }
        case _ => ()
      }
    }
  }

  /** Intra-TVR merge rules: snapshot + delta → later snapshot, in both
    * perspectives; plus delta-delta merging when GE is off.
    */
  private def ruleMerge(id: Int): Unit = {
    val t = tvr(id)
    val keysAggs = t.logical.collect { case AggOp(_, ks, as) => (ks, as) }
    for ((t1, t2) <- spans) {
      // multiplicity perspective
      if (!done("mergeM", id, t1, t2)) {
        memo.nRuleAttempts += 1
        (memo.linkGroup(id, Snap(t1)), memo.linkGroup(id, Del(t1, t2))) match {
          case (Some(s), Some(d)) =>
            registerAs(id, Snap(t2), MMergeMult(), Vector(s, d))
            markDone("mergeM", id, t1, t2)
          case _ => ()
        }
      }
      // attribute (state) perspective
      keysAggs.foreach { case (ks, as) =>
        if (!done("mergeS", id, t1, t2)) {
          memo.nRuleAttempts += 1
          (memo.linkGroup(id, Snap(t1, StateP)), memo.linkGroup(id, Del(t1, t2, StateP))) match {
            case (Some(s), Some(d)) =>
              registerAs(id, Snap(t2, StateP), MMergeState(ks, as), Vector(s, d))
              markDone("mergeS", id, t1, t2)
            case _ => ()
          }
        }
      }
    }
    if (!flags.ge) {
      // Del(a, b) + Del(b, c) → Del(a, c), visited in (a, b, c) order over a
      // flat view of this TVR's delta links; under TS a merged triple is
      // not matched again
      val del = Array.fill(k * k)(-1)
      t.links.foreach { case (Del(a, b, MultP), g) => del(a * k + b) = g; case _ => () }
      val merged = mergedDeltas.getOrElseUpdate(id, new java.util.BitSet)
      for (a <- 0 until k - 1; b <- a + 1 until k - 1) {
        val x = del(a * k + b)
        if (x < 0) memo.nRuleAttempts += k - 1 - b
        else for (c <- b + 1 until k) {
          val triple = (a * k + b) * k + c
          if (!(flags.ts && merged.get(triple))) {
            memo.nRuleAttempts += 1
            val y = del(b * k + c)
            if (y >= 0) {
              registerAs(id, Del(a, c), MMergeDelta(), Vector(x, y))
              del(a * k + c) = t.links(Del(a, c))
              if (flags.ts) merged.set(triple)
            }
          }
        }
      }
    }
  }

  /** Intra-TVR difference rule (deferred; skipped under PNA when a
    * TVR-generating delta already exists). Returns true if it fired.
    */
  private def ruleDiff(id: Int): Boolean = {
    var firedAny = false
    for ((t1, t2) <- spans if !done("diff", id, t1, t2)) {
      memo.nRuleAttempts += 1
      val skip = flags.pna && memo.linkGroup(id, Del(t1, t2)).isDefined
      if (!skip) {
        (memo.linkGroup(id, Snap(t2)), memo.linkGroup(id, Snap(t1))) match {
          case (Some(sNew), Some(sOld)) =>
            if (registerAs(id, Del(t1, t2), MDiffMult(), Vector(sNew, sOld))) firedAny = true
            markDone("diff", id, t1, t2)
          case _ => ()
        }
      }
    }
    firedAny
  }

  /** IM-2 inter-TVR rules (§4.2 Eq. 3): positive / held-back decomposition. */
  private def ruleIm2(id: Int): Unit = {
    if (!methods.im2) return
    val t = tvr(id)
    val logical = t.logical.getOrElse(return)

    // positive part of this TVR itself
    if (!t.inter.contains(Im2Pos)) {
      memo.nRuleAttempts += 1
      if (t.appendOnly) {
        // append-only TVRs never retract: Q^P = Q
        memo.addInter(id, Im2Pos, id); im2Fired += 1
      } else logical match {
        case JoinOp(_, _, LeftOuter, lk, rk) =>
          val ps = t.childTvrs.map(c => tvr(c).inter.get(Im2Pos))
          if (ps.size == 2 && ps.forall(_.isDefined)) {
            val (lp, rp) = (ps(0).get, ps(1).get)
            val (lr, rr) = (tvr(lp).logical.get, tvr(rp).logical.get)
            val posT = derivedTvr("im2pos", JoinOp(lr, rr, Inner, lk, rk), Vector(lp, rp),
              appendOnly = true)
            val negT = derivedTvr("im2neg", JoinOp(lr, rr, LeftAnti, lk, rk), Vector(lp, rp),
              appendOnly = false)
            memo.addInter(id, Im2Pos, posT._1)
            memo.addInter(id, Im2Neg, negT._1)
            memo.recordParent(posT._1, id); memo.recordParent(negT._1, id)
            im2Fired += 1
          }
        case FilterOp(_, p) =>
          tvr(t.childTvrs(0)).inter.get(Im2Pos).foreach { cp =>
            if (cp == t.childTvrs(0)) memo.addInter(id, Im2Pos, id)
            else {
              val pt = derivedTvr("im2pos", FilterOp(tvr(cp).logical.get, p), Vector(cp),
                appendOnly = tvr(cp).appendOnly)
              memo.addInter(id, Im2Pos, pt._1); memo.recordParent(pt._1, id)
            }
            im2Fired += 1
          }
        case _ => ()
      }
    }

    // consumption for left-outer joins: Q_t = Q^P_t +# pad(Q^N_t)
    (t.inter.get(Im2Pos), t.inter.get(Im2Neg)) match {
      case (Some(pos), Some(neg)) if pos != id =>
        val rCols = rightColsOf(id)
        for (ti <- 0 until k if !done("im2use", id, ti, ti)) {
          memo.nRuleAttempts += 1
          (memo.linkGroup(pos, Snap(ti)), memo.linkGroup(neg, Snap(ti))) match {
            case (Some(pg), Some(ng)) =>
              val padded = padGroup(rCols, ng)
              registerAs(id, Snap(ti), MUnionAll(2), Vector(pg, padded))
              markDone("im2use", id, ti, ti)
            case _ => ()
          }
        }
      case _ => ()
    }

    // aggregates over a decomposed TVR: state merges across the parts
    logical match {
      case AggOp(_, keys, aggs) if aggs.forall(_.incrementable) =>
        val x = t.childTvrs(0)
        (tvr(x).inter.get(Im2Pos), tvr(x).inter.get(Im2Neg)) match {
          case (Some(pos), Some(neg)) if pos != x =>
            val xl = tvr(x).logical.get
            val padCols: Seq[(String, Expr)] =
              tvr(neg).logical.get.schema.map(c => c -> (Col(c): Expr)) ++
                rightColsOf(x).map { case (c, ty) => c -> (NullLit(ty): Expr) }
            val padT = derivedTvr("im2padneg", ProjectOp(tvr(neg).logical.get, padCols),
              Vector(neg), appendOnly = false)
            val ap = derivedTvr("im2aggpos", AggOp(tvr(pos).logical.get, keys, aggs),
              Vector(pos), appendOnly = false)
            val an = derivedTvr("im2aggneg", AggOp(tvr(padT._1).logical.get, keys, aggs),
              Vector(padT._1), appendOnly = false)
            memo.addInter(id, Im2AggPos, ap._1); memo.addInter(id, Im2AggNeg, an._1)
            memo.recordParent(ap._1, id); memo.recordParent(an._1, id)
            im2Fired += 1
            for (ti <- 0 until k if !done("im2agg", id, ti, ti)) {
              memo.nRuleAttempts += 1
              (memo.linkGroup(ap._1, Snap(ti, StateP)), memo.linkGroup(an._1, Snap(ti, StateP))) match {
                case (Some(pg), Some(ng)) =>
                  registerAs(id, Snap(ti, StateP), MMergeState(keys, aggs), Vector(pg, ng))
                  markDone("im2agg", id, ti, ti)
                case _ => ()
              }
            }
          case _ => ()
        }
      case _ => ()
    }
  }

  /** OJV inter-TVR rules (§4.2 Eq. 4): per-update delta of an outer join
    * computing ΔQ^I against the previous snapshot of Q.
    */
  private def ruleOjv(id: Int): Unit = {
    if (!methods.ojv) return
    val t = tvr(id)
    t.logical match {
      case Some(JoinOp(_, _, LeftOuter, lk, rk)) =>
        for ((t1, t2) <- spans if !done("ojv", id, t1, t2)) {
          memo.nRuleAttempts += 1
          val need = Seq(
            memo.linkGroup(t.childTvrs(0), Snap(t1)),
            memo.linkGroup(t.childTvrs(0), Del(t1, t2)),
            memo.linkGroup(t.childTvrs(1), Snap(t1)),
            memo.linkGroup(t.childTvrs(1), Del(t1, t2)),
            memo.linkGroup(id, Snap(t1)))
          if (need.forall(_.isDefined)) {
            registerAs(id, Del(t1, t2), MOjvDelta(lk, rk, rightColsOf(id)),
              need.map(_.get).toVector)
            ojvFired += 1
            markDone("ojv", id, t1, t2)
          }
        }
      case _ => ()
    }
  }

  /** HOV inter-TVR rules (§4.2 Eq. 5): factorized per-input deltas of an
    * aggregate over an inner-join chain, with materialized complement views.
    */
  /** The HOV-eligible join chain below an aggregate TVR, if any: at least
    * two leaves, star-shaped (every chain step's left keys live in leaf 0).
    */
  private def hovChain(id: Int): Option[(Vector[Int], Vector[(Seq[String], Seq[String])])] =
    tvr(id).logical match {
      case Some(AggOp(_, _, aggs)) if aggs.forall(_.incrementable) =>
        extractChain(tvr(id).childTvrs(0)).filter { case (leaves, joins) =>
          val rootCols = groupColsOfTvr(leaves(0)).map(_._1).toSet
          leaves.size >= 2 && joins.forall(_._1.forall(rootCols.contains))
        }
      case _ => None
    }

  private def ruleHov(id: Int): Unit = {
    if (!methods.hov) return
    val t = tvr(id)
    t.logical match {
      case Some(AggOp(_, keys, aggs)) if aggs.forall(_.incrementable) =>
        val (leaves, joins) = hovChain(id).getOrElse(return)
        val spec = HovSpec(keys, aggs, leaves.map(l => groupColsOfTvr(l)).toVector, joins)
        // the aux TVR holds the view bundle; it has no relational logical
        // expression of its own (rules must not pattern-match it)
        val hovT = derived.getOrElseUpdate((s"hovaux$id", leaves), {
          val aux = memo.newTvr()
          aux.childTvrs = leaves; aux.appendOnly = false
          hovChains(aux.id) = joins
          leaves.foreach(l => memo.recordParent(l, aux.id))
          aux.id
        })
        memo.addInter(id, HovAux, hovT)
        memo.recordParent(hovT, id)
        leaves.foreach(l => memo.recordParent(l, hovT))
        for (ti <- 0 until k if !done("hovInit", id, ti, ti)) {
          memo.nRuleAttempts += 1
          val snaps = leaves.map(l => memo.linkGroup(l, Snap(ti)))
          if (snaps.forall(_.isDefined)) {
            registerAs(hovT, Snap(ti, AuxP), MHovInit(spec), snaps.map(_.get).toVector)
            hovFired += 1
            markDone("hovInit", id, ti, ti)
          }
        }
        for ((t1, t2) <- spans if !done("hovStep", id, t1, t2)) {
          memo.nRuleAttempts += 1
          val prev = memo.linkGroup(hovT, Snap(t1, AuxP))
          val dels = leaves.map(l => memo.linkGroup(l, Del(t1, t2)))
          if (prev.isDefined && dels.forall(_.isDefined)) {
            val children = (prev.get +: dels.map(_.get)).toVector
            registerAs(hovT, Snap(t2, AuxP), MHovStep(spec), children)
            registerAs(hovT, Del(t1, t2, AuxP), MHovStep(spec, forExtract = true), children)
            memo.linkGroup(hovT, Del(t1, t2, AuxP)).foreach { stepped =>
              registerAs(id, Del(t1, t2, StateP), MHovExtract(spec), Vector(stepped))
            }
            hovFired += 1
            markDone("hovStep", id, t1, t2)
          }
        }
      case _ => ()
    }
  }

  private def groupColsOfTvr(id: Int): Seq[(String, ColType)] = {
    val lg = tvr(id).logical.get
    lg.schema.zip(lg.types)
  }

  /** Flatten a left-deep inner-join chain below an aggregate into its leaf
    * TVRs and chain keys; any non-inner-join TVR is treated as a leaf
    * (virtual input — this is what lets HOV compose with IM-2/OJV parts).
    */
  private def extractChain(id: Int): Option[(Vector[Int], Vector[(Seq[String], Seq[String])])] =
    tvr(id).logical match {
      case Some(JoinOp(_, _, Inner, lk, rk)) =>
        extractChain(tvr(id).childTvrs(0)).map { case (ls, js) =>
          (ls :+ tvr(id).childTvrs(1), js :+ (lk, rk))
        }
      case _ => Some((Vector(id), Vector.empty))
    }

  // ------------------------------------------------------------- main loop

  private def attemptAll(id: Int): Unit = {
    ruleSnapshotPropagate(id)
    ruleDelta(id)
    ruleMerge(id)
    ruleFinal(id)
    ruleIm2(id)
    ruleOjv(id)
    ruleHov(id)
  }

  def explore(): Exploration = {
    val start = System.nanoTime()
    val root = seedTvr(problem.query)
    var keepGoing = true
    while (keepGoing) {
      while (memo.events.nonEmpty) {
        val ev = memo.events.dequeue()
        val affected = ev match {
          case LinkAdded(t, _, _)  => memo.ancestorsOf(t)
          case InterAdded(t, _, _) => memo.ancestorsOf(t)
          case NodeAdded(_, _)     => Nil
        }
        affected.foreach(attemptAll)
      }
      // deferred difference rules (PNA gives them the lowest priority)
      keepGoing = memo.tvrs.indices.map(ruleDiff).exists(identity)
      if (keepGoing) {
        // re-attempt everything that may consume the new diffs
        memo.tvrs.indices.foreach(attemptAll)
      }
    }
    Exploration(memo, root, System.nanoTime() - start, im2Fired, ojvFired, hovFired)
  }
}
