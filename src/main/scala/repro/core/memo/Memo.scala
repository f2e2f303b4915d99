package repro.core.memo

import scala.collection.mutable
import repro.core.algebra._
import repro.core.stats.RelStats

/** Perspective of a TVR link: multiplicity (plain delta-encoded rows) or
  * attribute (aggregate states), plus an auxiliary perspective for composite
  * operator state (e.g. HOV view bundles). §3.2 of the paper.
  */
sealed trait Persp
case object MultP  extends Persp
case object StateP extends Persp
case object AuxP   extends Persp

/** Intra-TVR relationship: which snapshot/delta of its TVR a group is. */
sealed trait TvrLink { def persp: Persp; def availableAt: Int }
final case class Snap(t: Int, persp: Persp = MultP) extends TvrLink {
  def availableAt: Int = t
}
final case class Del(t1: Int, t2: Int, persp: Persp = MultP) extends TvrLink {
  require(t1 < t2); def availableAt: Int = t2
}

/** Inter-TVR relationship labels (user-defined traits in the paper). */
sealed trait InterTrait
case object Im2Pos extends InterTrait            // IM-2 positive part Q^P
case object Im2Neg extends InterTrait            // IM-2 held-back part Q^N
case object Im2AggPos extends InterTrait         // γ(Q^P) of an aggregate TVR
case object Im2AggNeg extends InterTrait         // γ(pad(Q^N))
case object HovAux extends InterTrait            // HOV view-bundle TVR

/** Memo operators. These are the nodes stored inside groups; children are
  * group ids held by [[MNode]]. Times are explicit in scan/merge operators,
  * everything else is time-free (its execution time is a DP decision, §6.1).
  */
sealed trait MOp
final case class MScanSnap(table: String, t: Int)                   extends MOp
final case class MScanDelta(table: String, t1: Int, t2: Int)        extends MOp
final case class MFilter(pred: Expr)                                extends MOp
final case class MProject(exprs: Seq[(String, Expr)])               extends MOp
final case class MUnionAll(n: Int)                                  extends MOp
/** Snapshot-level join; children [L, R]. */
final case class MJoin(kind: JoinKind, lk: Seq[String], rk: Seq[String],
                       rCols: Seq[(String, ColType)])               extends MOp
/** TVR-generating join delta. Children: inner → [lOld, dL, rNew, dR];
  * lo/ls/la → [lOld, dL, rOld, dR, rNew]. */
final case class MDeltaJoin(kind: JoinKind, lk: Seq[String], rk: Seq[String],
                            rCols: Seq[(String, ColType)])          extends MOp
/** `+#` merge; children [snap(t), delta(t,t')] → snap(t'). */
final case class MMergeMult()                                       extends MOp
/** Merge two consecutive deltas (guided-exploration-gated). */
final case class MMergeDelta()                                      extends MOp
/** Snapshot difference; children [snap(t'), snap(t)] → delta(t,t'). */
final case class MDiffMult()                                        extends MOp
/** Initialize+Iterate; child [mult rel] → aggregate state. */
final case class MPartialAgg(keys: Seq[String], aggs: Seq[AggCall]) extends MOp
/** `+γ` merge; children [stateA, stateB]. */
final case class MMergeState(keys: Seq[String], aggs: Seq[AggCall]) extends MOp
/** Final; child [state] → mult-perspective snapshot. */
final case class MFinalAgg(keys: Seq[String], aggs: Seq[AggCall])   extends MOp
/** Aggregate of a snapshot in one step, for an aggregate with a MIN or MAX
  * call (no incremental state); child [mult snap] → mult snap. */
final case class MSnapAgg(keys: Seq[String], aggs: Seq[AggCall])    extends MOp
/** Null-padding projector (IM-2's Q^N completion). */
final case class MPadProject(cols: Seq[(String, ColType)])          extends MOp
/** OJV per-table-update delta of a left-outer join.
  * Children: [lOld, dL, rOld, dR, rNew, qOld]. */
final case class MOjvDelta(lk: Seq[String], rk: Seq[String],
                           rCols: Seq[(String, ColType)])           extends MOp
/** HOV: build the view bundle at time t. Children: leaf snaps at t. */
final case class MHovInit(spec: HovSpec)                            extends MOp
/** HOV: per-table sequential update of the view bundle; also computes the
  * aggregate-state contribution. Children: [prevAux] ++ leaf deltas.
  * `forExtract` distinguishes the copy registered as the (t1,t2] stepped
  * bundle (read by [[MHovExtract]]) from the copy serving as the bundle
  * snapshot at t2 — the extract must never read a fresh init bundle. */
final case class MHovStep(spec: HovSpec, forExtract: Boolean = false) extends MOp
/** HOV: read the aggregate-state delta out of a stepped view bundle. */
final case class MHovExtract(spec: HovSpec)                         extends MOp

/** Join-tree specification backing a HOV application: an (extracted)
  * left-deep inner-join chain over `leaves`, where every chain step's left
  * keys resolve against leaf 0 or the current leaf (star-schema shape), so
  * the complement view of any non-root leaf is itself a valid chain.
  */
final case class HovSpec(
    keys: Seq[String], aggs: Seq[AggCall],
    leafSchemas: Vector[Seq[(String, ColType)]],
    // chain(i): keys joining the accumulated prefix with leaf i (i >= 1)
    chain: Vector[(Seq[String], Seq[String])]) {
  def nLeaves: Int = leafSchemas.size
}

final case class MNode(op: MOp, children: Vector[Int])

/** Logical equivalence class (Calcite RelSet). `stats` are its logical
  * properties, derived once when the group is created. */
final class Group(val id: Int, val stats: RelStats) {
  val nodes = mutable.LinkedHashSet[MNode]()
  override def toString: String = s"G$id(${nodes.size} nodes)"
}

/** A TVR (Calcite-extension TvrMetaSet). `logical` is the defining relational
  * expression over child TVRs, which is what TVR rewrite rules pattern-match.
  */
final class Tvr(val id: Int) {
  val links = mutable.LinkedHashMap[TvrLink, Int]()       // link -> group id
  val inter = mutable.LinkedHashMap[InterTrait, Int]()    // trait -> tvr id
  var baseTable: Option[String] = None
  var logical: Option[RelOp] = None
  var childTvrs: Vector[Int] = Vector.empty
  var appendOnly: Boolean = true
  override def toString: String = s"TVR$id(${links.size} links)"
}

sealed trait MemoEvent
final case class NodeAdded(groupId: Int, node: MNode)               extends MemoEvent
final case class LinkAdded(tvrId: Int, link: TvrLink, groupId: Int) extends MemoEvent
final case class InterAdded(tvrId: Int, trait_ : InterTrait, other: Int) extends MemoEvent

/** The Tempura memo: groups + TVR nodes + intra/inter-TVR relationships,
  * with structural deduplication and an event queue feeding the rule engine.
  */
final class Memo {
  val groups = mutable.ArrayBuffer[Group]()
  val tvrs   = mutable.ArrayBuffer[Tvr]()
  /** Structural dedup: node -> owning group. */
  val nodeIndex = mutable.HashMap[MNode, Int]()
  /** Parent index for rule triggering: tvr -> tvrs whose logical refers to it. */
  val parents = mutable.HashMap[Int, mutable.LinkedHashSet[Int]]()
  val events = mutable.Queue[MemoEvent]()
  /** Counters for benchmarking. */
  var nRuleAttempts: Long = 0L
  var nRuleFires: Long = 0L

  def newGroup(stats: RelStats): Int = {
    val g = new Group(groups.size, stats)
    groups += g; g.id
  }

  def newTvr(): Tvr = { val t = new Tvr(tvrs.size); tvrs += t; t }

  /** Register a node; returns its group (existing on structural hit). When
    * `into` is given and the node is new, it is added to that group.
    */
  def register(node: MNode, into: Option[Int], stats: => RelStats): Int = {
    nodeIndex.get(node) match {
      case Some(g) =>
        into.filter(_ != g).foreach { tgt =>
          // same structure claimed by two groups: record in target too (rare)
          if (groups(tgt).nodes.add(node)) events.enqueue(NodeAdded(tgt, node))
        }
        g
      case None =>
        val gid = into.getOrElse(newGroup(stats))
        nodeIndex(node) = gid
        if (groups(gid).nodes.add(node)) events.enqueue(NodeAdded(gid, node))
        gid
    }
  }

  def addLink(tvrId: Int, link: TvrLink, groupId: Int): Boolean = {
    val t = tvrs(tvrId)
    if (t.links.contains(link)) false
    else { t.links(link) = groupId; events.enqueue(LinkAdded(tvrId, link, groupId)); true }
  }

  def addInter(tvrId: Int, tr: InterTrait, other: Int): Boolean = {
    val t = tvrs(tvrId)
    if (t.inter.contains(tr)) false
    else { t.inter(tr) = other; events.enqueue(InterAdded(tvrId, tr, other)); true }
  }

  def linkGroup(tvrId: Int, link: TvrLink): Option[Int] = tvrs(tvrId).links.get(link)

  def recordParent(child: Int, parent: Int): Unit =
    parents.getOrElseUpdate(child, mutable.LinkedHashSet[Int]()).add(parent)

  /** The tvr plus all its ancestors (for event-driven rule triggering). */
  def ancestorsOf(tvrId: Int): Seq[Int] = {
    val seen = mutable.LinkedHashSet[Int]()
    def go(id: Int): Unit =
      if (seen.add(id)) parents.getOrElse(id, Nil).foreach(go)
    go(tvrId)
    seen.toSeq
  }

  def totalNodes: Int = groups.map(_.nodes.size).sum
}
