package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.algebra._
import repro.core.memo._
import repro.core.stats.RelStats

/** Pure unit tests of the memo data structure: structural dedup, TVR links,
  * inter-TVR relationships, events and the ancestor index.
  */
class MemoSpec extends AnyFunSuite {
  private def stats = RelStats(10, Map.empty)

  test("structural dedup: identical nodes land in one group") {
    val m = new Memo
    val g1 = m.register(MNode(MScanSnap("t", 0), Vector.empty), None, stats)
    val g2 = m.register(MNode(MScanSnap("t", 0), Vector.empty), None, stats)
    assert(g1 == g2 && m.groups.size == 1)
    val g3 = m.register(MNode(MScanSnap("t", 1), Vector.empty), None, stats)
    assert(g3 != g1 && m.groups.size == 2)
  }

  test("nodes with different children groups are distinct") {
    val m = new Memo
    val a = m.register(MNode(MScanSnap("t", 0), Vector.empty), None, stats)
    val b = m.register(MNode(MScanSnap("t", 1), Vector.empty), None, stats)
    val f1 = m.register(MNode(MFilter(Cmp("=", Col("a"), Lit(1L))), Vector(a)), None, stats)
    val f2 = m.register(MNode(MFilter(Cmp("=", Col("a"), Lit(1L))), Vector(b)), None, stats)
    assert(f1 != f2)
  }

  test("link registration is idempotent and enqueues events once") {
    val m = new Memo
    val t = m.newTvr()
    val g = m.register(MNode(MScanSnap("t", 0), Vector.empty), None, stats)
    m.events.clear()
    assert(m.addLink(t.id, Snap(0), g))
    assert(!m.addLink(t.id, Snap(0), g))
    assert(m.events.size == 1)
  }

  test("inter-TVR links are recorded once") {
    val m = new Memo
    val a = m.newTvr(); val b = m.newTvr()
    assert(m.addInter(a.id, Im2Pos, b.id))
    assert(!m.addInter(a.id, Im2Pos, b.id))
    assert(a.inter(Im2Pos) == b.id)
  }

  test("ancestor index is transitive and cycle-safe") {
    val m = new Memo
    val a = m.newTvr(); val b = m.newTvr(); val c = m.newTvr()
    m.recordParent(a.id, b.id); m.recordParent(b.id, c.id)
    m.recordParent(c.id, a.id) // cycle must not loop forever
    assert(m.ancestorsOf(a.id).toSet == Set(a.id, b.id, c.id))
  }

  test("TvrLink availability follows the time annotations") {
    assert(Snap(2).availableAt == 2)
    assert(Del(1, 3).availableAt == 3)
    intercept[IllegalArgumentException] { Del(3, 1) }
  }

  test("links are keyed by perspective") {
    val m = new Memo
    val t = m.newTvr()
    val g1 = m.register(MNode(MScanSnap("x", 0), Vector.empty), None, stats)
    assert(m.addLink(t.id, Snap(0, MultP), g1))
    assert(m.addLink(t.id, Snap(0, StateP), g1), "different perspective = different link")
    assert(t.links.size == 2)
  }

  test("register into an existing group dedups against the index") {
    val m = new Memo
    val t = m.newTvr()
    val g = m.register(MNode(MScanSnap("x", 0), Vector.empty), None, stats)
    val same = m.register(MNode(MScanSnap("x", 0), Vector.empty), Some(g), stats)
    assert(same == g && m.groups(g).nodes.size == 1)
  }
}
