package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.cost.TCost
import repro.core.memo.{MMergeMult, MScanDelta, MScanSnap}
import repro.core.opt._

/** `IncrementalPlan.validate` rejects a malformed plan when it is made,
  * naming the offending node, instead of leaving the executor to fail on
  * it part-way through a run. (Every plan of the pinned lite grid passes
  * it: `Tempura.optimize` validates what it returns.)
  */
class PlanValidateSpec extends AnyFunSuite {
  private def scan(g: Int, t: Int) = Compute(g, t, MScanSnap("t", t), Vector.empty)
  private def merge(g: Int, t: Int, a: PlanNode, b: PlanNode) = Compute(g, t, MMergeMult(), Vector(a, b))

  /** Group 1 saved at t0, merged at t1 with group 2's delta into the output. */
  private val states = Vector(StateEntry(1, 0, scan(1, 0)))
  private val output = OutputEntry(1, merge(0, 1, LoadState(1, 1, 0),
    Compute(2, 1, MScanDelta("t", 0, 1), Vector.empty)))
  private def plan(states: Vector[StateEntry], outputs: Vector[OutputEntry]) =
    IncrementalPlan(states, outputs, TCost.zero(2), 0.0)

  private def rejects(p: IncrementalPlan, outputTimes: Seq[Int]): String =
    intercept[IllegalStateException](p.validate(outputTimes)).getMessage

  test("a well-formed plan passes") {
    plan(states, Vector(output)).validate(Seq(1))
  }

  test("an output time with no entry is rejected") {
    assert(rejects(plan(states, Vector(output)), Seq(0, 1)).contains("no output entry at t=0"))
  }

  test("a load of a state that has no entry is rejected, naming the load") {
    val msg = rejects(plan(Vector.empty, Vector(output)), Seq(1))
    assert(msg.contains("LoadState(1,1,0)") && msg.contains("no state entry (1,0)"))
  }

  test("a load of a state saved after the load's time is rejected") {
    val early = OutputEntry(1, merge(0, 1, LoadState(3, 1, 2), scan(2, 1)))
    val msg = rejects(plan(states :+ StateEntry(3, 2, scan(3, 2)), Vector(early)), Seq(1))
    assert(msg.contains("LoadState(3,1,2)") && msg.contains("saved after t=1"))
  }

  test("states at one time that load each other are rejected as a cycle") {
    val cyclic = Vector(
      StateEntry(1, 1, merge(1, 1, LoadState(2, 1, 1), scan(4, 1))),
      StateEntry(2, 1, merge(2, 1, LoadState(1, 1, 1), scan(5, 1))))
    val out = OutputEntry(1, LoadState(1, 1, 1))
    assert(rejects(plan(cyclic, Vector(out)), Seq(1)).contains("closes a cycle of loads at t=1"))
    // a state that loads itself
    val self = Vector(StateEntry(1, 1, merge(1, 1, LoadState(1, 1, 1), scan(4, 1))))
    assert(rejects(plan(self, Vector(out)), Seq(1)).contains("LoadState(1,1,1) closes a cycle"))
  }

  test("a same-time load of a state listed after its reader is not a cycle") {
    val chain = Vector(
      StateEntry(1, 1, merge(1, 1, LoadState(2, 1, 1), scan(4, 1))),
      StateEntry(2, 1, scan(2, 1)))
    plan(chain, Vector(OutputEntry(1, LoadState(1, 1, 1)))).validate(Seq(1))
  }
}
