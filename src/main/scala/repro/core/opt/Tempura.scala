package repro.core.opt

import repro.core.cost._
import repro.core.rules._

/** End-to-end optimization result: the incremental plan, its estimated
  * temporal cost, and the two timing phases the paper reports (§8.4):
  * plan-space exploration (PSE) and state-materialization optimization (SMO).
  * `dpSolves` counts the temporal-DP solves SMO ran from scratch, and
  * `dpRounds` is the most value-iteration rounds one of them took.
  */
final case class OptResult(
    plan: IncrementalPlan,
    estCost: TCost,
    pseNanos: Long,
    smoNanos: Long,
    exploration: Exploration,
    memoGroups: Int,
    memoNodes: Int,
    dpSolves: Int,
    dpRounds: Int) {
  def pseMillis: Double = pseNanos / 1e6
  def smoMillis: Double = smoNanos / 1e6
}

/** The Tempura optimizer facade: explore the TVR plan space (§5), then run
  * the temporal DP (§6.2) under the greedy state selection of [[Mqo]]
  * (§6.3 Algorithm 1, with the Theorem-7 earliest-time reduction).
  */
object Tempura {

  def optimize(problem: IqpProblem,
               methods: Methods = Methods(),
               flags: OptFlags = OptFlags(),
               theorem7: Boolean = true): OptResult = {
    // ---- PSE: plan-space exploration
    val exploration = new RuleEngine(problem, methods, flags).explore()
    val memo = exploration.memo

    // ---- SMO: temporal DP + greedy state selection
    val smoStart = System.nanoTime()
    val dp = new Dp(memo, problem)
    val plan = Mqo.select(dp, exploration.rootTvr, theorem7)
    val smoNanos = System.nanoTime() - smoStart
    plan.validate(problem.outputTimes)

    OptResult(plan, plan.estCost, exploration.exploreNanos, smoNanos, exploration,
      memo.groups.size, memo.totalNodes, dp.solves, dp.maxRounds)
  }

  /** The traditional (single-time, batch) optimizer baseline for Fig. 8(a):
    * same machinery restricted to one time point and no TVR rules.
    */
  def optimizeTraditional(query: repro.core.algebra.RelOp,
                          tableStats: Map[String, repro.core.stats.TvrStats]): OptResult = {
    val oneTime = tableStats.map { case (t, st) =>
      t -> st.copy(deltaRows = Vector(st.totalRows))
    }
    val problem = IqpProblem(1, query, Seq(0), oneTime, WeightedCost(Vector(1.0)))
    optimize(problem, Methods(im2 = false, ojv = false, hov = false))
  }
}
