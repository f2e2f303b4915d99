package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib.Scenarios
import repro.benchlib.Scenarios.{planningProblem, timeOptimize}
import repro.core.opt.Tempura
import repro.core.rules.{Methods, OptFlags}
import repro.queries.{LiteQueries, QueryStats}

/** Fig. 8: planning-time performance of IQP (pure optimizer, no Spark data).
  *
  * (a) end-to-end planning vs a traditional single-time optimizer over all
  * queries; (b) PSE/SMO breakdown vs query complexity; (c)(d) scaling with
  * the number of incremental runs |T|; (e)(f) scaling with the number of
  * integrated incremental methods; (g) the §5.4 speed-up breakdown.
  */
class Fig8Planning extends AnyFunSuite {
  private val table2 = QueryStats.paperTable2.map(_._1)

  test("Fig 8(a): overall planning time, IQP vs traditional") {
    val rows = LiteQueries.all.map { lq =>
      val p = planningProblem(lq.root, 3)
      val iqp = timeOptimize(p, Methods())
      val t0 = System.nanoTime()
      Tempura.optimizeTraditional(lq.root, p.tableStats)
      val tradMs = (System.nanoTime() - t0) / 1e6
      val iqpMs = iqp.pseMillis + iqp.smoMillis
      Seq(lq.name, f"$tradMs%.1f ms", f"$iqpMs%.1f ms", f"${iqpMs / math.max(tradMs, 0.01)}%.1f x",
        iqp.memoGroups.toString, iqp.memoNodes.toString)
    }
    Scenarios.printTable("Fig 8(a) — planning time, traditional vs IQP (|T|=3)",
      Seq("query", "traditional", "IQP", "ratio", "groups", "nodes"), rows)
    // paper: all queries plan within ~14s; ours should be far under that
    rows.foreach(r => assert(r(2).dropRight(3).toDouble < 14000, s"slow planning: $r"))
  }

  test("Fig 8(b): PSE/SMO breakdown vs query complexity") {
    val rows = table2.map { q =>
      val r = timeOptimize(planningProblem(LiteQueries.byName(q), 3), Methods())
      Seq(q, f"${r.pseMillis}%.1f ms", f"${r.smoMillis}%.1f ms",
        r.memoGroups.toString, r.memoNodes.toString, r.dpSolves.toString, r.dpRounds.toString)
    }
    Scenarios.printTable("Fig 8(b) — PSE and SMO time by query (|T|=3)",
      Seq("query", "PSE", "SMO", "groups", "nodes", "DP solves", "DP rounds"), rows)
  }

  test("Fig 8(c)(d): scaling with the number of incremental runs |T|") {
    val qs = Seq("q22", "q67", "q91", "q33", "q5")
    val sizes = Seq(3, 5, 7, 9)
    val results = qs.map { q =>
      q -> sizes.map { k =>
        val r = timeOptimize(planningProblem(LiteQueries.byName(q), k), Methods())
        (r.pseMillis, r.smoMillis)
      }
    }
    Scenarios.printTable("Fig 8(c) — PSE time vs |T|",
      "query" +: sizes.map(s => s"|T|=$s"),
      results.map { case (q, rs) => q +: rs.map(r => f"${r._1}%.1f ms") })
    Scenarios.printTable("Fig 8(d) — SMO time vs |T|",
      "query" +: sizes.map(s => s"|T|=$s"),
      results.map { case (q, rs) => q +: rs.map(r => f"${r._2}%.1f ms") })
    for ((q, rs) <- results) {
      // paper: every query plans in under 14 s
      for ((r, k) <- rs.zip(sizes))
        assert(r._1 + r._2 < 14000, f"$q at |T|=$k: planning took ${r._1 + r._2}%.0f ms")
      // paper: PSE roughly flat in |T| (TS), SMO grows superlinearly
      assert(rs.last._1 < rs.head._1 * 30, s"$q: PSE must not explode with |T|")
      assert(rs.last._2 > rs.head._2, s"$q: SMO should grow with |T|")
    }
  }

  test("Fig 8(e)(f): scaling with the number of incremental methods") {
    val qs = Seq("q67", "q91", "q33")
    val configs = Seq(
      "IM-1"      -> Methods.im1,
      "+IM-2"     -> Methods.im1.copy(im2 = true),
      "+HOV"      -> Methods.im1.copy(im2 = true, hov = true),
      "+OJV(all)" -> Methods.full)
    val results = qs.map { q =>
      q -> configs.map { case (_, m) =>
        val r = timeOptimize(planningProblem(LiteQueries.byName(q), 3), m)
        (r.pseMillis, r.smoMillis, r.memoNodes)
      }
    }
    Scenarios.printTable("Fig 8(e) — PSE time vs #methods",
      "query" +: configs.map(_._1),
      results.map { case (q, rs) => q +: rs.map(r => f"${r._1}%.1f ms") })
    Scenarios.printTable("Fig 8(f) — SMO time vs #methods",
      "query" +: configs.map(_._1),
      results.map { case (q, rs) => q +: rs.map(r => f"${r._2}%.1f ms") })
    for ((q, rs) <- results)
      assert(rs.last._3 >= rs.head._3, s"$q: more methods must not shrink the plan space")
  }

  test("Fig 8(g): effectiveness of the speed-up optimizations") {
    val qs = Seq("q67", "q91", "q33")
    val flagSets = Seq(
      "Baseline"      -> OptFlags(ts = false, pna = false, ge = false),
      "Baseline+TS"   -> OptFlags(ts = true, pna = false, ge = false),
      "Baseline+PNA"  -> OptFlags(ts = false, pna = true, ge = false),
      "Baseline+GE"   -> OptFlags(ts = false, pna = false, ge = true),
      "Tempura(all)"  -> OptFlags())
    val results = qs.map { q =>
      q -> flagSets.map { case (_, f) =>
        val r = timeOptimize(planningProblem(LiteQueries.byName(q), 3), Methods(), f)
        (r.pseMillis, r.exploration.memo.nRuleAttempts)
      }
    }
    Scenarios.printTable("Fig 8(g) — PSE time under speed-up combinations",
      "query" +: flagSets.map(_._1),
      results.map { case (q, rs) => q +: rs.map(r => f"${r._1}%.1f ms") })
    Scenarios.printTable("Fig 8(g') — rule-match attempts under speed-up combinations",
      "query" +: flagSets.map(_._1),
      results.map { case (q, rs) => q +: rs.map(r => r._2.toString) })
    for ((q, rs) <- results) {
      val baseline = rs.head._2; val full = rs.last._2
      assert(full <= baseline, s"$q: all speed-ups must not increase rule matching work")
    }
  }

  test("exploration is deterministic: same problem, same plan cost") {
    val p = planningProblem(LiteQueries.byName("q67"), 3)
    val a = Tempura.optimize(p); val b = Tempura.optimize(p)
    assert(a.estCost == b.estCost && a.memoNodes == b.memoNodes)
  }
}
