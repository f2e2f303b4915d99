package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib.Scenarios
import repro.core.cost.{VectorCost, WeightedCost}
import repro.core.opt.{OptResult, Tempura}
import repro.core.rules.IqpProblem
import repro.queries.LiteQueries

/** The lite-query planning grid whose plans and estimated costs are pinned:
  * every lite query × every method configuration × cost function × |T|,
  * planned from synthetic SF-1 statistics (no Spark needed).
  */
object PlanPins {
  /** (cost function, |T|): `w` is c̃_w with one output at the last time,
    * `v` is c̃_v with an output at every time (IVM). */
  val settings: Seq[(String, Int)] = Seq("w" -> 2, "w" -> 3, "v" -> 2, "v" -> 3, "w" -> 5)

  def problem(lq: LiteQueries.LiteQuery, cost: String, k: Int): IqpProblem = cost match {
    case "w" => Scenarios.planningProblem(lq.root, k)
    case "v" => IqpProblem(k, lq.root, 0 until k,
      Scenarios.syntheticStats(lq.root, 1.0, k), VectorCost(k))
  }

  def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(UTF_8)).map("%02x".format(_)).mkString

  /** One pin line: case key, exact estimated cost vector, plan digest. */
  def pin(key: String, res: OptResult): String =
    s"$key ${res.estCost.at.map(_.toString).mkString(",")} " +
      sha256(s"${res.plan.states}\n${res.plan.outputs}")

  /** Every grid case as (key, thunk that plans it and renders its pin). */
  def cases: Seq[(String, () => String)] =
    for {
      (cost, k) <- settings
      lq <- LiteQueries.all
      (mName, methods) <- Scenarios.methodConfigs
    } yield {
      val key = s"${lq.name}/$mName/$cost/T=$k"
      key -> (() => pin(key, Tempura.optimize(problem(lq, cost, k), methods)))
    }
}

/** Pins the optimizer's output on the lite-query grid: a refactoring of
  * exploration or state-materialization optimization must reproduce every
  * plan and every estimated cost bit for bit.
  */
class PlanPinSpec extends AnyFunSuite {
  private val golden: Map[String, String] = {
    val src = scala.io.Source.fromResource("plan-pins.txt")(scala.io.Codec.UTF8)
    try src.getLines().filter(_.nonEmpty).map(l => l.takeWhile(_ != ' ') -> l).toMap
    finally src.close()
  }

  test("the golden file covers the whole grid") {
    val keys = PlanPins.cases.map(_._1)
    assert(keys.size == 375 && keys.distinct.size == 375)
    assert(golden.keySet == keys.toSet)
  }

  for ((cost, k) <- PlanPins.settings) {
    test(s"plans and estimated costs match the golden file (c̃_$cost, |T|=$k)") {
      val mismatches = PlanPins.cases.filter(_._1.endsWith(s"/$cost/T=$k")).flatMap {
        case (key, run) =>
          val got = run()
          if (golden.get(key).contains(got)) None
          else Some(s"expected ${golden.getOrElse(key, "<missing>")}\n     got $got")
      }
      assert(mismatches.isEmpty, mismatches.take(5).mkString("\n", "\n", ""))
    }
  }
}
