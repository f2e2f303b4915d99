package repro.core

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.scalacheck.{Gen, rng}
import repro.SparkSpec
import repro.core.algebra._
import repro.core.tvr.{Delta, DeltaOps, Plans}

/** Property-style tests of the TIP-model algebra laws, with relations drawn
  * from ScalaCheck generators at fixed seeds (deterministic).
  */
class DeltaLawsSpec extends SparkSpec {
  private val Samples = 6

  private val rowGen: Gen[(Long, String, Double)] = for {
    k <- Gen.choose(1L, 6L)
    g <- Gen.oneOf("x", "y", "z")
    v <- Gen.choose(1, 50).map(_.toDouble)
  } yield (k, g, v)

  private val relGen: Gen[List[((Long, String, Double), Long)]] = for {
    rows <- Gen.listOfN(12, rowGen)
    mults <- Gen.listOfN(12, Gen.oneOf(1L, 1L, 1L, -1L))
  } yield rows.zip(mults)

  private def sample(seed: Long): List[((Long, String, Double), Long)] =
    relGen.pureApply(Gen.Parameters.default, rng.Seed(seed))

  private def df(rows: List[((Long, String, Double), Long)], prefix: String): LogicalPlan = {
    import spark.implicits._
    Plans.of(rows.map { case ((k, g, v), m) => (k, g, v, m) }
      .toDF(s"${prefix}_k", s"${prefix}_g", s"${prefix}_v", Delta.MULT))
  }

  /** Positive-only relation (a valid snapshot). */
  private def posDf(rows: List[((Long, String, Double), Long)], prefix: String): LogicalPlan =
    df(rows.map { case (r, _) => (r, 1L) }, prefix)

  private def bag(d: LogicalPlan): Seq[Seq[String]] =
    Plans.frame(spark, Delta.collapse(d)).collect().toSeq
      .map(r => Plans.columns(d).map(c => Option(r.get(r.fieldIndex(c))).map {
        case dd: Double => f"$dd%.4f"; case x => x.toString
      }.getOrElse("null")))
      .map(r => r: Seq[String]).sortBy(_.mkString("|"))

  private def assertBagEq(a: LogicalPlan, b: LogicalPlan, clue: String): Unit =
    assert(bag(a) == bag(b), clue)

  test("law: R +# (-R) = ∅") {
    for (s <- 1 to Samples) {
      val a = df(sample(s), "a")
      assert(Plans.frame(spark, Delta.merge(a, Delta.negate(a))).count() == 0, s"seed $s")
    }
  }

  test("law: merge is associative") {
    for (s <- 1 to Samples) {
      val (a, b, c) = (df(sample(s), "a"), df(sample(s + 100), "a"), df(sample(s + 200), "a"))
      assertBagEq(Delta.merge(Delta.merge(a, b), c), Delta.merge(a, Delta.merge(b, c)), s"seed $s")
    }
  }

  test("law: inner-join delta rule reconstructs the new snapshot") {
    for (s <- 1 to Samples) {
      val l = posDf(sample(s), "l"); val dl = df(sample(s + 10), "l")
      val r = posDf(sample(s + 20), "r"); val dr = df(sample(s + 30), "r")
      val (lN, rN) = (Delta.merge(l, dl), Delta.merge(r, dr))
      val direct = DeltaOps.joinInner(lN, rN, Seq("l_k"), Seq("r_k"))
      val incr = Delta.merge(DeltaOps.joinInner(l, r, Seq("l_k"), Seq("r_k")),
        DeltaOps.deltaInnerJoin(l, dl, rN, dr, Seq("l_k"), Seq("r_k")))
      assertBagEq(direct, incr, s"seed $s")
    }
  }

  test("law: left-outer-join delta rule reconstructs the new snapshot") {
    val rCols = Seq("r_k" -> TLong, "r_g" -> TString, "r_v" -> TDouble)
    for (s <- 1 to Samples) {
      val l = posDf(sample(s), "l"); val dl = df(sample(s + 10), "l")
      val r = posDf(sample(s + 20), "r"); val dr = df(sample(s + 30), "r")
      val (lN, rN) = (Delta.merge(l, dl), Delta.merge(r, dr))
      val direct = DeltaOps.joinLeftOuterSnap(lN, rN, Seq("l_k"), Seq("r_k"), rCols)
      val incr = Delta.merge(DeltaOps.joinLeftOuterSnap(l, r, Seq("l_k"), Seq("r_k"), rCols),
        DeltaOps.deltaLeftOuter(l, dl, r, dr, rN, Seq("l_k"), Seq("r_k"), rCols))
      assertBagEq(direct, incr, s"seed $s")
    }
  }

  test("law: semi and anti join partition the left input") {
    for (s <- 1 to Samples) {
      val l = posDf(sample(s), "l"); val r = df(sample(s + 5), "r")
      val semi = DeltaOps.semiSnap(l, r, Seq("l_k"), Seq("r_k"))
      val anti = DeltaOps.antiSnap(l, r, Seq("l_k"), Seq("r_k"))
      assertBagEq(Delta.merge(semi, anti), Delta.collapse(l), s"seed $s")
    }
  }

  test("law: aggregate state merge commutes with input merge") {
    val aggs = Seq(AggCall(SumF, Some(Col("a_v")), "s"), AggCall(CountStarF, None, "n"))
    for (s <- 1 to Samples) {
      val a = posDf(sample(s), "a"); val b = df(sample(s + 50), "a")
      val viaStates = DeltaOps.finalAgg(
        DeltaOps.mergeStates(Seq(
          DeltaOps.partialAgg(a, Seq("a_g"), aggs),
          DeltaOps.partialAgg(b, Seq("a_g"), aggs)), Seq("a_g"), aggs),
        Seq("a_g"), aggs)
      val direct = DeltaOps.finalAgg(
        DeltaOps.partialAgg(Delta.merge(a, b), Seq("a_g"), aggs), Seq("a_g"), aggs)
      assertBagEq(viaStates, direct, s"seed $s")
    }
  }

  test("law: expand is inverse to collapse for positive relations") {
    for (s <- 1 to Samples) {
      val a = posDf(sample(s), "a")
      val roundTrip = Delta.attach(Delta.expand(Delta.collapse(a)))
      assertBagEq(roundTrip, a, s"seed $s")
    }
  }
}
