package repro.queries

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.algebra._

/** TPC-DS-lite: a synthetic stand-in for the 1TB TPC-DS benchmark the paper
  * evaluates on (dataset substitution documented in DESIGN.md §2).
  *
  * The schema keeps TPC-DS's topology — three sales channels with returns
  * tables (outer-joinable), shared dimensions — at SF 0.01 (unit tests) to
  * 0.1 (benches). Generators are deterministic in (sf, seed). Facts stream
  * in over time via [[TpcdsLite.split]]; dimensions arrive fully at t0.
  */
object TpcdsLite {

  // ---------------------------------------------------------------- schemas

  val storeSales: Scan = Scan("store_sales", Seq(
    "ss_ticket" -> TLong, "ss_item" -> TLong, "ss_customer" -> TLong,
    "ss_cdemo" -> TLong, "ss_store" -> TLong, "ss_date" -> TLong,
    "ss_qty" -> TDouble, "ss_price" -> TDouble))
  val storeReturns: Scan = Scan("store_returns", Seq(
    "sr_ticket" -> TLong, "sr_item" -> TLong, "sr_date" -> TLong, "sr_amt" -> TDouble))
  val catalogSales: Scan = Scan("catalog_sales", Seq(
    "cs_order" -> TLong, "cs_item" -> TLong, "cs_customer" -> TLong,
    "cs_warehouse" -> TLong, "cs_sm" -> TLong, "cs_cc" -> TLong, "cs_date" -> TLong,
    "cs_qty" -> TDouble, "cs_price" -> TDouble))
  val catalogReturns: Scan = Scan("catalog_returns", Seq(
    "cr_order" -> TLong, "cr_item" -> TLong, "cr_date" -> TLong, "cr_amt" -> TDouble))
  val webSales: Scan = Scan("web_sales", Seq(
    "ws_order" -> TLong, "ws_item" -> TLong, "ws_customer" -> TLong,
    "ws_site" -> TLong, "ws_date" -> TLong, "ws_price" -> TDouble))
  val webReturns: Scan = Scan("web_returns", Seq(
    "wr_order" -> TLong, "wr_item" -> TLong, "wr_date" -> TLong, "wr_amt" -> TDouble))
  val customer: Scan = Scan("customer", Seq(
    "c_id" -> TLong, "c_cdemo" -> TLong, "c_addr" -> TLong, "c_month" -> TLong))
  val customerAddress: Scan = Scan("customer_address", Seq(
    "ca_id" -> TLong, "ca_state" -> TString))
  val customerDemographics: Scan = Scan("customer_demographics", Seq(
    "cd_id" -> TLong, "cd_gender" -> TString, "cd_edu" -> TString))
  val dateDim: Scan = Scan("date_dim", Seq(
    "d_id" -> TLong, "d_year" -> TLong, "d_moy" -> TLong))
  val item: Scan = Scan("item", Seq(
    "i_id" -> TLong, "i_category" -> TString, "i_brand" -> TString, "i_price" -> TDouble))
  val warehouse: Scan = Scan("warehouse", Seq("w_id" -> TLong, "w_state" -> TString))
  val store: Scan = Scan("store", Seq("s_id" -> TLong, "s_state" -> TString))
  val shipMode: Scan = Scan("ship_mode", Seq("sm_id" -> TLong, "sm_type" -> TString))
  val callCenter: Scan = Scan("call_center", Seq("cc_id" -> TLong, "cc_name" -> TString))
  val inventory: Scan = Scan("inventory", Seq(
    "inv_item" -> TLong, "inv_warehouse" -> TLong, "inv_date" -> TLong, "inv_qty" -> TDouble))

  // ------------------------------------------------------------- generators

  private def n(base: Long, sf: Double): Long = math.max(4L, (base * sf).toLong)

  /** Sizes per SF (rows at SF=1, roughly TPC-DS proportions, downscaled). */
  private val Sizes = Map(
    "store_sales" -> 2_880_000L, "store_returns" -> 288_000L,
    "catalog_sales" -> 1_440_000L, "catalog_returns" -> 144_000L,
    "web_sales" -> 720_000L, "web_returns" -> 72_000L,
    "customer" -> 100_000L, "customer_address" -> 50_000L,
    "customer_demographics" -> 19_000L, "date_dim" -> 7_300L,
    "item" -> 18_000L, "inventory" -> 1_170_000L)

  /** Approximate row count of a table at a scale factor (planning-only). */
  def approxRows(table: String, sf: Double): Double =
    Sizes.get(table).map(s => n(s, sf).toDouble).getOrElse(table match {
      case "warehouse" => 6.0; case "store" => 12.0; case "ship_mode" => 5.0
      case "call_center" => 6.0; case _ => 100.0
    })

  private val Cats   = Seq("Books", "Home", "Electronics", "Music", "Sports", "Shoes")
  private val States = Seq("CA", "TX", "NY", "WA", "OH", "GA", "IL", "MI")

  private def pick(vals: Seq[String], seed: Long) =
    element_at(array(vals.map(lit): _*), (rand(seed) * vals.size + 1).cast("int"))

  def genTable(spark: SparkSession, name: String, sf: Double, seed: Long = 7): DataFrame = {
    val nItem = n(Sizes("item"), sf); val nCust = n(Sizes("customer"), sf)
    val nDate = n(Sizes("date_dim"), sf); val nCd = n(Sizes("customer_demographics"), sf)
    val nCa = n(Sizes("customer_address"), sf)
    val nWh = 6L; val nStore = 12L; val nSm = 5L; val nCc = 6L; val nSite = 8L
    def fk(s: Long, dom: Long) = (rand(seed + s) * dom + 1).cast(LongType)
    name match {
      case "store_sales" => spark.range(1, n(Sizes(name), sf) + 1).select(
        col("id") as "ss_ticket", fk(1, nItem) as "ss_item", fk(2, nCust) as "ss_customer",
        fk(3, nCd) as "ss_cdemo", fk(4, nStore) as "ss_store", fk(5, nDate) as "ss_date",
        (rand(seed + 6) * 20 + 1).cast(DoubleType) as "ss_qty",
        round(rand(seed + 7) * 200 + 1, 2) as "ss_price")
      case "store_returns" =>
        // returns reference a subset of tickets (and that ticket's item domain)
        spark.range(1, n(Sizes(name), sf) + 1).select(
          fk(11, n(Sizes("store_sales"), sf)) as "sr_ticket", fk(12, nItem) as "sr_item",
          fk(13, nDate) as "sr_date", round(rand(seed + 14) * 80 + 1, 2) as "sr_amt")
      case "catalog_sales" => spark.range(1, n(Sizes(name), sf) + 1).select(
        col("id") as "cs_order", fk(21, nItem) as "cs_item", fk(22, nCust) as "cs_customer",
        fk(23, nWh) as "cs_warehouse", fk(24, nSm) as "cs_sm", fk(25, nCc) as "cs_cc",
        fk(26, nDate) as "cs_date", (rand(seed + 27) * 20 + 1).cast(DoubleType) as "cs_qty",
        round(rand(seed + 28) * 300 + 1, 2) as "cs_price")
      case "catalog_returns" => spark.range(1, n(Sizes(name), sf) + 1).select(
        fk(31, n(Sizes("catalog_sales"), sf)) as "cr_order", fk(32, nItem) as "cr_item",
        fk(33, nDate) as "cr_date", round(rand(seed + 34) * 100 + 1, 2) as "cr_amt")
      case "web_sales" => spark.range(1, n(Sizes(name), sf) + 1).select(
        col("id") as "ws_order", fk(41, nItem) as "ws_item", fk(42, nCust) as "ws_customer",
        fk(43, nSite) as "ws_site", fk(44, nDate) as "ws_date",
        round(rand(seed + 45) * 250 + 1, 2) as "ws_price")
      case "web_returns" => spark.range(1, n(Sizes(name), sf) + 1).select(
        fk(51, n(Sizes("web_sales"), sf)) as "wr_order", fk(52, nItem) as "wr_item",
        fk(53, nDate) as "wr_date", round(rand(seed + 54) * 90 + 1, 2) as "wr_amt")
      case "customer" => spark.range(1, nCust + 1).select(
        col("id") as "c_id", fk(61, nCd) as "c_cdemo", fk(62, nCa) as "c_addr",
        fk(63, 12L) as "c_month")
      case "customer_address" => spark.range(1, nCa + 1).select(
        col("id") as "ca_id", pick(States, seed + 71) as "ca_state")
      case "customer_demographics" => spark.range(1, nCd + 1).select(
        col("id") as "cd_id", pick(Seq("M", "F"), seed + 81) as "cd_gender",
        pick(Seq("Primary", "Secondary", "College", "Degree"), seed + 82) as "cd_edu")
      case "date_dim" => spark.range(1, nDate + 1).select(
        col("id") as "d_id", (col("id") % 20 + 1998).cast(LongType) as "d_year",
        (col("id") % 12 + 1).cast(LongType) as "d_moy")
      case "item" => spark.range(1, nItem + 1).select(
        col("id") as "i_id", pick(Cats, seed + 91) as "i_category",
        concat(lit("brand"), (col("id") % 50).cast("string")) as "i_brand",
        round(rand(seed + 92) * 100 + 1, 2) as "i_price")
      case "warehouse" => spark.range(1, nWh + 1).select(
        col("id") as "w_id", pick(States, seed + 101) as "w_state")
      case "store" => spark.range(1, nStore + 1).select(
        col("id") as "s_id", pick(States, seed + 111) as "s_state")
      case "ship_mode" => spark.range(1, nSm + 1).select(
        col("id") as "sm_id", pick(Seq("AIR", "SHIP", "TRUCK", "RAIL", "MAIL"), seed + 121) as "sm_type")
      case "call_center" => spark.range(1, nCc + 1).select(
        col("id") as "cc_id", concat(lit("cc"), col("id").cast("string")) as "cc_name")
      case "inventory" => spark.range(1, n(Sizes(name), sf) + 1).select(
        fk(131, nItem) as "inv_item", fk(132, nWh) as "inv_warehouse",
        fk(133, nDate) as "inv_date", (rand(seed + 134) * 500).cast(DoubleType) as "inv_qty")
    }
  }

  // ------------------------------------------------------ arrival patterns

  /** Split a table into per-time deltas with the given row fractions. */
  def split(df: DataFrame, fracs: Seq[Double], seed: Long = 17): Vector[DataFrame] = {
    val total = fracs.sum
    val cum = fracs.scanLeft(0.0)(_ + _).map(_ / total)
    val withR = df.withColumn("__r", rand(seed))
    cum.sliding(2).map { case Seq(lo, hi) =>
      withR.filter(col("__r") >= lo && col("__r") < hi).drop("__r")
    }.toVector
  }

  /** Inject retractions: move `frac` of the t0 rows into later deltas as
    * negated rows (a correction/cancellation arriving late), paired with
    * replacement rows so the final snapshot stays the same size class.
    */
  def withRetractions(deltas: Vector[DataFrame], frac: Double, seed: Long = 23): Vector[DataFrame] = {
    import repro.core.tvr.{Delta, Plans}
    val t0 = Delta.attach(deltas.head)
    // cancel a sample of rows that were visible at t0 in the LAST delta
    val retract = t0.withColumn("__r", rand(seed)).filter(col("__r") < frac).drop("__r")
    val later = deltas.tail.zipWithIndex.map { case (d, i) =>
      if (i == deltas.tail.size - 1)
        Plans.on(Seq(Delta.attach(d), retract))(ps => Delta.unionAll(Seq(ps(0), Delta.negate(ps(1)))))
      else Delta.attach(d)
    }
    (t0 +: later).toVector
  }

  /** The paper's four data-arrival patterns (§8.2) over two incremental
    * runs: fractions of the fact data visible at (t0, t1) plus which tables
    * carry retractions.
    */
  sealed trait Pattern { def name: String; def fracs: Seq[Double]; def retractTables: Set[String] }
  case object DeltaBig   extends Pattern { val name = "delta-big";   val fracs = Seq(0.5, 0.5); val retractTables = Set.empty[String] }
  case object DeltaSmall extends Pattern { val name = "delta-small"; val fracs = Seq(0.8, 0.2); val retractTables = Set.empty[String] }
  case object DeltaR     extends Pattern { val name = "delta-R";     val fracs = Seq(2.0 / 3, 1.0 / 3); val retractTables = Set("store_sales", "catalog_sales", "web_sales") }
  case object DeltaRS    extends Pattern { val name = "delta-RS";    val fracs = Seq(2.0 / 3, 1.0 / 3); val retractTables = Set("store_sales", "catalog_sales", "web_sales", "store_returns", "catalog_returns", "web_returns") }
  val patterns: Seq[Pattern] = Seq(DeltaBig, DeltaSmall, DeltaR, DeltaRS)

  /** Fact tables stream; everything else arrives fully at t0. */
  val factTables: Set[String] = Set(
    "store_sales", "store_returns", "catalog_sales", "catalog_returns",
    "web_sales", "web_returns", "inventory")

  /** Build per-time delta inputs for a query under an arrival pattern. */
  def inputsFor(spark: SparkSession, q: RelOp, pattern: Pattern, sf: Double,
                numTimes: Int = 2, seed: Long = 7): Map[String, Vector[DataFrame]] = {
    import repro.core.tvr.{Delta, Plans}
    q.scans.map { s =>
      val full = genTable(spark, s.table, sf, seed)
      val deltas: Vector[DataFrame] =
        if (!factTables.contains(s.table))
          (Delta.attach(full) +: Vector.fill(numTimes - 1)(Plans.on(Delta.attach(full))(Delta.empty)))
        else {
          val fr =
            if (numTimes == 2) pattern.fracs
            else {
              // spread the t0 share over the first steps, keep the last delta share
              val first = pattern.fracs.head
              Seq.fill(numTimes - 1)(first / (numTimes - 1)) :+ pattern.fracs.last
            }
          val base = split(full, fr, seed + s.table.hashCode % 1000)
          if (pattern.retractTables.contains(s.table))
            withRetractions(base, frac = 0.08, seed + 1)
          else base.map(Delta.attach)
        }
      s.table -> deltas
    }.toMap
  }
}
