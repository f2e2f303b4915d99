package repro.core.stats

import org.apache.spark.TaskContext
import org.apache.spark.sql.{Column, DataFrame, classic}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, DoubleType, FloatType, LongType}
import repro.core.SparkScope
import repro.core.algebra._
import repro.core.tvr.{Delta, Plans}

/** Cardinality statistics of one relation (a snapshot or a delta). */
final case class RelStats(rows: Double, distinct: Map[String, Double]) {
  /** Distinct count of a column, with a crude default for derived columns. */
  def d(c: String): Double =
    math.max(1.0, math.min(rows, distinct.getOrElse(c, rows / 10.0 + 1.0)))
  def scaledTo(newRows: Double): RelStats =
    RelStats(newRows, distinct.map { case (k, v) => k -> math.min(v, math.max(1.0, newRows)) })
}

object RelStats { val empty: RelStats = RelStats(0.0, Map.empty) }

/** Per-base-table statistics of an IQP problem: delta cardinalities per time
  * step, full-data distinct counts, and whether deltas contain retractions
  * (which gates IM-2's inter-TVR rules).
  */
final case class TvrStats(
    deltaRows: Vector[Double],
    distinct: Map[String, Double],
    hasRetractions: Boolean = false) {
  def numTimes: Int = deltaRows.size
  def snapRows(t: Int): Double = deltaRows.take(t + 1).sum
  def totalRows: Double = deltaRows.sum
  def snapStats(t: Int): RelStats = {
    val r = snapRows(t)
    RelStats(r, distinct.map { case (k, v) => k -> math.min(v, math.max(1.0, r)) })
  }
  def deltaStats(t1: Int, t2: Int): RelStats = {
    val r = (t1 + 1 to t2).map(deltaRows).sum
    RelStats(r, distinct.map { case (k, v) =>
      k -> math.max(1.0, math.min(v * (if (totalRows > 0) r / totalRows else 0.0) + 1.0, r))
    })
  }
}

object TvrStats {
  /** A copy of each row of one partition: a named function, which Spark's
    * closure cleaner does not parse ([[SparkScope.runJob]]). */
  private object CopyRows extends ((TaskContext, Iterator[InternalRow]) => Array[InternalRow]) with Serializable {
    def apply(task: TaskContext, rows: Iterator[InternalRow]): Array[InternalRow] = rows.map(_.copy()).toArray
  }

  /** Exact statistics of one table from its per-time deltas: [[fromTables]]
    * for one table. The table has retractions if `hasRetractions` says so or
    * the data does. */
  def fromData(deltas: Vector[DataFrame], distinctCols: Seq[String],
               hasRetractions: Boolean = false): TvrStats = {
    val s = fromTables(Seq(deltas -> distinctCols)).head
    if (hasRetractions) s.copy(hasRetractions = true) else s
  }

  /** Exact statistics of tables, each given by its per-time delta
    * DataFrames and the columns to count the distinct values of, in one
    * Spark job over one plan, analysed once ([[Plans]]). Used by benches so
    * the optimizer plans with accurate estimates; the sensitivity experiment
    * perturbs these.
    *
    * A table's deltas are tagged with their index and unioned, and one
    * global aggregate over them counts the rows of each delta, whether any
    * row has a negative [[Delta.MULT]] (a delta without that column has
    * none), and the distinct values of each column over all deltas
    * ([[distinct]]). Its one row is `(table index, array of longs)`, with the
    * retraction flag as 0 or 1, and the rows of all tables are unioned.
    *
    * A distinct count is the size of a per-column hash set, not
    * `countDistinct`: Spark rewrites several distinct aggregates into an
    * `Expand`, which copies each row once per column and one more time and
    * then aggregates twice.
    *
    * At one shuffle partition the job runs without generated code and in
    * one stage ([[SparkScope.interpreted]]): a few aggregates over a few
    * thousand rows compile more than they compute, and each table's union
    * and the union of the tables are planned under one coalesce, so no
    * exchange regroups them. The aggregates are planned without closure
    * cleaning there, and the job runs through [[SparkScope.runJob]] in place
    * of `collect()`, whose closure would make Spark's cleaner read `RDD`'s
    * class file each time. It runs under a SQL execution id of its own, as
    * `collect()` does, so query listeners see the query.
    */
  def fromTables(tables: Seq[(Vector[DataFrame], Seq[String])]): Seq[TvrStats] = {
    val (tag, spark) = ("__delta", tables.head._1.head.sparkSession)
    val rows = SparkScope.interpreted(spark) {
      val perTable = tables.zipWithIndex.map { case ((deltas, cols), t) =>
        val tagged = deltas.zipWithIndex.map { case (d, i) =>
          val p = Delta.attach(Plans.of(d))
          Plans.select(p, Plans.columns(p).map(col) :+ lit(i).as(tag))
        }
        val types = deltas.head.schema.map(f => f.name -> f.dataType).toMap
        val counts = (deltas.indices.map(i => count(when(col(tag) === i, 1))) :+ any(col(Delta.MULT) < 0)) ++
          cols.map(c => distinct(col(c), types.get(c)))
        Plans.aggregate(SparkScope.single(spark)(Delta.unionAll(tagged)), Nil,
          Seq(lit(t).as("table"), array(counts: _*).as("stats")))
      }
      val qe = Plans.frame(spark, Delta.unionAll(perTable)).asInstanceOf[classic.Dataset[_]].queryExecution
      SQLExecution.withNewExecutionId(qe, Some("collect"))(SparkScope.runJob(qe.toRdd, CopyRows).flatten)
    }
    val byTable = rows.map(r => r.getInt(0) -> r.getArray(1).toLongArray()).toMap
    tables.zipWithIndex.map { case ((deltas, cols), t) =>
      val (n, s) = (deltas.size, byTable(t))
      TvrStats(s.take(n).map(_.toDouble).toVector, cols.zip(s.drop(n + 1).map(_.toDouble)).toMap, s(n) == 1)
    }
  }

  /** 1 if `p` holds on some row, and 0 otherwise. */
  private def any(p: Column): Column = coalesce(max(p.cast(LongType)), lit(0L))

  /** The number of distinct non-null values of `c`, of type `t`, as
    * `countDistinct` counts them: the size of the set of its values. Spark's
    * set compares floating values with Scala's `==`, under which NaN equals
    * nothing, so NaN is counted apart, once, and -0.0 is made 0.0 (`+ 0`),
    * as Spark normalizes a grouping key. */
  private def distinct(c: Column, t: Option[DataType]): Column = t match {
    case Some(FloatType | DoubleType) => size(collect_set(when(!isnan(c), c + 0))).cast(LongType) + any(isnan(c))
    case _                            => size(collect_set(c)).cast(LongType)
  }
}

/** Textbook-CBO cardinality estimation for the reproduction algebra, used by
  * the memo to attach [[RelStats]] to every group it creates.
  */
object Estimator {
  def selectivity(p: Expr): Double = p match {
    case Cmp("=", _, _)         => 0.1
    case Cmp("<>", _, _)        => 0.9
    case Cmp(_, _, _)           => 0.3
    case And(a, b)              => selectivity(a) * selectivity(b)
    case Or(a, b)               => math.min(1.0, selectivity(a) + selectivity(b))
    case Not(a)                 => math.max(0.0, 1.0 - selectivity(a))
    case IsNullE(_)             => 0.1
    case InList(_, vs)          => math.min(1.0, 0.1 * vs.size)
    case _                      => 0.25
  }

  def filter(in: RelStats, p: Expr): RelStats = in.scaledTo(in.rows * selectivity(p))

  def project(in: RelStats, exprs: Seq[(String, Expr)]): RelStats =
    RelStats(in.rows, exprs.collect {
      case (n, Col(c)) => n -> in.d(c)
      case (n, _)      => n -> math.max(1.0, in.rows / 10.0)
    }.toMap)

  private def keyDistinct(s: RelStats, keys: Seq[String]): Double =
    math.min(s.rows, keys.map(s.d).product)

  def join(l: RelStats, r: RelStats, kind: JoinKind,
           lk: Seq[String], rk: Seq[String]): RelStats = {
    val dl = keyDistinct(l, lk); val dr = keyDistinct(r, rk)
    val innerRows = if (l.rows == 0 || r.rows == 0) 0.0
      else l.rows * r.rows / math.max(1.0, math.max(dl, dr))
    val rows = kind match {
      case Inner     => innerRows
      case LeftOuter => math.max(innerRows, l.rows)
      case LeftSemi  => l.rows * math.min(1.0, dr / math.max(1.0, dl)) * 0.9
      case LeftAnti  => math.max(0.0, l.rows * (1.0 - math.min(1.0, dr / math.max(1.0, dl)) * 0.9))
    }
    val dis = kind match {
      case LeftSemi | LeftAnti => l.distinct
      case _                   => l.distinct ++ r.distinct
    }
    RelStats(rows, dis.map { case (k, v) => k -> math.min(v, math.max(1.0, rows)) })
  }

  /** Per-column maximum of two relations' distinct counts. */
  def maxMerge(a: RelStats, b: RelStats): Map[String, Double] =
    (a.distinct.keySet ++ b.distinct.keySet).map(c => c -> math.max(a.d(c), b.d(c))).toMap

  /** A delta join's output parts: ΔL ⋈ R_new, L_old ⋈ ΔR (a semi join for
    * semi/anti, whose flips are bounded by the left side), and for non-inner
    * joins the rows retracted or restored by key flips. */
  final case class DeltaJoinRows(fromDL: RelStats, fromDR: RelStats, flips: Double) {
    def out: RelStats = RelStats(fromDL.rows + fromDR.rows + flips, maxMerge(fromDL, fromDR))
  }

  def deltaJoin(lOld: RelStats, dL: RelStats, rNew: RelStats, dR: RelStats,
                kind: JoinKind, lk: Seq[String], rk: Seq[String]): DeltaJoinRows =
    DeltaJoinRows(
      join(dL, rNew, kind, lk, rk),
      join(lOld, dR, if (kind == Inner || kind == LeftOuter) Inner else LeftSemi, lk, rk),
      if (kind == Inner) 0.0 else 0.1 * dR.rows)

  def agg(in: RelStats, keys: Seq[String]): RelStats = {
    val groups = if (keys.isEmpty) 1.0 else math.min(in.rows, keys.map(in.d).product)
    RelStats(groups, keys.map(k => k -> math.min(in.d(k), groups)).toMap)
  }

  def unionAll(ins: Seq[RelStats]): RelStats =
    RelStats(ins.map(_.rows).sum,
      ins.flatMap(_.distinct.keys).distinct.map { k =>
        k -> ins.map(_.d(k)).max
      }.toMap)
}
