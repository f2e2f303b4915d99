package repro.core.algebra

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Scalar expression ADT shared by the optimizer, the Spark runtime, and the
  * DuckDB oracle.
  *
  * Expressions compile three ways: to a Spark [[Column]] (runtime execution),
  * to a SQL string (oracle cross-checking on DuckDB), and to a referenced
  * column set (used by rewrite rules to decide which inputs an expression
  * touches). Column names are required to be globally unique within a query,
  * which keeps all three compilations trivial and unambiguous.
  */
sealed trait Expr {

  /** Compile to a Spark Column. */
  def toColumn: Column = this match {
    case Col(n)         => col(n)
    case Lit(null)      => lit(null)
    case NullLit(t)     => lit(null).cast(t match {
      case TLong => "bigint"; case TDouble => "double"
      case TString => "string"; case TDate => "date"
    })
    case Lit(v)         => lit(v)
    case Arith(op, l, r) =>
      val (a, b) = (l.toColumn, r.toColumn)
      op match {
        case "+" => a + b; case "-" => a - b
        case "*" => a * b; case "/" => a / b
      }
    case Cmp(op, l, r) =>
      val (a, b) = (l.toColumn, r.toColumn)
      op match {
        case "="  => a === b; case "<>" => a =!= b
        case "<"  => a < b;   case "<=" => a <= b
        case ">"  => a > b;   case ">=" => a >= b
      }
    case And(l, r)    => l.toColumn && r.toColumn
    case Or(l, r)     => l.toColumn || r.toColumn
    case Not(e)       => !e.toColumn
    case IsNullE(e)   => e.toColumn.isNull
    case Coalesce(es) => coalesce(es.map(_.toColumn): _*)
    case IfE(c, t, e) => when(c.toColumn, t.toColumn).otherwise(e.toColumn)
    case InList(e, vs) => e.toColumn.isin(vs: _*)
  }

  /** Render as SQL accepted by both Spark SQL and DuckDB. */
  def toSql: String = this match {
    case Col(n)          => n
    case Lit(null)       => "NULL"
    case NullLit(t)      => s"CAST(NULL AS ${t.ddl})"
    case Lit(s: String)  => s"'${s.replace("'", "''")}'"
    case Lit(b: Boolean) => b.toString.toUpperCase
    case Lit(v)          => v.toString
    case Arith(op, l, r) => s"(${l.toSql} $op ${r.toSql})"
    case Cmp(op, l, r)   => s"(${l.toSql} $op ${r.toSql})"
    case And(l, r)       => s"(${l.toSql} AND ${r.toSql})"
    case Or(l, r)        => s"(${l.toSql} OR ${r.toSql})"
    case Not(e)          => s"(NOT ${e.toSql})"
    case IsNullE(e)      => s"(${e.toSql} IS NULL)"
    case Coalesce(es)    => s"COALESCE(${es.map(_.toSql).mkString(", ")})"
    case IfE(c, t, e)    => s"(CASE WHEN ${c.toSql} THEN ${t.toSql} ELSE ${e.toSql} END)"
    case InList(e, vs) =>
      val items = vs.map { case s: String => s"'$s'"; case v => v.toString }
      s"(${e.toSql} IN (${items.mkString(", ")}))"
  }

  /** Columns referenced anywhere in the expression. */
  def refs: Set[String] = this match {
    case Col(n)          => Set(n)
    case Lit(_)          => Set.empty
    case NullLit(_)      => Set.empty
    case Arith(_, l, r)  => l.refs ++ r.refs
    case Cmp(_, l, r)    => l.refs ++ r.refs
    case And(l, r)       => l.refs ++ r.refs
    case Or(l, r)        => l.refs ++ r.refs
    case Not(e)          => e.refs
    case IsNullE(e)      => e.refs
    case Coalesce(es)    => es.flatMap(_.refs).toSet
    case IfE(c, t, e)    => c.refs ++ t.refs ++ e.refs
    case InList(e, _)    => e.refs
  }
}

final case class Col(name: String)                          extends Expr
final case class Lit(value: Any)                            extends Expr
final case class NullLit(t: ColType)                        extends Expr
final case class Arith(op: String, l: Expr, r: Expr)        extends Expr
final case class Cmp(op: String, l: Expr, r: Expr)          extends Expr
final case class And(l: Expr, r: Expr)                      extends Expr
final case class Or(l: Expr, r: Expr)                       extends Expr
final case class Not(e: Expr)                               extends Expr
final case class IsNullE(e: Expr)                           extends Expr
final case class Coalesce(es: Seq[Expr])                    extends Expr
final case class IfE(c: Expr, t: Expr, e: Expr)             extends Expr
final case class InList(e: Expr, values: Seq[Any])          extends Expr

object Expr {
  /** Conjunction of a list of predicates; TRUE when empty. */
  def conj(ps: Seq[Expr]): Expr = ps.reduceOption(And.apply).getOrElse(Lit(true))
}

/** Supported aggregate functions. MIN/MAX are batch-only: they are not
  * incrementally maintainable under retraction, and the TVR-generating
  * aggregate rule refuses to fire on them (mirroring the paper's
  * "Iterate/Merge degenerate to no-op" remark for holistic aggregates); a
  * snapshot of such an aggregate is recomputed from its input's snapshot.
  */
sealed trait AggFn { def sqlName: String }
case object SumF       extends AggFn { val sqlName = "SUM" }
case object CountF     extends AggFn { val sqlName = "COUNT" }   // COUNT(expr): non-null
case object CountStarF extends AggFn { val sqlName = "COUNT" }   // COUNT(*)
case object AvgF       extends AggFn { val sqlName = "AVG" }
case object MinF       extends AggFn { val sqlName = "MIN" }
case object MaxF       extends AggFn { val sqlName = "MAX" }

/** One aggregate output column, e.g. SUM(price * qty) AS revenue. */
final case class AggCall(fn: AggFn, arg: Option[Expr], name: String) {
  require(fn == CountStarF || arg.isDefined, s"$fn needs an argument")
  def toSql: String = fn match {
    case CountStarF => s"COUNT(*) AS $name"
    case f          => s"${f.sqlName}(${arg.get.toSql}) AS $name"
  }
  /** True if this aggregate supports incremental state maintenance. */
  def incrementable: Boolean = fn match {
    case MinF | MaxF => false
    case _           => true
  }
}
