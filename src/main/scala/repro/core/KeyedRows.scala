package repro.core

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{array, col, lit}
import org.apache.spark.sql.types.{ArrayType, StringType, StructField, StructType}
import repro.lake.SourceTable

/** The driver-side keyed-row kernel that runs Gen-T after discovery.
  *
  * Gen-T's candidates reach the driver as [[Table]]s: one with the source
  * key as the rows Set Similarity's verification collected, those carrying
  * one of the source's keys, so bounded by |S| times the rows a lake table
  * has per key; a keyless one as the rows a chain of joins links to those,
  * the rows Expand's joins can match ([[Operators.reaching]]).
  * Expand, [[projectSelect]], matrix initialization, traversal and every
  * step of Algorithm 2 then run here over string rows (null = ⊥), every
  * table after ProjectSelect holding only rows with a source key (q15's
  * integrated output is 55 rows).
  *
  * β and κ are per-key closures ([[Operators.subsumeGroup]],
  * [[Operators.complementGroup]]): two tuples can only subsume or
  * complement each other if they agree on the key, so grouping by the
  * key tuple is exact once every tuple carries one. Rows with a null key
  * cell pass through them untouched. Unions keep bag semantics, as
  * Spark's `unionByName` does; only β, κ and the minimal form remove
  * duplicates.
  */
object KeyedRows {

  /** Most rows one collect brings to the driver ([[collectRows]]). */
  val MaxRows = 1000000

  /** A table on the driver: column names and rows of cells (null = ⊥). */
  final case class Table(columns: IndexedSeq[String], rows: Seq[Seq[String]]) {
    def distinct: Table = copy(rows = rows.distinct)
  }

  /** The source on the driver, with its rows grouped by key tuple (rows
    * with a null key cell align with nothing, as in an equi-join).
    */
  final case class Source(table: Table, keys: Seq[String]) {
    val byKey: Map[Seq[String], Seq[Seq[String]]] = keyGroups(table.rows, requireKeys(table, keys)).toMap
    val nonKeyColumns: IndexedSeq[String] = table.columns.filterNot(keys.contains)
    def size: Int = table.rows.size
  }

  /** One Spark job: every frame's rows, cells cast to strings, collected
    * as one tagged union. Element i is frame i as a [[Table]] of its own
    * columns. Fails, naming `what`, if the union holds more than
    * [[MaxRows]] rows. The one collect of driver rows: Gen-T, Set
    * Similarity's verification, the metrics and the baselines call it.
    */
  def collectRows(frames: Seq[DataFrame], what: String): Seq[Table] = {
    if (frames.isEmpty) return Seq.empty
    val tagged = frames.zipWithIndex.map { case (df, i) =>
      df.select(lit(i).as("__tag"),
        array(df.columns.toIndexedSeq.map(c => col(c).cast(StringType)): _*)
          .cast(ArrayType(StringType)).as("__cells"))
    }
    val rows = tagged.reduce(_ union _).collect()
    if (rows.length > MaxRows) throw new IllegalStateException(
      s"${rows.length} rows collected for $what: more than the driver-side bound of $MaxRows")
    val byTag = rows.groupBy(_.getInt(0))
    frames.zipWithIndex.map { case (df, i) =>
      Table(df.columns.toIndexedSeq,
        byTag.getOrElse(i, Array.empty[Row]).toIndexedSeq.map(_.getSeq[String](1)))
    }
  }

  /** At most `n` rows of `df`, planned so that [[collectRows]] reads them
    * in its one job: a plan whose root is a limit is collected by `take`,
    * which submits a job per batch of partitions it scans.
    */
  def limited(df: DataFrame, n: Int): DataFrame = df.limit(n).coalesce(1)

  /** One Spark job: `source` and every table of `tables`, each table on
    * its own columns that the source has, in its own order.
    */
  def collect(source: SourceTable, tables: Seq[DataFrame]): (Source, Seq[Table]) = {
    val cols = source.df.columns.toIndexedSeq
    val own = tables.map(df => df.select(df.columns.toIndexedSeq.filter(cols.contains).map(col): _*))
    val rows = collectRows(source.df +: own, s"source ${source.name}")
    (Source(rows.head, source.keys), rows.tail)
  }

  /** A local (job-free) DataFrame of `t`'s rows, every column a string. */
  def toDf(t: Table, spark: SparkSession): DataFrame =
    spark.createDataFrame(
      t.rows.map(r => Row.fromSeq(r)).asJava,
      StructType(t.columns.map(c => StructField(c, StringType, nullable = true))))

  /** Positions of `keys` in `t`, or None if `t` lacks one. */
  private[core] def keyPositions(t: Table, keys: Seq[String]): Option[IndexedSeq[Int]] = {
    val idx = keys.map(t.columns.indexOf).toIndexedSeq
    if (idx.contains(-1)) None else Some(idx)
  }

  private[core] def requireKeys(t: Table, keys: Seq[String]): IndexedSeq[Int] =
    keyPositions(t, keys).getOrElse(
      throw new IllegalArgumentException(s"keys $keys missing from ${t.columns}"))

  /** Rows with no null key cell, grouped by key tuple in order of first
    * appearance; rows keep their order within a group.
    */
  private def keyGroups(
      rows: Seq[Seq[String]], keyIdx: IndexedSeq[Int]): Seq[(Seq[String], Seq[Seq[String]])] = {
    val groups = mutable.LinkedHashMap[Seq[String], mutable.ArrayBuffer[Seq[String]]]()
    rows.foreach { r =>
      val k = keyIdx.map(r)
      if (!k.contains(null)) groups.getOrElseUpdate(k, mutable.ArrayBuffer()) += r
    }
    groups.iterator.map { case (k, rs) => k -> rs.toSeq }.toSeq
  }

  private def perKeyGroup(t: Table, keys: Seq[String])(
      f: Seq[Seq[String]] => Seq[Seq[String]]): Table = {
    val idx = requireKeys(t, keys)
    val unkeyed = t.rows.filter(r => idx.exists(r(_) == null))
    Table(t.columns, keyGroups(t.rows, idx).flatMap { case (_, rs) => f(rs) } ++ unkeyed)
  }

  /** Subsumption (β): drop duplicate and subsumed tuples, per key group. */
  def subsumption(t: Table, keys: Seq[String]): Table =
    perKeyGroup(t, keys)(Operators.subsumeGroup)

  /** Complementation (κ): fixpoint pairwise complementation per key group. */
  def complementation(t: Table, keys: Seq[String]): Table =
    perKeyGroup(t, keys)(Operators.complementGroup)

  /** TakeMinimalForm of Algorithm 2, line 6: dedupe + β + κ per key group
    * (the paper's "remove duplicate tuples, subsumed tuples (β), and take
    * the resulting tuples of complementation (κ)").
    */
  def minimalForm(t: Table, keys: Seq[String]): Table =
    perKeyGroup(t, keys)(rows =>
      Operators.subsumeGroup(Operators.complementGroup(Operators.subsumeGroup(rows))))

  /** `t`'s rows on `columns`: missing columns are null, others dropped. */
  def padTo(t: Table, columns: IndexedSeq[String]): Table = {
    val pos = columns.map(t.columns.indexOf)
    Table(columns, t.rows.map(r => pos.map(i => if (i >= 0) r(i) else null)))
  }

  /** Outer Union (⊎): `a`'s columns, then `b`'s new ones; a bag. */
  def outerUnion(a: Table, b: Table): Table = {
    val cols = a.columns ++ b.columns.filterNot(a.columns.contains)
    Table(cols, padTo(a, cols).rows ++ padTo(b, cols).rows)
  }

  /** InnerUnion of Algorithm 2, line 4: union tables that share the same
    * column set (same schema ⇒ outer union = inner union, Lemma 11), in
    * the first table's column order.
    */
  def innerUnionGroups(ts: Seq[Table]): Seq[Table] =
    ts.groupBy(_.columns.toSet).values.toSeq.map(_.reduce(outerUnion))

  /** ProjectSelect of Algorithm 2, line 3: π onto the source's columns `t`
    * has (in source order), then σ to rows whose key tuple is one of the
    * source's. A table lacking a key column is only projected.
    */
  def projectSelect(t: Table, source: Source): Table = {
    val p = padTo(t, source.table.columns.filter(t.columns.contains))
    keyPositions(p, source.keys) match {
      case None => p
      case Some(idx) => Table(p.columns, p.rows.filter(r => source.byKey.contains(idx.map(r))))
    }
  }

  /** The alignment of `t` with the source that every score reads: for
    * each key tuple of `t` that S has, every pair of a source row and a
    * row of `t` with that key tuple, both on S's non-key columns (a column
    * `t` lacks is null). Grouped by key tuple in order of first appearance
    * in `t`, source row major; rows with a null key cell, and every row of
    * a `t` lacking a key column, align with nothing, as in an equi-join.
    */
  def align(t: Table, source: Source)
      : Seq[(Seq[String], Seq[(IndexedSeq[String], IndexedSeq[String])])] = {
    val sPos = source.nonKeyColumns.map(source.table.columns.indexOf)
    val tPos = source.nonKeyColumns.map(t.columns.indexOf)
    keyPositions(t, source.keys).toSeq.flatMap(idx => keyGroups(t.rows, idx)).flatMap { case (k, rs) =>
      source.byKey.get(k).map { ss =>
        val tn = rs.map(r => tPos.map(i => if (i >= 0) r(i) else null))
        k -> (for (s <- ss.map(s => sPos.map(s)); r <- tn) yield (s, r))
      }
    }
  }

  /** The three-valued code of Eq. (4) for a source cell `s` and the cell
    * `t` aligned with it: 1 where they agree (null-safe), 0 where `s` is
    * non-null and `t` null, −1 otherwise (a contradicting value, or a
    * value where `s` is null). A pair's α − δ is the sum of its codes.
    */
  private def code(s: String, t: String): Int =
    if (s == t) 1 else if (s != null && t == null) 0 else -1

  /** The codes of every pair of [[align]], one per non-key column of S. */
  def codes(t: Table, source: Source): Seq[(Seq[String], Seq[Vector[Int]])] =
    align(t, source).map { case (k, pairs) =>
      k -> pairs.map { case (s, r) => s.indices.map(i => code(s(i), r(i))).toVector }
    }

  /** EIS of Definition 5 / Eq. (3): each source key tuple that `t` aligns
    * with adds 1 + max(α − δ)/n over the pairs of [[codes]]; the sum is
    * halved and divided by |S| rows (1.0 for an empty S). The one EIS of
    * the code base: Integration's guard, the baselines' search and
    * [[Metrics]] all call it.
    */
  def eis(t: Table, source: Source): Double = {
    val total = source.size
    if (total == 0) return 1.0
    val n = math.max(1, source.nonKeyColumns.size)
    val best = codes(t, source).map { case (_, cs) => cs.map(_.sum).max }
    0.5 * (best.size.toLong * n + best.sum) / n / total
  }
}
