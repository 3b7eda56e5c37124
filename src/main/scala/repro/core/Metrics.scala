package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.KeyedRows.{Source, Table}
import repro.lake.SourceTable

/** Evaluation metrics of §VI-A2 and Appendix E, on the driver-side
  * kernel: [[all]] brings S and the reclaimed table Ŝ to the driver in one
  * [[KeyedRows.collect]] and scores their rows there. Every score but
  * recall/precision reads the one alignment of Ŝ with S,
  * [[KeyedRows.align]].
  *
  *   - Recall/Precision derived from ALITE's Tuple Difference Ratio:
  *     `Rec = |S∩Ŝ|/|S|`, `Pre = |S∩Ŝ|/|Ŝ|` with set semantics over full
  *     rows on S's schema: both sides de-duplicated, nulls equal (as SQL's
  *     INTERSECT compares them).
  *   - EIS (Eq. 3), [[KeyedRows.eis]].
  *   - Instance Divergence = 1 − instance similarity (Eq. 2).
  *   - Conditional KL-divergence (Eqs. 11–12) with ε-smoothing so the
  *     score is finite; erroneous values are penalized harder than nulls
  *     through the (1 − Q(¬x|k)) factor. Reported value is averaged per
  *     non-key column and divided by Q(K) = fraction of source keys found.
  */
object Metrics {

  /** ε for KL smoothing; also the paper's D_KL is unbounded, ours caps at
    * −2·ln(ε) per column term.
    */
  val Eps = 1e-3

  /** Sentinel reported when the reclaimed table shares no key with S. */
  val KlNoKeys = 1e6

  final case class Scores(
      recall: Double,
      precision: Double,
      instDiv: Double,
      kl: Double,
      eis: Double,
      outputCells: Long,
      sourceCells: Long) {
    def perfect: Boolean = recall >= 1.0 - 1e-12 && precision >= 1.0 - 1e-12
    def sizeRatio: Double = if (sourceCells == 0) 0 else outputCells.toDouble / sourceCells
  }

  /** Recall and precision of `out`, a table on S's columns. An empty S has
    * recall 1.0; an empty `out` has precision 0.
    */
  def recallPrecision(out: Table, source: Source): (Double, Double) = {
    require(out.columns == source.table.columns, s"${out.columns} is not on S's columns")
    val s = source.table.rows.toSet
    val r = out.rows.toSet
    val inter = s.count(r).toDouble
    (if (s.isEmpty) 1.0 else inter / s.size, if (r.isEmpty) 0.0 else inter / r.size)
  }

  /** Instance similarity of Definition 5 / Eq. (2), in [0, 1]: as EIS,
    * but α counts only shared non-null values (Example 6's t0 of Ŝ2
    * scores 2/4) and errors are not subtracted.
    */
  def instanceSimilarity(out: Table, source: Source): Double = {
    val total = source.size
    if (total == 0) return 1.0
    val n = math.max(1, source.nonKeyColumns.size)
    val best = KeyedRows.align(out, source).map { case (_, pairs) =>
      pairs.map { case (s, r) => s.indices.count(i => s(i) != null && s(i) == r(i)) }.max
    }
    best.sum.toDouble / n / total
  }

  /** Conditional KL-divergence of `out` w.r.t. the source: 0.0 when S has
    * only key columns, [[KlNoKeys]] when no key tuple aligns. Q(K) counts
    * the aligned key tuples over S's distinct key tuples, where a tuple
    * with a null cell counts too (once), as SQL's DISTINCT counts it.
    */
  def conditionalKl(out: Table, source: Source): Double = {
    val nk = source.nonKeyColumns.size
    if (nk == 0) return 0.0
    val perKey = KeyedRows.codes(out, source).map(_._2)
    if (perKey.isEmpty) return KlNoKeys
    // Per key and column: Q(x|k) = fraction of aligned pairs carrying the
    // source value, Q(¬x|k) = fraction carrying a different non-null value.
    val sumCols = (0 until nk).map { i =>
      perKey.map { cs =>
        val q1 = cs.count(_(i) == 1).toDouble / cs.size
        val qe = cs.count(_(i) == -1).toDouble / cs.size
        -(math.log(math.max(q1, Eps)) + math.log(math.max(1.0 - qe, Eps)))
      }.sum / perKey.size
    }.sum
    val keyIdx = KeyedRows.requireKeys(source.table, source.keys)
    val totalKeys = source.table.rows.map(r => keyIdx.map(r)).distinct.size
    sumCols / (perKey.size.toDouble / totalKeys * nk)
  }

  /** All scores of §VI-A2 for one (source, reclaimed) pair, from one Spark
    * job: the collect of S and `reclaimed`, padded to S's columns.
    */
  def all(reclaimed: DataFrame, source: SourceTable): Scores = {
    val (src, Seq(own)) = KeyedRows.collect(source, Seq(reclaimed))
    val out = KeyedRows.padTo(own, src.table.columns)
    val (rec, pre) = recallPrecision(out, src)
    val cells = out.columns.size.toLong
    Scores(rec, pre, 1.0 - instanceSimilarity(out, src), conditionalKl(out, src),
      KeyedRows.eis(out, src), out.rows.size * cells, src.size * cells)
  }
}
