package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.KeyedRows
import repro.core.KeyedRows.{Table, outerUnion, padTo}
import repro.lake.SourceTable

/** The Ver baseline (Gong et al., ICDE 2023) adapted to reclamation as in
  * the paper (§VI-A1): Ver is a Query-by-Example system queried with
  * two-column examples; its goal is to return views that *contain* the
  * example tuples plus many additional tuples.
  *
  * Following the paper's protocol we query with two columns of the source
  * at a time — each (key, non-key column) pair. A view for a pair is the
  * two-column projection of any input table containing both columns, or
  * of a natural join of two input tables that together cover the pair.
  * All views of a pair are unioned (keeping every tuple, not just source
  * tuples), and the per-pair results are combined into a full-width
  * table by a full natural join on the key — reproducing Ver's signature
  * high-recall / low-precision output. The inputs are collected once;
  * above `rowCap` rows in total they time out (None), as in the paper
  * (Ver only runs with the integrating set on TP-TR Small).
  */
object Ver {

  final case class Config(rowCap: Int = 20000)

  def run(
      tables: Seq[DataFrame],
      source: SourceTable,
      spark: SparkSession,
      cfg: Config = Config()): Option[DataFrame] = {
    if (tables.isEmpty || source.keys.isEmpty) return None
    val inputs = KeyedRows.collectRows(
      tables.map(KeyedRows.limited(_, cfg.rowCap + 1)), s"Ver on ${source.name}")
    if (inputs.map(_.rows.size).sum > cfg.rowCap) return None

    val keys = source.keys
    def has(t: Table, c: String) = t.columns.contains(c)

    // One 2-column "example query" per (key-set, non-key column) pair.
    val perColumn: Seq[Table] = source.nonKeyColumns.flatMap { c =>
      val wanted = (keys :+ c).toIndexedSeq
      val direct = inputs.filter(t => wanted.forall(has(t, _)))
      val joined = for {
        a <- inputs if keys.forall(has(a, _)) && !has(a, c)
        b <- inputs if has(b, c) && a.columns.exists(has(b, _))
      } yield NaturalJoin(a, b, "inner")
      (direct ++ joined).map(padTo(_, wanted).distinct).reduceOption(outerUnion(_, _).distinct)
    }

    if (perColumn.isEmpty) return None

    val combined = perColumn.reduce(NaturalJoin(_, _, "full"))
    Some(KeyedRows.toDf(padTo(combined, source.df.columns.toIndexedSeq).distinct, spark))
  }
}
