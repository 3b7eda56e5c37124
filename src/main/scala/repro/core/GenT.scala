package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.discovery.{Expand, MatrixTraversal, SetSimilarity}
import repro.lake.{SourceTable, TableRepo}

/** Gen-T end to end (paper Figure 2):
  * Set Similarity (candidate retrieval + implicit schema matching) →
  * Expand (key coverage) → Matrix Traversal (originating-table pruning) →
  * Table Integration (Algorithm 2) → reclaimed source table.
  *
  * Discovery runs in Spark. A keyed candidate comes out of it with its
  * rows carrying a source key, which Set Similarity's verification
  * collected ([[SetSimilarity.Candidate]]'s `aligned`); no keyed candidate
  * is read again. S and the keyless candidates, restricted to the rows a
  * chain of joins links to those ([[Operators.reaching]]), come in one
  * Spark job per chain level (one on every TP-TR Small source), each level
  * reading its tables in one scan of the lake. Expand,
  * matrix traversal and integration run on the driver, and the reclaimed
  * table is a local DataFrame of their rows.
  */
object GenT {

  final case class Config(
      setSim: SetSimilarity.Config = SetSimilarity.Config(),
      matrix: MatrixTraversal.Config = MatrixTraversal.Config())

  final case class Result(
      reclaimed: DataFrame,
      candidates: Seq[String],
      originating: Seq[String],
      millis: Long)

  /** Run Gen-T for one source table over the repository `repo`, whose
    * value index `index` was built with [[repro.lake.LakeIndex]].
    */
  def reclaim(
      repo: TableRepo,
      index: DataFrame,
      source: SourceTable,
      spark: SparkSession,
      cfg: Config = Config()): Result = {
    // --- Table Discovery: Set Similarity (Algorithms 3–4).
    val candidates = SetSimilarity.findCandidates(repo, index, source, spark, cfg.setSim)
    reclaimFromCandidates(repo, candidates, source, spark, cfg)
  }

  /** Gen-T from an already-discovered candidate set (lets the harness
    * share one Set Similarity pass across all methods, as the paper does:
    * "given the same set of candidate tables from Set Similarity").
    */
  def reclaimFromCandidates(
      repo: TableRepo,
      candidates: Seq[SetSimilarity.Candidate],
      source: SourceTable,
      spark: SparkSession,
      cfg: Config = Config()): Result = {
    val t0 = System.nanoTime()
    def result(reclaimed: DataFrame, originating: Seq[String]) =
      Result(reclaimed, candidates.map(_.table), originating, (System.nanoTime() - t0) / 1000000)
    if (candidates.isEmpty) return result(source.df.limit(0), Seq.empty)

    // Select early: every table Gen-T keeps needs only rows aligned to the
    // source keys. A keyed candidate carries exactly those from Set
    // Similarity's verification; a keyless one reads only the rows Expand's
    // joins can link to them, in one job per chain level, S with the first.
    val (keyed, keyless) = candidates.partition(c => source.keys.forall(c.mapping.values.toSet))
    val (src, reached) = Operators.reaching(
      repo, source, keyed.map(_.aligned), keyless.map(c => c.table -> c.mapping))
    val rows = (keyed.map(c => c.table -> c.aligned) ++ keyless.map(_.table).zip(reached)).toMap

    // --- Expand (Algorithm 5): give every candidate the source key.
    val tables = Expand.expandAll(candidates.map(c => c.table -> rows(c.table)), src)
      .map(e => e.name -> KeyedRows.projectSelect(e.table, src))
    if (tables.isEmpty) return result(source.df.limit(0), Seq.empty)

    // --- Matrix Traversal (Algorithm 1): prune to originating tables.
    val matrices = MatrixTraversal.initMatrices(tables, src, cfg.matrix)
    val picked = MatrixTraversal.traverse(
      matrices, src.size, source.nonKeyColumns.size, cfg.matrix)

    // --- Table Reclamation (Algorithm 2).
    val reclaimed = KeyedRows.toDf(
      Integration.integrate(tables.collect { case (n, t) if picked.contains(n) => t }, src),
      spark)

    result(reclaimed, picked)
  }
}
