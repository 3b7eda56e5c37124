package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baselines.AutoPipelineStar
import repro.discovery.SetSimilarity
import repro.lake.{SourceTable, TableRepo}

/** A method row of the paper's tables: one of the five algorithms, and
  * whether it runs on the known integrating set ("w/ int. set") instead
  * of the Set Similarity candidates. Gen-T always runs on its candidates.
  */
sealed abstract class Method(name: String) {
  def intSet: Boolean
  final def label: String = if (intSet) s"$name w/ int. set" else name

  /** The method's output for `in`'s source; `None` when it timed out. */
  def run(in: Method.Inputs): Option[DataFrame]
}

object Method {
  case object GenT extends Method("Gen-T") {
    val intSet = false
    def run(in: Inputs): Option[DataFrame] =
      Some(repro.core.GenT.reclaimFromCandidates(in.repo, in.candidates, in.source, in.spark).reclaimed)
  }

  final case class Alite(intSet: Boolean) extends Method("ALITE") {
    def run(in: Inputs): Option[DataFrame] = repro.baselines.Alite.run(in.tables(intSet))
  }

  final case class AlitePs(intSet: Boolean) extends Method("ALITE-PS") {
    def run(in: Inputs): Option[DataFrame] = repro.baselines.Alite.runPs(in.tables(intSet), in.source)
  }

  final case class AutoPipeline(intSet: Boolean) extends Method("Auto-Pipeline*") {
    def run(in: Inputs): Option[DataFrame] = AutoPipelineStar.run(in.tables(intSet), in.source, in.spark)
  }

  final case class Ver(intSet: Boolean) extends Method("Ver") {
    def run(in: Inputs): Option[DataFrame] = repro.baselines.Ver.run(in.tables(intSet), in.source, in.spark)
  }

  /** What the methods run on for one source: one Set Similarity pass,
    * run on construction, and the renamed input tables, built when first
    * used. Discovery never sees a lake table named like the source: a
    * source is never its own originating table.
    */
  final class Inputs(val spark: SparkSession, val repo: TableRepo, index: DataFrame,
                     val source: SourceTable, intSetNames: Seq[String]) {
    private val discoverable = index.where(col("table") =!= source.name)
    val candidates: Seq[SetSimilarity.Candidate] =
      SetSimilarity.findCandidates(repo, discoverable, source, spark)

    private lazy val candidateTables = candidates.map(c => SetSimilarity.renamed(repo, c))
    /** The integrating-set tables, renamed against the source by a Set
      * Similarity pass restricted to exactly those tables (no candidate
      * pruning): the implicit schema matching every baseline needs before
      * integration. Default τ: a lower threshold would admit (and then
      * fail to repair) crossed column mappings inside the integrating set.
      */
    private lazy val intSetTables =
      if (intSetNames.isEmpty) Seq.empty
      else SetSimilarity.findCandidates(repo, discoverable.where(col("table").isin(intSetNames: _*)),
        source, spark, SetSimilarity.Config(topK = intSetNames.size)).map(c => SetSimilarity.renamed(repo, c))

    /** The integrating set's tables when `intSet`, else the candidates'. */
    def tables(intSet: Boolean): Seq[DataFrame] = if (intSet) intSetTables else candidateTables
  }
}
