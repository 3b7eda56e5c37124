package repro.lake

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Inverted cell-value index over a table repository.
  *
  * One row per distinct `(table, column, value)` — the substrate for all
  * set-overlap computations (our stand-in for JOSIE / MATE exact
  * set-containment search). Every discovery-time overlap score is a
  * filter of this single DataFrame by literal values or column keys,
  * probed as JOSIE probes posting lists, plus an aggregation: no join.
  * Candidate retrieval thus scales with the lake rather than with the
  * number of (source column × lake column) pairs.
  */
object LakeIndex {

  /** Unpivot `df` into distinct (column, value) pairs; nulls are dropped
    * (a null never witnesses set overlap).
    */
  def unpivot(df: DataFrame): DataFrame = {
    val cols = df.columns.toIndexedSeq
    val stacked = cols.map(c => struct(lit(c).as("column"), col(c).cast("string").as("value")))
    df.select(explode(array(stacked: _*)).as("cv"))
      .select(col("cv.column").as("column"), col("cv.value").as("value"))
      .where(col("value").isNotNull)
      .distinct()
  }

  /** Build the `(table, column, value)` index for every table in `repo`. */
  def build(repo: TableRepo, spark: SparkSession): DataFrame = {
    val parts = repo.allTables.map { t =>
      unpivot(t.df).select(lit(t.name).as("table"), col("column"), col("value"))
    }
    parts.reduceOption(_.unionByName(_)).getOrElse(
      spark.emptyDataFrame
        .withColumn("table", lit(""): org.apache.spark.sql.Column)
        .withColumn("column", lit(""))
        .withColumn("value", lit(""))
        .limit(0))
  }

  /** Build and persist the index under `<repoRoot>/index`; reuse if present. */
  def buildOrLoad(repo: TableRepo, spark: SparkSession): DataFrame = {
    val path = new java.io.File(repo.root, "index").toString
    if (!new java.io.File(path, "_SUCCESS").exists())
      build(repo, spark).write.mode("overwrite").parquet(path)
    spark.read.parquet(path)
  }
}
