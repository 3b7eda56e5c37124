package repro.lake

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType

/** Utilities for the string-typed data-lake table model.
  *
  * Data-lake tables are metadata-free and heterogeneous, so the whole
  * pipeline (discovery, matrices, integration, metrics, oracle) operates
  * over string-typed columns. A table is "in the lake" once it has been
  * stringified; nulls stay real nulls.
  */
object Lake {

  /** Cast every column of `df` to string, preserving nulls and names. */
  def stringify(df: DataFrame): DataFrame =
    df.select(df.columns.map(c => col(c).cast(StringType).as(c)).toIndexedSeq: _*)

  /** True iff all columns of `df` are string-typed. */
  def isStringTyped(df: DataFrame): Boolean =
    df.schema.fields.forall(_.dataType == StringType)
}

/** A named, string-typed table living in a [[TableRepo]]. */
final case class LakeTable(name: String, df: DataFrame) {
  def columns: Seq[String] = df.columns.toIndexedSeq
}

/** A source table: a string-typed DataFrame plus its (multi-attribute) key.
  *
  * The paper assumes the Source Table has a key (found by existing mining
  * techniques); benchmark generators know their keys by construction.
  */
final case class SourceTable(name: String, df: DataFrame, keys: Seq[String]) {
  require(keys.nonEmpty, s"source $name must declare a key")
  require(keys.forall(df.columns.contains), s"key $keys not in ${df.columns.toSeq}")
  def nonKeyColumns: Seq[String] = df.columns.toIndexedSeq.filterNot(keys.contains)
}

/** Parquet-backed table repository (the "data lake").
  *
  * Layout: `<root>/tables/<name>` one Parquet directory per table. Table
  * names are sanitized to be filesystem-safe. All tables are stringified
  * on write so readers always see the lake model.
  *
  * Each table is opened once per repo: `spark.read.parquet` lists the
  * directory and runs a schema-inference job, so `read` keeps the opened
  * table and later reads of the name return the same `DataFrame`. A
  * `write` through this repo drops the name's entry; a table rewritten
  * behind the repo's back is not seen until a new repo opens it.
  */
final class TableRepo(val root: String, spark: SparkSession) {
  private val fs = new java.io.File(root, "tables")
  private val opened = new java.util.concurrent.ConcurrentHashMap[String, LakeTable]()

  private def dir(name: String): java.io.File = {
    require(name.matches("[A-Za-z0-9_\\-]+"), s"unsafe table name: $name")
    new java.io.File(fs, name)
  }

  def write(name: String, df: DataFrame): Unit =
    try Lake.stringify(df).write.mode("overwrite").parquet(dir(name).toString)
    finally opened.remove(name)

  def read(name: String): LakeTable =
    opened.computeIfAbsent(name, n => LakeTable(n, spark.read.parquet(dir(n).toString)))

  def exists(name: String): Boolean = dir(name).exists()

  def tableNames: Seq[String] =
    Option(fs.listFiles()).map(_.toIndexedSeq.filter(_.isDirectory).map(_.getName).sorted)
      .getOrElse(Seq.empty)

  def allTables: Seq[LakeTable] = tableNames.map(read)
}

object TableRepo {
  def apply(root: String, spark: SparkSession): TableRepo = new TableRepo(root, spark)

  /** Create a repo at `root` populated with `tables` (overwrites). */
  def create(root: String, spark: SparkSession, tables: Map[String, DataFrame]): TableRepo = {
    val repo = new TableRepo(root, spark)
    tables.foreach { case (n, df) => repo.write(n, df) }
    repo
  }
}
