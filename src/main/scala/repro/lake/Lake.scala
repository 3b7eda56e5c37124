package repro.lake

import org.apache.hadoop.fs.Path
import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{And, AttributeReference, BoundReference, Expression, Literal, Predicate}
import org.apache.spark.sql.execution.datasources.{FileIndex, HadoopFsRelation, LogicalRelation, PartitionDirectory}
import org.apache.spark.sql.execution.datasources.parquet.ParquetFileFormat
import org.apache.spark.sql.types.{IntegerType, StringType, StructField, StructType}
import repro.core.KeyedRows

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

  /** The table's files, as listed when `df` was opened. */
  def files: FileIndex = df.queryExecution.analyzed.collectFirst {
    case l: LogicalRelation => l.relation
  }.collect { case r: HadoopFsRelation => r.location }
    .getOrElse(throw new IllegalStateException(s"table $name is not read from files"))
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

  /** The tables of `reads` as one tagged relation for
    * [[KeyedRows.collectTagged]]: read i is table i, its rows that `where`
    * keeps, on its `columns`. One Parquet scan reads up to
    * [[TableRepo.TablesPerScan]] tables, under the union of their schemas
    * (a column name once, whatever its case, when names resolve
    * case-insensitively), over the files each table's [[read]] listed when
    * it was opened, with table i's files as the partition `__tag` = i
    * ([[TableRepo.TableFiles]]): a scan lists no directory, and its rows
    * carry their tag as a constant of their file. More tables are a union
    * of such scans, collected in the same job. A table appears in at most
    * one read.
    */
  def scan(reads: Seq[TableRepo.Read]): KeyedRows.Tagged = {
    require(reads.map(_.table).distinct.size == reads.size, s"a table read twice: ${reads.map(_.table)}")
    val conf = spark.sessionState.conf
    val chunks = reads.zipWithIndex.grouped(TableRepo.TablesPerScan).map { chunk =>
      val tables = chunk.map { case (r, _) => read(r.table) }
      val fields = tables.flatMap(_.df.schema.fields)
      val schema = StructType(fields.distinctBy(f => if (conf.caseSensitiveAnalysis) f.name
        else f.name.toLowerCase(java.util.Locale.ROOT)))
      require(!schema.exists(f => TableRepo.TableFiles.schema.exists(_.name.equalsIgnoreCase(f.name))),
        s"a column of ${chunk.map(_._1.table)} is named ${TableRepo.TableFiles.Tag}")
      val files = new TableRepo.TableFiles(tables.map(_.files).zip(chunk.map(_._2)))
      val df = spark.baseRelationToDataFrame(HadoopFsRelation(files, files.partitionSchema, schema,
        None, new ParquetFileFormat, Map.empty)(spark))
      val tag = df.col(TableRepo.TableFiles.Tag)
      val (r0, i0) = chunk.head
      df.where(chunk.map { case (r, i) => tag === i && r.where }.reduce(_ || _))
        .select(tag.as("__tag"), chunk.tail.foldLeft(when(tag === i0, KeyedRows.cells(r0.columns.map(col)))) {
          case (c, (r, i)) => c.when(tag === i, KeyedRows.cells(r.columns.map(col)))
        }.as("__cells"))
    }.toSeq
    KeyedRows.Tagged(reads.map(_.columns.toIndexedSeq).toIndexedSeq, chunks.reduceOption(_ union _))
  }

  def exists(name: String): Boolean = dir(name).exists()

  def tableNames: Seq[String] =
    Option(fs.listFiles()).map(_.toIndexedSeq.filter(_.isDirectory).map(_.getName).sorted)
      .getOrElse(Seq.empty)

  def allTables: Seq[LakeTable] = tableNames.map(read)
}

object TableRepo {
  def apply(root: String, spark: SparkSession): TableRepo = new TableRepo(root, spark)

  /** Most tables one Parquet scan of [[TableRepo.scan]] reads. Its filter
    * holds every table's predicate, so whole-stage code generation
    * compiles them into one method, which HotSpot leaves uncompiled past
    * 8,000 bytes of bytecode: on TP-TR Med q15, Set Similarity's 24
    * verification tables took 2.4–3.2 s in one scan, 0.7–1.3 s in scans of
    * 8 and 1.3–1.9 s in scans of one (4 cores).
    */
  val TablesPerScan = 8

  /** Several opened tables' files as one file index, each table's files a
    * partition of its own: `tables` pairs a table's index with its tag, the
    * partition's int value of `__tag`. Listing it lists nothing anew: the
    * tables' indexes hold the files they listed when opened.
    */
  final class TableFiles(tables: Seq[(FileIndex, Int)]) extends FileIndex {
    override def partitionSchema: StructType = TableFiles.schema
    override def rootPaths: Seq[Path] = tables.flatMap(_._1.rootPaths)
    override def inputFiles: Array[String] = tables.flatMap(_._1.inputFiles).toArray
    override def refresh(): Unit = tables.foreach(_._1.refresh())
    override def sizeInBytes: Long = tables.map(_._1.sizeInBytes).sum

    /** The tables whose tag passes `partitionFilters`; Spark does not
      * evaluate those again on the rows.
      */
    override def listFiles(partitionFilters: Seq[Expression], dataFilters: Seq[Expression]): Seq[PartitionDirectory] = {
      val keep = Predicate.createInterpreted(partitionFilters.reduceOption(And).getOrElse(Literal.TrueLiteral)
        .transform { case _: AttributeReference => BoundReference(0, IntegerType, nullable = false) })
      tables.map { case (t, i) => InternalRow(i) -> t }.filter { case (row, _) => keep.eval(row) }
        .map { case (row, t) => PartitionDirectory(row, t.listFiles(Nil, Nil).flatMap(_.files)) }
    }
  }

  object TableFiles {
    val Tag = "__tag"
    val schema: StructType = StructType(Seq(StructField(Tag, IntegerType, nullable = false)))
  }

  /** One table of a [[TableRepo.scan]]: its rows that `where` keeps, on
    * `columns`, both named as in the table.
    */
  final case class Read(table: String, where: Column, columns: Seq[String])

  /** Create a repo at `root` populated with `tables` (overwrites). */
  def create(root: String, spark: SparkSession, tables: Map[String, DataFrame]): TableRepo = {
    val repo = new TableRepo(root, spark)
    tables.foreach { case (n, df) => repo.write(n, df) }
    repo
  }
}
