package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import repro.core.KeyedRows
import repro.lake.SourceTable

/** Shared test fixtures, including the paper's running example
  * (Figure 3): Source Table with applicants' information and lake tables
  * A–D from which it may originate. Table C contradicts the Source's
  * Gender column; Tables A, B, D integrate to the Source exactly.
  */
object Fixtures {

  def stringDf(spark: SparkSession, cols: Seq[String], rows: Seq[Seq[String]]): DataFrame = {
    val schema = StructType(cols.map(c => StructField(c, StringType, nullable = true)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(Row.fromSeq(_)), 1), schema)
  }

  /** `df` and `source` on the driver, `df` padded to the source's
    * columns: the kernel tables that `Metrics.all` scores.
    */
  def onDriver(df: DataFrame, source: SourceTable): (KeyedRows.Table, KeyedRows.Source) = {
    val (src, Seq(t)) = KeyedRows.collect(source, Seq(df))
    (KeyedRows.padTo(t, src.table.columns), src)
  }

  private val N: String = null

  /** Figure 3's Source Table (key = ID). */
  def figure3Source(spark: SparkSession): SourceTable = SourceTable(
    "fig3_source",
    stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(
        Seq("0", "Smith", "27", N, "Bachelors"),
        Seq("1", "Brown", "24", "Male", "Masters"),
        Seq("2", "Wang", "32", "Female", "HighSchool"))),
    Seq("ID"))

  /** Table A: ID, Name, Education (Brown's education nullified). */
  def tableA(spark: SparkSession): DataFrame = stringDf(spark,
    Seq("ID", "Name", "Education"),
    Seq(
      Seq("0", "Smith", "Bachelors"),
      Seq("1", "Brown", N),
      Seq("2", "Wang", "HighSchool")))

  /** Table B: Name, Age (no key column — needs Expand). */
  def tableB(spark: SparkSession): DataFrame = stringDf(spark,
    Seq("Name", "Age"),
    Seq(
      Seq("Smith", "27"),
      Seq("Brown", "24"),
      Seq("Wang", "32")))

  /** Table C: Name, Gender — contradicts the Source (all Male). */
  def tableC(spark: SparkSession): DataFrame = stringDf(spark,
    Seq("Name", "Gender"),
    Seq(
      Seq("Smith", "Male"),
      Seq("Brown", "Male"),
      Seq("Wang", "Male")))

  /** Table D: Name, Age, Gender, Education (partly nullified). */
  def tableD(spark: SparkSession): DataFrame = stringDf(spark,
    Seq("Name", "Age", "Gender", "Education"),
    Seq(
      Seq("Smith", "27", N, N),
      Seq("Brown", "24", "Male", "Masters"),
      Seq("Wang", "32", "Female", N)))

  /** Ŝ1 of Example 6 (integration that filled the Source's null with
    * "Male" and over-combined Wang).
    */
  def sHat1(spark: SparkSession): DataFrame = stringDf(spark,
    Seq("ID", "Name", "Age", "Gender", "Education"),
    Seq(
      Seq("0", "Smith", "27", "Male", "Bachelors"),
      Seq("1", "Brown", "24", "Male", "Masters"),
      Seq("2", "Wang", "32", "Female", N),
      Seq("2", "Wang", "32", "Male", "HighSchool")))

  /** Ŝ2 of Example 6 (outer-join order that kept tuples apart). */
  def sHat2(spark: SparkSession): DataFrame = stringDf(spark,
    Seq("ID", "Name", "Age", "Gender", "Education"),
    Seq(
      Seq("0", "Smith", N, N, "Bachelors"),
      Seq("0", "Smith", "27", N, N),
      Seq("0", "Smith", N, "Male", "Bachelors"),
      Seq("1", "Brown", N, N, N),
      Seq("1", "Brown", "24", "Male", "Masters"),
      Seq("1", "Brown", N, "Male", N),
      Seq("2", "Wang", N, N, "HighSchool"),
      Seq("2", "Wang", "32", "Female", N),
      Seq("2", "Wang", N, "Male", "HighSchool")))
}
