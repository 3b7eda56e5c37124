package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.{Fixtures, JobCounter, SparkSpec}
import repro.core.{KeyedRows, Metrics}
import repro.discovery.Expand
import repro.lake.SourceTable

/** ALITE / ALITE-PS / Auto-Pipeline* / Ver on the Figure 3 fixtures. */
class BaselinesSpec extends SparkSpec {

  private val N: String = null
  private lazy val source = Fixtures.figure3Source(spark)

  /** `t` expanded through A as Gen-T's candidates would be, as a frame. */
  private def throughA(t: DataFrame): DataFrame = {
    val Seq(tt, a) = KeyedRows.collectRows(Seq(t, Fixtures.tableA(spark)), "fixtures")
    KeyedRows.toDf(Expand.joinCoalesce(tt, a, "Name"), spark)
  }

  /** Candidates as the baselines receive them: renamed to source columns
    * (A keyed; D expanded through A).
    */
  private def inputs: Seq[DataFrame] = Seq(Fixtures.tableA(spark), throughA(Fixtures.tableD(spark)))

  test("ALITE integrates everything via FD (target-agnostic)") {
    val out = Alite.run(inputs).get
    val s = Metrics.all(out, source)
    assert(s.recall > 0.6, s"$s")
  }

  test("ALITE with the contradicting table C still carries C's values (low precision)") {
    val withC = inputs :+ throughA(Fixtures.tableC(spark))
    val out = Alite.run(withC).get
    val s = Metrics.all(out, source)
    val sClean = Metrics.all(Alite.run(inputs).get, source)
    assert(s.precision <= sClean.precision, s"$s vs $sClean")
  }

  test("ALITE-PS projects/selects before FD and keeps the source schema columns") {
    val out = Alite.runPs(inputs, source).get
    assert(out.columns.toSet.subsetOf(source.df.columns.toSet))
    val s = Metrics.all(out, source)
    assert(s.recall > 0.6, s"$s")
  }

  test("ALITE times out (None) above the FD row cap") {
    val big = spark.range(1000).selectExpr("cast(id as string) as ID", "'x' as Name")
    assert(Alite.run(Seq(big), Alite.Config(repro.core.Fd.Config(rowCap = 100))).isEmpty)
  }

  test("ALITE of an empty table list is None") {
    assert(Alite.run(Seq.empty).isEmpty)
    assert(Alite.runPs(Seq.empty, source).isEmpty)
  }

  test("Auto-Pipeline* synthesizes a pipeline that reclaims most of Figure 3") {
    val out = AutoPipelineStar.run(inputs, source, spark).get
    val s = Metrics.all(out, source)
    assert(s.recall >= 2.0 / 3, s"$s")
    assert(out.columns.toSeq == source.df.columns.toSeq)
  }

  test("Auto-Pipeline* times out above its row cap") {
    val big = spark.range(100).selectExpr("cast(id as string) as ID")
    assert(AutoPipelineStar.run(Seq(big), source, spark,
      AutoPipelineStar.Config(rowCap = 10)).isEmpty)
  }

  test("Auto-Pipeline* with misleading C scores below Gen-T-style pruning") {
    val withC = inputs :+ throughA(Fixtures.tableC(spark))
    val out = AutoPipelineStar.run(withC, source, spark).get
    val s = Metrics.all(out, source)
    assert(s.recall > 0.0)
  }

  test("Ver returns a table containing source tuples plus extras") {
    val out = Ver.run(inputs, source, spark).get
    val s = Metrics.all(out, source)
    assert(s.recall > 0.3, s"$s")
    assert(out.columns.toSeq == source.df.columns.toSeq)
  }

  test("Ver recall-oriented: keeps extra tuples, so precision can drop") {
    val extraRows = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age"),
      Seq(Seq("0", "Smith", "27"), Seq("1", "Brown", "24"),
        Seq("2", "Wang", "32"), Seq("9", "Extra", "99")))
    val out = Ver.run(Seq(extraRows), source, spark).get
    // The extra tuple (ID=9) must be retained in the output.
    assert(out.filter(out("ID") === "9").count() == 1)
  }

  test("Ver times out above its row cap") {
    val big = spark.range(100).selectExpr("cast(id as string) as ID")
    assert(Ver.run(Seq(big), source, spark, Ver.Config(rowCap = 10)).isEmpty)
  }

  test("Ver of an empty table list is None") {
    assert(Ver.run(Seq.empty, source, spark).isEmpty)
  }

  test("each baseline submits one Spark job: its capped collect") {
    val in = inputs
    // Without adaptive execution, which submits one job per query stage.
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try {
      val runs = Seq(
        "ALITE" -> JobCounter(spark)(Alite.run(in)),
        "ALITE-PS" -> JobCounter(spark)(Alite.runPs(in, source)),
        "Auto-Pipeline*" -> JobCounter(spark)(AutoPipelineStar.run(in, source, spark)),
        "Ver" -> JobCounter(spark)(Ver.run(in, source, spark)))
      assert(runs.forall(_._2._1.isDefined))
      assert(runs.map { case (m, (_, jobs)) => m -> jobs } == runs.map(_._1 -> 1))
    } finally spark.conf.set("spark.sql.adaptive.enabled", aqe)
  }
}
