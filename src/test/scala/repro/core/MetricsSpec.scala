package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Fixtures, JobCounter, SparkSpec}

/** Recall/Precision, Instance Divergence, conditional KL (§VI-A2, App. E). */
class MetricsSpec extends SparkSpec {

  private val N: String = null
  private lazy val source = Fixtures.figure3Source(spark)

  private def recallPrecision(df: DataFrame): (Double, Double) =
    (Metrics.recallPrecision _).tupled(Fixtures.onDriver(df, source))

  private def conditionalKl(df: DataFrame): Double =
    (Metrics.conditionalKl _).tupled(Fixtures.onDriver(df, source))

  test("perfect reclamation: Rec = Pre = 1, Inst-Div reflects source nulls, KL = 0") {
    val s = Metrics.all(source.df, source)
    assert(s.recall == 1.0 && s.precision == 1.0)
    assert(s.perfect)
    assert(math.abs(s.kl) < 1e-9)
  }

  test("recall counts exact tuple matches only") {
    val partial = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(
        Seq("1", "Brown", "24", "Male", "Masters"), // exact
        Seq("2", "Wang", "32", "Female", "WRONG") // differs in one cell
      ))
    val (rec, pre) = recallPrecision(partial)
    assert(math.abs(rec - 1.0 / 3) < 1e-9)
    assert(math.abs(pre - 1.0 / 2) < 1e-9)
  }

  test("precision penalizes extra tuples") {
    val extra = source.df.unionByName(Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(Seq("9", "X", "1", "M", "None"))))
    val (rec, pre) = recallPrecision(extra)
    assert(rec == 1.0)
    assert(math.abs(pre - 3.0 / 4) < 1e-9)
  }

  test("recall/precision use set semantics (duplicates collapse)") {
    val dup = source.df.unionByName(source.df)
    val (rec, pre) = recallPrecision(dup)
    assert(rec == 1.0 && pre == 1.0)
  }

  test("null-containing tuples match null-safely") {
    val onlySmith = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(Seq("0", "Smith", "27", N, "Bachelors")))
    val (rec, _) = recallPrecision(onlySmith)
    assert(math.abs(rec - 1.0 / 3) < 1e-9)
  }

  test("instance divergence = 1 - instance similarity") {
    val v = Metrics.all(Fixtures.sHat1(spark), source).instDiv
    assert(math.abs(v - (1 - 0.8333333)) < 1e-6)
  }

  test("KL is zero for exact reclamation and positive for nulls") {
    val withNull = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(
        Seq("0", "Smith", "27", N, "Bachelors"),
        Seq("1", "Brown", N, "Male", "Masters"), // missing Age
        Seq("2", "Wang", "32", "Female", "HighSchool")))
    val klPerfect = conditionalKl(source.df)
    val klNull = conditionalKl(withNull)
    assert(math.abs(klPerfect) < 1e-9)
    assert(klNull > klPerfect)
  }

  test("KL penalizes erroneous values above nulls (App. E)") {
    def variant(age: String) = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(
        Seq("0", "Smith", "27", N, "Bachelors"),
        Seq("1", "Brown", age, "Male", "Masters"),
        Seq("2", "Wang", "32", "Female", "HighSchool")))
    assert(conditionalKl(variant("99")) > conditionalKl(variant(N)))
  }

  test("KL reports the no-keys sentinel when nothing aligns") {
    val nothing = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(Seq("42", "Zed", "1", "M", "PhD")))
    assert(conditionalKl(nothing) == Metrics.KlNoKeys)
  }

  test("KL grows as fewer source keys are covered (Q(K) division)") {
    def cover(rows: Seq[Seq[String]]) =
      conditionalKl(Fixtures.stringDf(spark,
        Seq("ID", "Name", "Age", "Gender", "Education"), rows))
    val oneNullRow = Seq(Seq("1", N, N, N, N))
    val twoNullRows = oneNullRow :+ Seq("2", N, N, N, N)
    // Same per-key term, but covering fewer keys divides by a smaller Q(K).
    assert(cover(oneNullRow) > cover(twoNullRows))
  }

  test("empty output: recall 0, precision 0, EIS 0, KL sentinel") {
    val s = Metrics.all(source.df.limit(0), source)
    assert(s == Metrics.Scores(0.0, 0.0, 1.0, Metrics.KlNoKeys, 0.0, 0L, 15L))
    assert(!s.perfect)
  }

  test("scores report output/source cell counts") {
    val s = Metrics.all(source.df, source)
    assert(s.outputCells == 15 && s.sourceCells == 15)
    assert(math.abs(s.sizeRatio - 1.0) < 1e-9)
  }

  test("Metrics.all submits at most one Spark job: the collect") {
    // Jobs as the benchmark runs them: without adaptive execution, which
    // submits one job per query stage.
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try {
      val (s, jobs) = JobCounter(spark)(Metrics.all(Fixtures.sHat2(spark), source))
      assert(math.abs(s.eis - 0.9166667) < 1e-6, s"got $s")
      assert(jobs <= 1, s"$jobs jobs")
    } finally spark.conf.set("spark.sql.adaptive.enabled", aqe)
  }
}
