package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Fixtures, SparkSpec}
import repro.lake.SourceTable

/** EIS and instance similarity on the driver-side kernel — pinned to the
  * paper's Example 6 numbers.
  */
class SimilaritySpec extends SparkSpec {

  private lazy val source = Fixtures.figure3Source(spark)

  private def eis(df: DataFrame, s: SourceTable = source): Double =
    (KeyedRows.eis _).tupled(Fixtures.onDriver(df, s))

  private def instanceSimilarity(df: DataFrame): Double =
    (Metrics.instanceSimilarity _).tupled(Fixtures.onDriver(df, source))

  test("instance similarity of Ŝ1 is 0.833 (Example 6)") {
    val v = instanceSimilarity(Fixtures.sHat1(spark))
    assert(math.abs(v - 0.8333333) < 1e-6, s"got $v")
  }

  test("instance similarity of Ŝ2 is 0.75 (Example 6)") {
    val v = instanceSimilarity(Fixtures.sHat2(spark))
    assert(math.abs(v - 0.75) < 1e-6, s"got $v")
  }

  test("EIS of Ŝ1 is 0.875 (Example 6)") {
    val v = eis(Fixtures.sHat1(spark))
    assert(math.abs(v - 0.875) < 1e-6, s"got $v")
  }

  test("EIS of Ŝ2 is 0.917 (Example 6) — EIS favors nulls over errors") {
    val v = eis(Fixtures.sHat2(spark))
    assert(math.abs(v - 0.9166667) < 1e-6, s"got $v")
  }

  test("EIS of the source against itself is 1.0") {
    assert(math.abs(eis(source.df) - 1.0) < 1e-12)
  }

  test("instance similarity of the source against itself is 1.0 when no nulls, else < 1") {
    // figure3Source has one null (Smith's Gender): classic instance
    // similarity does not credit the shared null.
    val v = instanceSimilarity(source.df)
    assert(math.abs(v - (0.75 + 1.0 + 1.0) / 3) < 1e-6, s"got $v")
  }

  test("EIS of an empty reclamation is 0") {
    assert(eis(source.df.limit(0)) == 0.0)
  }

  test("EIS penalizes errors below omissions") {
    val err = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(Seq("1", "Brown", "99", "Male", "Masters")))
    val omit = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(Seq("1", "Brown", null, "Male", "Masters")))
    assert(eis(err) < eis(omit))
  }

  test("EIS takes the best aligned tuple per source tuple") {
    val multi = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(
        Seq("1", "Brown", "24", "Male", "Masters"), // perfect
        Seq("1", "XXX", "YYY", "ZZZ", "WWW") // garbage, same key
      ))
    // t1 contributes (1 + 4/4); t0, t2 contribute 0.
    val v = eis(multi)
    assert(math.abs(v - 0.5 * 2.0 / 3) < 1e-9, s"got $v")
  }

  test("alignment ignores reclaimed tuples whose key is absent from the source") {
    val extra = Fixtures.stringDf(spark,
      Seq("ID", "Name", "Age", "Gender", "Education"),
      Seq(Seq("7", "Nobody", "1", "X", "Y")))
    assert(eis(extra) == 0.0)
  }

  test("EIS with multi-attribute keys aligns on all key columns") {
    val src = SourceTable("mk", Fixtures.stringDf(spark,
      Seq("k1", "k2", "v"),
      Seq(Seq("a", "1", "x"), Seq("a", "2", "y"))), Seq("k1", "k2"))
    val half = Fixtures.stringDf(spark,
      Seq("k1", "k2", "v"), Seq(Seq("a", "1", "x")))
    assert(math.abs(eis(half, src) - 0.5) < 1e-9)
  }
}
