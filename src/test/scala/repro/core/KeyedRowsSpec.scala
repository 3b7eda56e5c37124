package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Fixtures, SparkSpec}
import repro.core.KeyedRows.{Source, Table}
import repro.discovery.MatrixTraversal
import repro.lake.SourceTable

/** The driver-side kernel on edge inputs, against the DataFrame EIS, and
  * §V-A3's claim that a table's matrix simulates its EIS.
  */
class KeyedRowsSpec extends SparkSpec {

  private val N: String = null
  private val cols = Vector("k", "a", "b")

  private def check(prop: Prop, min: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  /** Integrate `tables` into `sourceRows` on the kernel; check that the
    * kernel's EIS of every input and of the output equals
    * [[Similarity.eis]], and return the output rows.
    */
  private def integrateChecked(
      sourceRows: Seq[Seq[String]], tables: Seq[Table]): Set[Seq[String]] = {
    val s = SourceTable("s", Fixtures.stringDf(spark, cols, sourceRows), Seq("k"))
    val src = Source(Table(cols, sourceRows), s.keys)
    val out = Integration.integrate(tables, src)
    (tables :+ out).foreach { t =>
      val want = Similarity.eis(KeyedRows.toDf(t, spark), s)
      assert(math.abs(KeyedRows.eis(t, src) - want) < 1e-12, s"${t.rows}: EIS $want")
    }
    out.rows.toSet
  }

  test("a source that repeats a key tuple: EIS and integration") {
    val out = integrateChecked(
      Seq(Seq("1", "x", "y"), Seq("1", "x", "z"), Seq("2", "p", N)),
      Seq(Table(Vector("k", "a"), Seq(Seq("1", "x"), Seq("2", "p"))),
          Table(Vector("k", "b"), Seq(Seq("1", "y"), Seq("2", "q")))))
    // κ merges each key's two tuples: the merge scores as the tuples it
    // replaces (key 1 matches its first source row, key 2 trades a match
    // for an error), so the guard accepts it.
    assert(out == Set(Seq("1", "x", "y"), Seq("2", "p", "q")))
  }

  test("a source with an all-null non-key column: EIS and integration") {
    val out = integrateChecked(
      Seq(Seq("1", "x", N), Seq("2", "y", N)),
      Seq(Table(cols, Seq(Seq("1", "x", N), Seq("2", "y", "e"))),
          Table(Vector("k", "a"), Seq(Seq("1", "x"), Seq("2", N)))))
    // The shared null of key 1 is kept (labeled, it subsumes the padded
    // tuple of the second table); key 2 keeps its erroneous b.
    assert(out == Set(Seq("1", "x", N), Seq("2", "y", "e")))
  }

  test("collect brings the source and each table with its own columns") {
    val source = Fixtures.figure3Source(spark)
    val (src, Seq(a, b)) = KeyedRows.collect(source,
      Seq(Fixtures.tableA(spark), Fixtures.tableB(spark).select("Age", "Name")))
    assert(src.table.columns == source.df.columns.toSeq && src.size == 3)
    assert(a.columns == Seq("ID", "Name", "Education") && a.rows.size == 3)
    assert(b.columns == Seq("Age", "Name") && b.rows.contains(Seq("27", "Smith")))
    assert(KeyedRows.toDf(a, spark).collect().toSet == Fixtures.tableA(spark).collect().toSet)
  }

  test("a table's matrix evaluates to its EIS (§V-A3, one table)") {
    val cell = Gen.oneOf(N, "a", "b")
    val nonKey = Vector("x", "y", "z")
    val sourceGen = for {
      keys <- Gen.someOf(0 to 5).suchThat(_.nonEmpty)
      rows <- Gen.sequence[Seq[Seq[String]], Seq[String]](
        keys.map(k => Gen.listOfN(nonKey.size, cell).map(k.toString +: _)))
    } yield Table("k" +: nonKey, rows)
    val tableGen = for {
      tCols <- Gen.someOf(nonKey).map(c => ("k" +: c).toIndexedSeq)
      n <- Gen.choose(0, 12)
      rows <- Gen.listOfN(n, Gen.sequence[Seq[String], String](tCols.map {
        case "k" => Gen.oneOf(N, "0", "1", "2", "6")
        case _ => cell
      }))
    } yield Table(tCols, rows)
    val cfg = MatrixTraversal.Config()
    check(Prop.forAll(sourceGen, tableGen) { (s, t) =>
      // At most `rowsPerKeyCap` rows per key: the cap never drops a row.
      assert(t.rows.size <= cfg.rowsPerKeyCap)
      val src = Source(s, Seq("k"))
      val m = MatrixTraversal.initMatrices(Seq("t" -> t), src, cfg)("t")
      math.abs(MatrixTraversal.evaluate(m, src.size, nonKey.size) - KeyedRows.eis(t, src)) < 1e-12
    })
  }
}
