package repro.core

import repro.{Fixtures, SparkSpec}
import repro.core.KeyedRows.Table
import repro.discovery.Expand
import repro.lake.SourceTable

/** Table Integration (Algorithm 2) on the driver-side kernel. */
class IntegrationSpec extends SparkSpec {

  private val N: String = null
  private lazy val source = Fixtures.figure3Source(spark)

  /** S and the named Figure 3 tables, collected and expanded on the driver. */
  private def integrate(names: String*): (KeyedRows.Source, Table) = {
    val all = Map(
      "A" -> Fixtures.tableA(spark), "B" -> Fixtures.tableB(spark),
      "C" -> Fixtures.tableC(spark), "D" -> Fixtures.tableD(spark))
    val (src, tabs) = KeyedRows.collect(source, names.map(all))
    (src, Integration.integrate(Expand.expandAll(names.zip(tabs), src).map(_.table), src))
  }

  private def cell(t: Table, row: Seq[String], c: String): String = row(t.columns.indexOf(c))

  test("labeledSource replaces nulls with deterministic tokens") {
    val (src, _) = KeyedRows.collect(source, Seq.empty)
    val lab = Integration.labeledSource(src).table
    val smith = lab.rows.find(cell(lab, _, "ID") == "0").get
    val g = cell(lab, smith, "Gender")
    assert(g != null && g.startsWith(Integration.NullLabelPrefix))
    // Non-null cells unchanged.
    assert(cell(lab, smith, "Name") == "Smith")
  }

  test("labelNulls labels only cells null in BOTH table and source") {
    // Brown's Education is null in A; S has Masters.
    val (src, Seq(a)) = KeyedRows.collect(source, Seq(Fixtures.tableA(spark)))
    val lab = Integration.labelNulls(a, src)
    val brown = lab.rows.find(cell(lab, _, "Name") == "Brown").get
    // S has Masters there → stays a real null (so κ can fill it later).
    assert(cell(lab, brown, "Education") == null)
  }

  test("labelNulls labels a shared null so it cannot be over-combined") {
    val (src, Seq(d, a)) = KeyedRows.collect(source, Seq(Fixtures.tableD(spark), Fixtures.tableA(spark)))
    val dt = Expand.joinCoalesce(d, a, "Name")
    val lab = Integration.labelNulls(dt, src)
    val smith = lab.rows.find(cell(lab, _, "Name") == "Smith").get
    val g = cell(lab, smith, "Gender")
    // D's Smith Gender is null and S's is null → labeled.
    assert(g != null && g.startsWith(Integration.NullLabelPrefix))
  }

  test("removeLabeledNulls restores nulls and only nulls") {
    val (src, _) = KeyedRows.collect(source, Seq.empty)
    val back = Integration.removeLabeledNulls(Integration.labeledSource(src).table)
    assert(back == src.table)
  }

  test("integrating A, B, D reclaims the Figure 3 source exactly") {
    val (src, out) = integrate("A", "B", "D")
    assert(out.rows.toSet == src.table.rows.toSet)
  }

  test("integrating A and D alone also reclaims the source exactly") {
    val (src, out) = integrate("A", "D")
    assert(out.rows.toSet == src.table.rows.toSet)
  }

  test("integrating with contradicting C keeps erroneous tuples separate, not merged") {
    val (src, out) = integrate("A", "B", "C", "D")
    // Every source tuple must still be reclaimed exactly (EIS guard keeps
    // the correct tuples); extra C-derived tuples may exist.
    val outRows = out.rows.toSet
    src.table.rows.foreach(r => assert(outRows.contains(r), s"missing $r"))
  }

  test("integration output always has the source schema") {
    val (_, out) = integrate("A")
    assert(out.columns == source.df.columns.toSeq)
  }

  test("integration of an empty table set is the empty source-shaped table") {
    val (src, _) = KeyedRows.collect(source, Seq.empty)
    val out = Integration.integrate(Seq.empty, src)
    assert(out.columns == source.df.columns.toSeq)
    assert(out.rows.isEmpty)
  }

  test("conditional subsumption does not remove a tuple that matches a source null") {
    // Source row (1, x, ⊥); tables offer (1, x, ⊥) [correct] and (1, x, y)
    // [over-complete]. Without null labeling, β would subsume the correct
    // tuple away; the guard must keep a tuple matching the source exactly.
    val src = SourceTable("s",
      Fixtures.stringDf(spark, Seq("k", "a", "b"), Seq(Seq("1", "x", N))), Seq("k"))
    val tGood = Fixtures.stringDf(spark, Seq("k", "a", "b"), Seq(Seq("1", "x", N)))
    val tOver = Fixtures.stringDf(spark, Seq("k", "a", "b"), Seq(Seq("1", "x", "y")))
    val (s, tabs) = KeyedRows.collect(src, Seq(tGood, tOver))
    val rows = Integration.integrate(tabs, s).rows.toSet
    assert(rows.contains(Seq("1", "x", null)), s"got $rows")
  }
}
