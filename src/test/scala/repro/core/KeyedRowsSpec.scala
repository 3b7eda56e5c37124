package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Fixtures, Oracle, SparkSpec}
import repro.core.KeyedRows.{Source, Table}
import repro.discovery.MatrixTraversal
import repro.lake.SourceTable

/** The driver-side kernel on edge inputs; its scores against a DuckDB SQL
  * reference; and §V-A3's claim that a table's matrix simulates its EIS.
  */
class KeyedRowsSpec extends SparkSpec {

  private val N: String = null
  private val cols = Vector("k", "a", "b")

  private def check(prop: Prop, min: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  /** The scores of Ŝ = `out` against S = `source` with key `keys`, written
    * from their definitions as one DuckDB query: EIS (Eq. 3), instance
    * similarity (Eq. 2), recall and precision (set semantics, SQL's
    * INTERSECT), and the ε-smoothed conditional KL (DESIGN.md §3). Ŝ's
    * rows align with S's on equal, non-null key cells; a column Ŝ lacks
    * is null.
    */
  private def sqlScores(source: Table, keys: Seq[String], out: Table): Seq[Double] = {
    val nk = source.columns.filterNot(keys.contains)
    val n = math.max(1, nk.size)
    def sum(terms: Seq[String]): String = if (terms.isEmpty) "0" else terms.mkString(" + ")
    val padded = source.columns.map(c =>
      if (out.columns.contains(c)) c else s"CAST(NULL AS VARCHAR) AS $c").mkString(", ")
    val alpha = sum(nk.map(c => s"CASE WHEN s.$c IS NOT DISTINCT FROM r.$c THEN 1 ELSE 0 END"))
    val delta = sum(nk.map(c =>
      s"CASE WHEN r.$c IS NOT NULL AND s.$c IS DISTINCT FROM r.$c THEN 1 ELSE 0 END"))
    val shared = sum(nk.map(c => s"CASE WHEN s.$c = r.$c THEN 1 ELSE 0 END"))
    val pairCols = nk.flatMap(c => Seq(
      s"CASE WHEN s.$c IS NOT DISTINCT FROM r.$c THEN 1 ELSE 0 END AS x_$c",
      s"CASE WHEN r.$c IS NOT NULL AND s.$c IS DISTINCT FROM r.$c THEN 1 ELSE 0 END AS e_$c"))
    val eps = s"${Metrics.Eps}::DOUBLE"
    val klTerms = nk.map(c =>
      s"AVG(-(LN(GREATEST(q_$c, $eps)) + LN(GREATEST(1 - qe_$c, $eps))))").mkString(" + ")
    val kl =
      if (nk.isEmpty) "0::DOUBLE"
      else s"""CASE WHEN (SELECT COUNT(*) FROM perkey) = 0 THEN ${Metrics.KlNoKeys}::DOUBLE
              |  ELSE (SELECT $klTerms FROM perkey) / ((SELECT COUNT(*) FROM perkey)::DOUBLE
              |    / (SELECT COUNT(*) FROM (SELECT DISTINCT ${keys.mkString(", ")} FROM s)) * ${nk.size})
              |  END""".stripMargin
    val sql =
      s"""WITH s AS (SELECT * FROM src),
         |r AS (SELECT $padded FROM rhat),
         |pairs AS (
         |  SELECT ${(keys.map(k => s"s.$k AS key_$k") ++
                      Seq(s"($alpha) - ($delta) AS score", s"$shared AS shared") ++ pairCols).mkString(", ")}
         |  FROM s JOIN r ON ${keys.map(k => s"s.$k = r.$k").mkString(" AND ")}),
         |perkey AS (
         |  SELECT ${(Seq("MAX(score) AS best", "MAX(shared) AS shared") ++
                      nk.flatMap(c => Seq(s"AVG(x_$c) AS q_$c", s"AVG(e_$c) AS qe_$c"))).mkString(", ")}
         |  FROM pairs GROUP BY ${keys.map(k => s"key_$k").mkString(", ")}),
         |sizes AS (SELECT
         |  (SELECT COUNT(*) FROM s) AS s_rows,
         |  (SELECT COUNT(*) FROM (SELECT DISTINCT * FROM s)) AS s_set,
         |  (SELECT COUNT(*) FROM (SELECT DISTINCT * FROM r)) AS r_set,
         |  (SELECT COUNT(*) FROM (SELECT * FROM s INTERSECT SELECT * FROM r)) AS both_set)
         |SELECT
         |  CASE WHEN s_rows = 0 THEN 1::DOUBLE ELSE 0.5::DOUBLE
         |    * COALESCE((SELECT SUM(1::DOUBLE + best::DOUBLE / $n) FROM perkey), 0) / s_rows END AS eis,
         |  CASE WHEN s_rows = 0 THEN 1::DOUBLE
         |    ELSE COALESCE((SELECT SUM(shared::DOUBLE / $n) FROM perkey), 0) / s_rows END AS inst,
         |  CASE WHEN s_set = 0 THEN 1::DOUBLE ELSE both_set::DOUBLE / s_set END AS recall,
         |  CASE WHEN r_set = 0 THEN 0::DOUBLE ELSE both_set::DOUBLE / r_set END AS prec,
         |  $kl AS kl
         |FROM sizes""".stripMargin
    val (_, Seq(row)) = Oracle.query(sql,
      "src" -> KeyedRows.toDf(source, spark), "rhat" -> KeyedRows.toDf(out, spark))
    (0 until 5).map(i => row.get(i).asInstanceOf[Number].doubleValue)
  }

  /** Check [[Metrics.all]] of `out` against `source` on [[sqlScores]]:
    * EIS, instance similarity, recall and precision to 1e-12, KL to 1e-12
    * relative.
    */
  private def scoresChecked(source: Table, keys: Seq[String], out: Table): Boolean = {
    val got = Metrics.all(KeyedRows.toDf(out, spark),
      SourceTable("s", KeyedRows.toDf(source, spark), keys))
    val Seq(eis, inst, recall, precision, kl) = sqlScores(source, keys, out)
    val ok = Seq(got.eis - eis, 1.0 - got.instDiv - inst, got.recall - recall,
      got.precision - precision).forall(d => math.abs(d) < 1e-12) &&
      math.abs(got.kl - kl) <= 1e-12 * math.max(1.0, math.abs(kl))
    assert(ok, s"${out.columns} ${out.rows} against ${source.columns} ${source.rows}: " +
      s"kernel $got, SQL ${(eis, inst, recall, precision, kl)}")
    ok
  }

  /** Integrate `tables` into `sourceRows` on the kernel; check the kernel's
    * scores of every input and of the output against [[sqlScores]], and
    * return the output rows.
    */
  private def integrateChecked(
      sourceRows: Seq[Seq[String]], tables: Seq[Table]): Set[Seq[String]] = {
    val src = Source(Table(cols, sourceRows), Seq("k"))
    val out = Integration.integrate(tables, src)
    (tables :+ out).foreach(scoresChecked(src.table, src.keys, _))
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

  test("scores match the SQL reference on random S and Ŝ") {
    // Two key columns, so that Ŝ can lack one; S repeats key tuples, has
    // null key cells, and may be empty or have no non-key column; Ŝ may be
    // empty or lack any column.
    val keys = Vector("k", "j")
    val keyCell = Gen.frequency(1 -> Gen.const(N), 4 -> Gen.oneOf("0", "1", "2"))
    val cell = Gen.oneOf(N, "x", "y")
    def rows(columns: Seq[String], max: Int): Gen[Seq[Seq[String]]] =
      Gen.choose(0, max).flatMap(Gen.listOfN(_, Gen.sequence[Seq[String], String](
        columns.map(c => if (keys.contains(c)) keyCell else cell))))
    val pairGen = for {
      nonKey <- Gen.someOf("a", "b", "c")
      sCols = keys ++ nonKey
      sRows <- rows(sCols, 6)
      oCols <- Gen.atLeastOne(sCols).map(_.toIndexedSeq)
      oRows <- rows(oCols, 8)
    } yield (Table(sCols, sRows), Table(oCols, oRows))
    check(Prop.forAll(pairGen) { case (s, out) => scoresChecked(s, keys, out) })
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
