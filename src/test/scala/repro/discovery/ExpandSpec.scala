package repro.discovery

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Fixtures, Oracle, SparkSpec}
import repro.core.KeyedRows
import repro.core.KeyedRows.{Source, Table}

/** Expand (Algorithm 5): giving keyless candidates the source key. */
class ExpandSpec extends SparkSpec {

  private val N: String = null
  private lazy val source: Source = KeyedRows.collect(Fixtures.figure3Source(spark), Seq.empty)._1

  /** Fixture frames as Gen-T's collect brings them to the driver. */
  private def collected(dfs: DataFrame*): Seq[Table] = KeyedRows.collectRows(dfs, "fixtures")

  private def cell(t: Table, row: Seq[String], c: String): String = row(t.columns.indexOf(c))

  private def bag(rows: Seq[Seq[String]]) = rows.groupBy(identity).view.mapValues(_.size).toMap

  test("keyed candidates pass through unchanged") {
    val Seq(a) = collected(Fixtures.tableA(spark))
    val out = Expand.expandAll(Seq("A" -> a), source)
    assert(out.map(_.name) == Seq("A"))
    assert(out.head.parts == Seq("A"))
    assert(out.head.table == a)
  }

  test("keyless candidate joins through a keyed one on the best column") {
    val Seq(a, b) = collected(Fixtures.tableA(spark), Fixtures.tableB(spark))
    assert(Expand.weights(a, b) == Map("Name" -> 1.0))
    val out = Expand.expandAll(Seq("A" -> a, "B" -> b), source)
    val expandedB = out.find(_.parts.contains("B")).get.table
    assert(expandedB.columns.contains("ID"))
    assert(expandedB.rows.size == 3)
    val row = expandedB.rows.find(cell(expandedB, _, "Name") == "Smith").get
    assert(cell(expandedB, row, "Age") == "27")
    assert(cell(expandedB, row, "ID") == "0")
  }

  test("keyless candidate with no join path is dropped") {
    val Seq(a, lonely) = collected(Fixtures.tableA(spark),
      Fixtures.stringDf(spark, Seq("Other"), Seq(Seq("zzz"))))
    val out = Expand.expandAll(Seq("A" -> a, "L" -> lonely), source)
    assert(out.map(_.name) == Seq("A"))
  }

  test("joinCoalesce merges duplicate columns without dropping null-mismatched rows") {
    // A is (ID, Name, Education); D is (Name, Age, Gender, Education).
    val Seq(a, d) = collected(Fixtures.tableA(spark), Fixtures.tableD(spark))
    val j = Expand.joinCoalesce(d, a, "Name")
    assert(j.rows.size == 3)
    val wang = j.rows.find(cell(j, _, "Name") == "Wang").get
    // D has null Education for Wang; A supplies HighSchool via coalesce.
    assert(cell(j, wang, "Education") == "HighSchool")
    val brown = j.rows.find(cell(j, _, "Name") == "Brown").get
    // D has Masters, A has null: left side wins.
    assert(cell(j, brown, "Education") == "Masters")
  }

  test("joinCoalesce fails above the driver-side bound before building a row") {
    val l = Table(IndexedSeq("k", "a"), Seq.fill(1001)(Seq("1", "x")))
    val r = Table(IndexedSeq("k", "b"), Seq.fill(1000)(Seq("1", "y")) :+ Seq(N, "z"))
    val e = intercept[IllegalStateException](Expand.joinCoalesce(l, r, "k"))
    assert(e.getMessage.contains("1001000 rows"))
  }

  test("path of length three reaches the key through an intermediate table") {
    val a = Table(Vector("ID", "X"), Seq(Seq("0", "x0"), Seq("1", "x1")))
    val mid = Table(Vector("X", "Y"), Seq(Seq("x0", "y0"), Seq("x1", "y1")))
    val far = Table(Vector("Y", "Z"), Seq(Seq("y0", "z0"), Seq("y1", "z1")))
    val src = Source(Table(Vector("ID", "X", "Y", "Z"), Seq(Seq("0", "x0", "y0", "z0"))), Seq("ID"))
    val out = Expand.expandAll(Seq("A" -> a, "M" -> mid, "F" -> far), src)
    val expandedFar = out.find(_.parts.contains("F"))
    assert(expandedFar.isDefined, s"got ${out.map(_.name)}")
    assert(expandedFar.get.table.columns.contains("ID"))
    assert(expandedFar.get.table.rows.size == 2)
  }

  test("a tie between join columns goes to the one the source lists first") {
    // K and L share P and Q, both of weight 1, listed Q first in each
    // table; S lists P first. Joined on P, L's v0 row meets ID 1 (on Q
    // it would meet ID 0).
    val k = Table(Vector("ID", "Q", "P"), Seq(Seq("0", "q0", "p0"), Seq("1", "q1", "p1")))
    val l = Table(Vector("Q", "P", "V"), Seq(Seq("q0", "p1", "v0"), Seq("q1", "p0", "v1")))
    val src = Source(Table(Vector("ID", "P", "Q", "V"), Seq.empty), Seq("ID"))
    assert(Expand.weights(k, l) == Map("Q" -> 1.0, "P" -> 1.0))
    for (tables <- Seq(Seq("K" -> k, "L" -> l), Seq("L" -> l, "K" -> k))) {
      val t = Expand.expandAll(tables, src).find(_.name == "L+K").get.table
      assert(t.columns == Vector("Q", "P", "V", "ID"))
      assert(t.rows.toSet == Set(Seq("q0", "p1", "v0", "1"), Seq("q1", "p0", "v1", "0")),
        s"tables in order ${tables.map(_._1)}")
    }
  }

  /** Tables over `shared` columns (values 0–2 or null) and some of `own`
    * (x, y or null), columns in any order, with duplicate rows.
    */
  private def table(shared: Seq[String], own: Seq[String]): Gen[Table] = {
    val keyCell = Gen.frequency(1 -> Gen.const(N), 4 -> Gen.oneOf("0", "1", "2"))
    val cell = Gen.oneOf(N, "x", "y")
    for {
      cols <- Gen.someOf(own).flatMap(o => Gen.oneOf((shared ++ o).permutations.toSeq))
      rows <- Gen.choose(0, 6).flatMap(Gen.listOfN(_, Gen.sequence[Seq[String], String](
        cols.map(c => if (shared.contains(c)) keyCell else cell))))
      dups <- Gen.choose(0, rows.size)
    } yield Table(cols.toIndexedSeq, rows ++ rows.take(dups))
  }

  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }

  test("joinCoalesce matches DuckDB's inner join with COALESCE on random tables") {
    // Join on k; 0–2 more shared columns, coalesced; null join cells and
    // duplicate keys and rows on both sides.
    val gen = for {
      extra <- Gen.someOf("j", "h")
      l <- table("k" +: extra.toSeq, Seq("a", "b"))
      r <- table("k" +: extra.toSeq, Seq("c", "d"))
    } yield (l, r)
    check(Prop.forAll(gen) { case (l, r) =>
      val select = l.columns.map(c =>
        if (c != "k" && r.columns.contains(c)) s"COALESCE(lt.$c, rt.$c) AS $c" else s"lt.$c AS $c") ++
        r.columns.filterNot(l.columns.contains).map(c => s"rt.$c AS $c")
      val (dCols, dRows) = Oracle.query(
        s"SELECT ${select.mkString(", ")} FROM lt INNER JOIN rt ON lt.k = rt.k",
        "lt" -> KeyedRows.toDf(l, spark), "rt" -> KeyedRows.toDf(r, spark))
      val got = Expand.joinCoalesce(l, r, "k")
      got.columns == dCols &&
        bag(got.rows) == bag(dRows.map(row => dCols.indices.map(i => row.getString(i))))
    })
  }

  test("Expand's weights match SQL's COUNT(DISTINCT) overlap over min size") {
    val gen = for {
      shared <- Gen.oneOf(Seq("k"), Seq("k", "j"), Seq("k", "j", "h"))
      a <- table(shared, Seq("a", "b"))
      b <- table(shared, Seq("a", "c"))
    } yield (a, b)
    check(Prop.forAll(gen) { case (a, b) =>
      val shared = a.columns.filter(b.columns.contains)
      val sql = shared.map { c =>
        s"SELECT '$c' AS col, CAST(COUNT(DISTINCT lt.$c) AS DOUBLE) / GREATEST(1, LEAST(" +
          s"(SELECT COUNT(DISTINCT $c) FROM lt), (SELECT COUNT(DISTINCT $c) FROM rt))) AS w " +
          s"FROM lt JOIN rt ON lt.$c = rt.$c"
      }.mkString("SELECT col, w FROM (", " UNION ALL ", ") WHERE w > 0")
      val (_, dRows) = Oracle.query(sql, "lt" -> KeyedRows.toDf(a, spark), "rt" -> KeyedRows.toDf(b, spark))
      Expand.weights(a, b) == dRows.map(r => r.getString(0) -> r.getDouble(1)).toMap
    })
  }
}
