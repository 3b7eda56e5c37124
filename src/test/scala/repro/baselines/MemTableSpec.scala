package repro.baselines

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Fixtures, Oracle, SparkSpec}
import repro.core.KeyedRows
import repro.core.KeyedRows.{Source, Table, outerUnion, padTo, projectSelect}

/** The driver-side table operators of Auto-Pipeline* and Ver: the capped
  * collect, [[NaturalJoin]], and the [[KeyedRows]] union, projection and
  * ProjectSelect they call, followed by `distinct` as the baselines do.
  */
class MemTableSpec extends SparkSpec {

  private val N: String = null
  private val t1 = Table(Vector("k", "a"), Vector(Vector("1", "a1"), Vector("2", "a2")))
  private val t2 = Table(Vector("k", "b"), Vector(Vector("2", "b2"), Vector("3", "b3")))

  test("collectRows/toDf round-trip preserves rows and nulls") {
    val df = Fixtures.stringDf(spark, Seq("k", "a"), Seq(Seq("1", N), Seq("2", "x")))
    val Seq(t) = KeyedRows.collectRows(Seq(df), "round-trip")
    val back = KeyedRows.toDf(t, spark).collect()
      .map(r => (r.getString(0), r.getString(1))).toSet
    assert(back == Set(("1", null), ("2", "x")))
  }

  test("baselines return None above the row cap (timeout modelling)") {
    val source = Fixtures.figure3Source(spark)
    val df = spark.range(50).selectExpr("cast(id as string) as ID", "'x' as Name")
    assert(Ver.run(Seq(df), source, spark, Ver.Config(rowCap = 10)).isEmpty)
    assert(Ver.run(Seq(df), source, spark, Ver.Config(rowCap = 50)).isDefined)
    def autoPipeline(in: DataFrame, cap: Int) =
      AutoPipelineStar.run(Seq(in), source, spark, AutoPipelineStar.Config(rowCap = cap))
    assert(autoPipeline(df, 10).isEmpty)
    assert(autoPipeline(df, 50).isDefined)
    // The source's 3 rows count against the cap too.
    assert(autoPipeline(df.limit(2), 2).isEmpty && autoPipeline(df.limit(3), 3).isDefined)
  }

  test("inner natural join") {
    val j = NaturalJoin(t1, t2, "inner")
    assert(j.columns == Vector("k", "a", "b"))
    assert(j.rows.toSet == Set(Vector("2", "a2", "b2")))
  }

  test("left natural join keeps unmatched left rows") {
    val j = NaturalJoin(t1, t2, "left")
    assert(j.rows.toSet == Set(Vector("1", "a1", null), Vector("2", "a2", "b2")))
  }

  test("full natural join keeps both sides") {
    val j = NaturalJoin(t1, t2, "full")
    assert(j.rows.toSet == Set(
      Vector("1", "a1", null), Vector("2", "a2", "b2"), Vector("3", null, "b3")))
  }

  test("join with null key never matches") {
    val withNull = Table(Vector("k", "a"), Vector(Vector(null, "ax")))
    val j = NaturalJoin(withNull, t2, "inner")
    assert(j.rows.isEmpty)
  }

  test("outer union pads and dedupes") {
    val u = outerUnion(t1, t2).distinct
    assert(u.columns == Vector("k", "a", "b"))
    assert(u.rows.size == 4)
    assert(outerUnion(t1, t1).distinct == t1)
  }

  test("project keeps requested columns in order, dropping unknown ones") {
    val p = projectSelect(t1, Source(Table(Vector("a", "zzz"), Seq.empty), Seq("zzz")))
    assert(p.columns == Vector("a"))
  }

  test("projectSelect filters to the source's key set") {
    val s = projectSelect(t1, Source(Table(Vector("k", "a"), Seq(Seq("2", "zz"))), Seq("k")))
    assert(s.rows == Vector(Vector("2", "a2")))
  }

  test("padTo adds null columns") {
    val p = padTo(t1, Vector("k", "a", "extra"))
    assert(p.columns == Vector("k", "a", "extra"))
    assert(p.rows.forall(_.last == null))
  }

  test("full natural join keeps right rows whose join key has a null cell") {
    val l = Table(Vector("k", "a"), Seq(Seq("1", "a1")))
    val r = Table(Vector("k", "b"), Seq(Seq("1", "b1"), Seq(N, "bx")))
    assert(NaturalJoin(l, r, "full").rows.toSet == Set(Seq("1", "a1", "b1"), Seq(N, N, "bx")))
    assert(NaturalJoin(r, l, "full").rows.toSet == Set(Seq("1", "b1", "a1"), Seq(N, "bx", N)))
  }

  test("natural join matches DuckDB's INNER, LEFT and FULL JOIN on random tables") {
    // 1–2 shared columns in any position; null cells in key and non-key
    // columns; duplicate keys from a small domain and duplicate rows.
    val keyCell = Gen.frequency(1 -> Gen.const(N), 4 -> Gen.oneOf("0", "1", "2"))
    val cell = Gen.oneOf(N, "x", "y")
    def table(shared: Seq[String], own: Seq[String]): Gen[Table] = for {
      cols <- Gen.someOf(own).flatMap(o => Gen.oneOf((shared ++ o).permutations.toSeq))
      rows <- Gen.choose(0, 6).flatMap(Gen.listOfN(_, Gen.sequence[Seq[String], String](
        cols.map(c => if (shared.contains(c)) keyCell else cell))))
      dups <- Gen.choose(0, rows.size)
    } yield Table(cols.toIndexedSeq, rows ++ rows.take(dups))
    val gen = for {
      shared <- Gen.oneOf(Seq("k"), Seq("k", "j"))
      l <- table(shared, Seq("a", "b"))
      r <- table(shared, Seq("c", "d"))
      how <- Gen.oneOf("inner", "left", "full")
    } yield (l, r, how)
    def bag(rows: Seq[Seq[String]]) = rows.groupBy(identity).view.mapValues(_.size).toMap
    val prop = Prop.forAll(gen) { case (l, r, how) =>
      val shared = l.columns.filter(r.columns.contains)
      val select = l.columns.map(c =>
        if (shared.contains(c)) s"COALESCE(lt.$c, rt.$c) AS $c" else s"lt.$c AS $c") ++
        r.columns.filterNot(shared.contains).map(c => s"rt.$c AS $c")
      val sql = s"SELECT DISTINCT ${select.mkString(", ")} FROM lt ${how.toUpperCase} JOIN rt " +
        s"ON ${shared.map(c => s"lt.$c = rt.$c").mkString(" AND ")}"
      val (dCols, dRows) = Oracle.query(sql,
        "lt" -> KeyedRows.toDf(l, spark), "rt" -> KeyedRows.toDf(r, spark))
      val got = NaturalJoin(l, r, how)
      got.columns.toSet == dCols.toSet &&
        bag(padTo(got, dCols.toIndexedSeq).rows) ==
          bag(dRows.map(row => dCols.indices.map(i => row.getString(i))))
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }
}
