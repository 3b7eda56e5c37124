package repro.discovery

import scala.collection.mutable
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Oracle, SparkSpec}
import repro.core.KeyedRows
import repro.core.KeyedRows.Table

/** Set Similarity's overlap counts against DuckDB's joins over the same
  * index: [[SetSimilarity.sourceOverlaps]] against index ⋈ unpivot(S), and
  * [[SetSimilarity.pairwiseOverlaps]] against the self-join of the index
  * restricted to the given columns.
  */
class OverlapsPropSpec extends SparkSpec {

  private val N: String = null
  private val Shared = Seq("1", "2", "3", "4")
  private val SrcCols = IndexedSeq("x", "y", "z")
  private val LakeCols = for (t <- Seq("t0", "t1", "t2"); c <- Seq("a", "b", "c")) yield (t, c)

  /** A lake of three tables over columns a–c: each column a set of values
    * from a domain the lake shares with S, plus values of its own.
    */
  private val lake: Gen[Seq[(String, String, String)]] =
    Gen.sequence[Seq[Seq[(String, String, String)]], Seq[(String, String, String)]](LakeCols.map {
      case (t, c) => Gen.someOf(Shared ++ Seq(s"$t$c-1", s"$t$c-2")).map(_.toSeq.map(v => (t, c, v)))
    }).map(_.flatten)

  /** S on x, y, z: cells from the shared domain, a value no lake column
    * holds, or null; 0–5 rows plus duplicates; a column may be all null.
    */
  private val source: Gen[Table] = {
    val cell = Gen.frequency(1 -> Gen.const(N), 1 -> Gen.const("9"), 4 -> Gen.oneOf(Shared))
    for {
      rows <- Gen.choose(0, 5).flatMap(Gen.listOfN(_, Gen.listOfN(SrcCols.size, cell)))
      dups <- Gen.choose(0, rows.size)
      nulled <- Gen.frequency(3 -> Gen.const(None), 1 -> Gen.some(Gen.choose(0, SrcCols.size - 1)))
    } yield Table(SrcCols, (rows ++ rows.take(dups)).map(r =>
      nulled.fold(r)(i => r.updated(i, N)).toSeq))
  }

  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }

  /** The index as Spark sees it, and as DuckDB does ("table" and "column"
    * are reserved words there).
    */
  private def frames(idx: Seq[(String, String, String)]) = {
    val rows = idx.map { case (t, c, v) => Seq(t, c, v) }
    (KeyedRows.toDf(Table(IndexedSeq("table", "column", "value"), rows), spark),
      KeyedRows.toDf(Table(IndexedSeq("t", "c", "value"), rows), spark))
  }

  test("sourceOverlaps matches DuckDB's index ⋈ unpivot(S) on random lakes and sources") {
    val seen = mutable.Set[String]()
    check(Prop.forAll(lake, source) { (idx, s) =>
      val values = SrcCols.indices.map(i => s.rows.map(_(i)).filter(_ != null).toSet)
      val lakeCols = idx.groupMap(_._3)(t => (t._1, t._2))
      if (s.rows.isEmpty) seen += "empty S"
      if (s.rows.exists(_.contains(N))) seen += "null cell"
      if (s.rows.distinct.size < s.rows.size) seen += "duplicate row"
      if (s.rows.nonEmpty && values.exists(_.isEmpty)) seen += "all-null column"
      if (values.flatten.groupBy(identity).exists(_._2.size > 1)) seen += "value in two source columns"
      if (values.flatten.exists(v => lakeCols.getOrElse(v, Nil).size > 1)) seen += "value in several lake columns"
      val (sparkIdx, duckIdx) = frames(idx)
      val unpivot = SrcCols.map(c => s"SELECT '$c' AS scol, $c AS value FROM s").mkString(" UNION ALL ")
      val (_, dRows) = Oracle.query(
        s"SELECT t, c, scol, COUNT(*) AS m FROM idx JOIN " +
          s"(SELECT DISTINCT scol, value FROM ($unpivot) WHERE value IS NOT NULL) USING (value) " +
          "GROUP BY t, c, scol",
        "idx" -> duckIdx, "s" -> KeyedRows.toDf(s, spark))
      val want = dRows.map(r => (r.getString(0), r.getString(1), r.getString(2), r.getLong(3)))
      SetSimilarity.sourceOverlaps(sparkIdx, s).sorted == want.sorted
    })
    assert(seen == Set("empty S", "null cell", "duplicate row", "all-null column",
      "value in two source columns", "value in several lake columns"))
  }

  test("pairwiseOverlaps matches DuckDB's self-join of the restricted index") {
    val isolated = mutable.Set[Boolean]()
    check(Prop.forAll(lake, Gen.someOf(LakeCols)) { (idx, picked) =>
      val mapped = picked.toSet
      val valuesOf = idx.groupMap(t => (t._1, t._2))(_._3).view.mapValues(_.toSet).toMap
      isolated += mapped.exists(k => valuesOf.contains(k) &&
        (mapped - k).forall(o => valuesOf.getOrElse(o, Set.empty).intersect(valuesOf(k)).isEmpty))
      val (sparkIdx, duckIdx) = frames(idx)
      val keys = KeyedRows.toDf(Table(IndexedSeq("t", "c"), mapped.toSeq.map { case (t, c) => Seq(t, c) }), spark)
      val (_, dRows) = Oracle.query(
        "WITH r AS (SELECT idx.* FROM idx JOIN keys USING (t, c)) " +
          "SELECT a.t, a.c, b.t, b.c, COUNT(*) AS m FROM r a JOIN r b USING (value) " +
          "GROUP BY a.t, a.c, b.t, b.c",
        "idx" -> duckIdx, "keys" -> keys)
      val want = dRows.map(r =>
        ((r.getString(0), r.getString(1)), (r.getString(2), r.getString(3))) -> r.getLong(4)).toMap
      want.size == dRows.size && SetSimilarity.pairwiseOverlaps(sparkIdx, mapped) == want
    })
    assert(isolated.contains(true), "no case mapped a column that shares no value with another")
  }
}
