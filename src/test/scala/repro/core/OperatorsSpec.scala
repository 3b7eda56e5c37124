package repro.core

import java.io.File
import java.nio.file.Files
import org.apache.commons.io.FileUtils
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Fixtures, JobCounter, Oracle, SparkSpec}
import repro.lake.{SourceTable, TableRepo}

/** Integration operators (§IV-B) + Theorem 8's representative-operator
  * lemmas, checked against DuckDB via the Oracle: the DataFrame ⊎, π, σ,
  * and the driver-side padding, InnerUnion, β, κ and minimal form of
  * [[KeyedRows]].
  */
class OperatorsSpec extends SparkSpec {

  private val N: String = null
  private def df(cols: Seq[String], rows: Seq[Seq[String]]) =
    Fixtures.stringDf(spark, cols, rows)
  private def tbl(cols: Seq[String], rows: Seq[Seq[String]]) =
    KeyedRows.Table(cols.toIndexedSeq, rows)

  // -------------------------------------------------- outer union

  test("outer union pads missing columns with nulls") {
    val a = df(Seq("k", "x"), Seq(Seq("1", "a")))
    val b = df(Seq("k", "y"), Seq(Seq("2", "b")))
    val u = Operators.outerUnion(a, b)
    assert(u.columns.toSeq == Seq("k", "x", "y"))
    val rows = u.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet
    assert(rows == Set(("1", "a", null), ("2", null, "b")))
  }

  test("outer union on equal schemas equals inner union (Lemma 11)") {
    val a = df(Seq("k", "x"), Seq(Seq("1", "a")))
    val b = df(Seq("k", "x"), Seq(Seq("2", "b")))
    Oracle.assertEquivalent(
      Operators.outerUnion(a, b),
      "SELECT k, x FROM a UNION ALL SELECT k, x FROM b",
      "a" -> a, "b" -> b)
  }

  test("outer union is commutative up to row order") {
    val a = df(Seq("k", "x"), Seq(Seq("1", "a"), Seq("2", "b")))
    val b = df(Seq("k", "y"), Seq(Seq("1", "c")))
    val ab = Operators.outerUnion(a, b).select("k", "x", "y").collect().toSet
    val ba = Operators.outerUnion(b, a).select("k", "x", "y").collect().toSet
    assert(ab == ba)
  }

  test("outerUnionAll of one table is itself") {
    val a = df(Seq("k"), Seq(Seq("1")))
    assert(Operators.outerUnionAll(Seq(a)).collect().toSeq == a.collect().toSeq)
  }

  // -------------------------------------------------- project / select

  test("projectToSource keeps only source columns in source order") {
    val src = SourceTable("s", df(Seq("k", "a", "b"), Seq(Seq("1", "x", "y"))), Seq("k"))
    val t = df(Seq("b", "zzz", "k"), Seq(Seq("y", "no", "1")))
    assert(Operators.projectToSource(t, src).columns.toSeq == Seq("k", "b"))
  }

  test("selectSourceKeys keeps only tuples with a source key value") {
    val src = SourceTable("s", df(Seq("k", "a"), Seq(Seq("1", "x"))), Seq("k"))
    val t = df(Seq("k", "a"), Seq(Seq("1", "p"), Seq("9", "q")))
    val sel = Operators.selectSourceKeys(t, src).collect()
    assert(sel.map(_.getString(0)).toSeq == Seq("1"))
  }

  test("selectSourceKeys passes tables lacking the key through unchanged") {
    val src = SourceTable("s", df(Seq("k", "a"), Seq(Seq("1", "x"))), Seq("k"))
    val t = df(Seq("b"), Seq(Seq("q"), Seq("r")))
    assert(Operators.selectSourceKeys(t, src).count() == 2)
  }

  test("selectSourceKeys with multi-attribute key matches all parts") {
    val src = SourceTable("s",
      df(Seq("k1", "k2", "a"), Seq(Seq("1", "2", "x"))), Seq("k1", "k2"))
    val t = df(Seq("k1", "k2"), Seq(Seq("1", "2"), Seq("1", "9"), Seq("9", "2")))
    assert(Operators.selectSourceKeys(t, src).count() == 1)
  }

  // reaching's level 0 is driver tables and its keyless tables live in a
  // lake; the DuckDB references read both as DataFrames. S is a one-row
  // table keyed on k.
  private def reachSource = SourceTable("s", df(Seq("k"), Seq(Seq("0"))), Seq("k"))
  private def local(t: KeyedRows.Table) = KeyedRows.toDf(t, spark)

  /** A lake of `tables`, each opened, and each as a keyless candidate:
    * its name and its columns renamed as `renames` says, others kept.
    */
  private def lake(tables: (String, DataFrame)*)(renames: (String, String)*) = {
    val repo = TableRepo.create(Files.createTempDirectory("reaching").toString, spark, tables.toMap)
    (repo, tables.map { case (n, t) =>
      repo.read(n)
      n -> t.columns.map(c => c -> renames.toMap.getOrElse(c, c)).toMap
    })
  }

  /** Table `name` of `repo` made unreadable: its directory is gone, so any
    * scan of it fails.
    */
  private def unreadable(repo: TableRepo, name: String): Unit =
    FileUtils.deleteDirectory(new File(new File(repo.root, "tables"), name))

  test("reaching keeps the keyless rows sharing a value with a keyed frame — against DuckDB") {
    // a is shared with both keyed tables, b with k2 only, z with neither;
    // the duplicate row stays twice and null cells match nothing, in the
    // table and in level 0, whose duplicate values count once. Level 0
    // holds no value of n, so the table n reads no row.
    val t = df(Seq("a", "b", "z"), Seq(
      Seq("1", "x", "p"), Seq("1", "x", "p"), Seq("2", "y", "q"),
      Seq(N, "w", "r"), Seq("9", N, "s"), Seq("8", "v", "1"), Seq(N, N, "0")))
    val k1 = tbl(Seq("k", "a", "n"), Seq(Seq("0", "1", N), Seq("0", N, N), Seq("1", "1", N)))
    val k2 = tbl(Seq("k", "b", "a"), Seq(Seq("0", "w", "7"), Seq("1", "y", N), Seq("2", "w", N)))
    val n = df(Seq("n"), Seq(Seq("1"), Seq(N)))
    val (repo, keyless) = lake("t" -> t, "n" -> n)()
    val (src, Seq(rt, rn)) = Operators.reaching(repo, reachSource, Seq(k1, k2), keyless)
    assert(src.table.rows == Seq(Seq("0")) && src.keys == Seq("k"))
    assert(rn == KeyedRows.Table(Vector("n"), Seq.empty))
    assert(rt.columns == Seq("a", "b", "z"))
    Oracle.assertEquivalent(local(rt),
      "SELECT * FROM t WHERE a IN (SELECT a FROM k1 UNION SELECT a FROM k2) " +
        "OR b IN (SELECT b FROM k2)",
      "t" -> t, "k1" -> local(k1), "k2" -> local(k2))
  }

  test("reaching follows a chain of keyless frames and drops the unreached — against DuckDB") {
    // l2 shares no column with the keyed table, only c with l1, whose lake
    // table names it lc; the table on e shares nothing and is never read.
    val k = tbl(Seq("k", "a"), Seq(Seq("0", "1")))
    val l1 = df(Seq("a", "c"), Seq(Seq("1", "x"), Seq("2", "y")))
    val l2 = df(Seq("c", "d"), Seq(Seq("x", "p"), Seq("y", "q"), Seq(N, "r"), Seq("x", "s")))
    val (repo, keyless) = lake(
      "l2" -> l2, "l1" -> l1.withColumnRenamed("c", "lc"), "e" -> df(Seq("e"), Seq(Seq("1"))))("lc" -> "c")
    unreadable(repo, "e")
    val (_, Seq(r2, r1, ru)) = Operators.reaching(repo, reachSource, Seq(k), keyless)
    Oracle.assertEquivalent(local(r2),
      "SELECT * FROM l2 WHERE c IN (SELECT c FROM l1 WHERE a IN (SELECT a FROM k))",
      "l2" -> l2, "l1" -> l1, "k" -> local(k))
    assert(r1 == KeyedRows.Table(Vector("a", "c"), Seq(Seq("1", "x"))))
    assert(ru == KeyedRows.Table(Vector("e"), Seq.empty))
    val (src, Seq(alone)) = Operators.reaching(repo, reachSource, Seq.empty, keyless.takeRight(1))
    assert(src.size == 1 && alone.rows.isEmpty)
  }

  test("reaching collects each chain level in one Spark job, S with the first") {
    val k = tbl(Seq("k", "a"), Seq(Seq("0", "1"), Seq("1", "2")))
    val l1 = df(Seq("a", "c"), Seq(Seq("1", "x"), Seq("2", "y"), Seq("3", "z")))
    val l1b = df(Seq("a"), Seq(Seq("2"), Seq("2")))
    val l2 = df(Seq("c", "d"), Seq(Seq("x", "p"), Seq("z", "q")))
    val (repo, keyless) = lake(
      "l2" -> l2, "l1" -> l1, "l1b" -> l1b, "e" -> df(Seq("e"), Seq(Seq("1"))))()
    unreadable(repo, "e")
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try {
      val ((src, reached), jobs) = JobCounter(spark)(
        Operators.reaching(repo, reachSource, Seq(k), keyless))
      assert(jobs == 2, "level 1 with S, then level 2")
      assert(src.table.rows == Seq(Seq("0")))
      assert(reached.map(_.rows) == Seq(
        Seq(Seq("x", "p")), Seq(Seq("1", "x"), Seq("2", "y")), Seq(Seq("2"), Seq("2")), Seq()))
      val (_, alone) = JobCounter(spark)(Operators.reaching(repo, reachSource, Seq(k), Seq.empty))
      assert(alone == 1, "S alone")
    } finally spark.conf.set("spark.sql.adaptive.enabled", aqe)
  }

  // -------------------------------------------------- inner union groups

  test("innerUnionGroups unions only same-schema tables") {
    val a = tbl(Seq("k", "x"), Seq(Seq("1", "a")))
    val b = tbl(Seq("x", "k"), Seq(Seq("b", "2")))
    val c = tbl(Seq("k", "y"), Seq(Seq("3", "c")))
    val groups = KeyedRows.innerUnionGroups(Seq(a, b, c))
    assert(groups.size == 2)
    assert(groups.map(_.rows.size).sorted == Seq(1, 2))
    val ab = groups.find(_.rows.size == 2).get
    assert(ab.columns == Seq("k", "x") && ab.rows.toSet == Set(Seq("1", "a"), Seq("2", "b")))
  }

  // -------------------------------------------------- subsumption

  test("subsumption removes a strictly-less-informative tuple") {
    val t = tbl(Seq("k", "a", "b"),
      Seq(Seq("1", "x", "y"), Seq("1", "x", N), Seq("1", N, N)))
    val out = KeyedRows.subsumption(t, Seq("k")).rows
    assert(out == Seq(Seq("1", "x", "y")))
  }

  test("subsumption keeps contradicting tuples apart") {
    val t = tbl(Seq("k", "a"), Seq(Seq("1", "x"), Seq("1", "z")))
    assert(KeyedRows.subsumption(t, Seq("k")).rows.size == 2)
  }

  test("subsumption never merges across different keys") {
    val t = tbl(Seq("k", "a"), Seq(Seq("1", "x"), Seq("2", N)))
    assert(KeyedRows.subsumption(t, Seq("k")).rows.size == 2)
  }

  test("subsumption is idempotent") {
    val t = tbl(Seq("k", "a", "b"),
      Seq(Seq("1", "x", N), Seq("1", N, "y"), Seq("2", "p", "q"), Seq("2", "p", "q")))
    val once = KeyedRows.subsumption(t, Seq("k"))
    val twice = KeyedRows.subsumption(once, Seq("k"))
    assert(once.rows.toSet == twice.rows.toSet)
  }

  test("subsumption deduplicates identical tuples") {
    val t = tbl(Seq("k", "a"), Seq(Seq("1", "x"), Seq("1", "x")))
    assert(KeyedRows.subsumption(t, Seq("k")).rows.size == 1)
  }

  // -------------------------------------------------- complementation

  test("complementation merges two complementary tuples") {
    val t = tbl(Seq("k", "a", "b"), Seq(Seq("1", "x", N), Seq("1", N, "y")))
    val out = KeyedRows.complementation(t, Seq("k")).rows
    assert(out == Seq(Seq("1", "x", "y")))
  }

  test("complementation leaves contradicting tuples apart") {
    val t = tbl(Seq("k", "a", "b"),
      Seq(Seq("1", "x", "u"), Seq("1", "z", N)))
    assert(KeyedRows.complementation(t, Seq("k")).rows.size == 2)
  }

  test("complementation chains through a fixpoint") {
    val t = tbl(Seq("k", "a", "b", "c"),
      Seq(Seq("1", "x", N, N), Seq("1", N, "y", N), Seq("1", N, N, "z")))
    val out = KeyedRows.complementation(t, Seq("k")).rows
    assert(out == Seq(Seq("1", "x", "y", "z")))
  }

  test("complementation does not merge tuples of different keys") {
    val t = tbl(Seq("k", "a", "b"), Seq(Seq("1", "x", N), Seq("2", N, "y")))
    assert(KeyedRows.complementation(t, Seq("k")).rows.size == 2)
  }

  // -------------------------------------------------- minimal form

  test("minimalForm = dedupe + β + κ") {
    val t = tbl(Seq("k", "a", "b"),
      Seq(Seq("1", "x", N), Seq("1", "x", N), Seq("1", N, "y"), Seq("1", "x", "y")))
    val out = KeyedRows.minimalForm(t, Seq("k")).rows
    assert(out == Seq(Seq("1", "x", "y")))
  }

  test("padTo adds missing columns as nulls in source order") {
    val out = KeyedRows.padTo(tbl(Seq("b", "k"), Seq(Seq("y", "1"))), Vector("k", "a", "b"))
    assert(out.columns == Seq("k", "a", "b"))
    assert(out.rows == Seq(Seq("1", N, "y")))
  }

  // -------------------------------------------------- Theorem 8 lemmas

  private val t1Rows = Seq(Seq("1", "a1"), Seq("2", "a2"), Seq("3", "a3"))
  private val t2Rows = Seq(Seq("2", "b2"), Seq("3", "b3"), Seq("4", "b4"))
  private val t1 = df(Seq("k", "a"), t1Rows)
  private val t2 = df(Seq("k", "b"), t2Rows)
  private val k1 = tbl(Seq("k", "a"), t1Rows)
  private val k2 = tbl(Seq("k", "b"), t2Rows)

  /** The kernel's rows as a DataFrame on (k, a, b), for the DuckDB oracle. */
  private def kab(t: KeyedRows.Table) =
    KeyedRows.toDf(KeyedRows.padTo(t, Vector("k", "a", "b")), spark)

  /** σ(T1.C = T2.C ≠ ⊥, β(κ(T1 ⊎ T2))) — Lemma 12's right-hand side,
    * built from our operators (κ, β grouped on the shared column).
    */
  private def lemma12Rhs = {
    val merged = KeyedRows.subsumption(
      KeyedRows.complementation(KeyedRows.outerUnion(k1, k2), Seq("k")), Seq("k"))
    val (a, b) = (merged.columns.indexOf("a"), merged.columns.indexOf("b"))
    merged.copy(rows = merged.rows.filter(r => r(a) != null && r(b) != null))
  }

  test("Lemma 12: inner join ≡ σβκ(T1 ⊎ T2) — against DuckDB") {
    Oracle.assertEquivalent(
      kab(lemma12Rhs),
      "SELECT t1.k AS k, a, b FROM t1 JOIN t2 ON t1.k = t2.k",
      "t1" -> t1, "t2" -> t2)
  }

  test("Lemma 13: left join ≡ β((T1 ⋈ T2) ⊎ T1) — against DuckDB") {
    val lhs = KeyedRows.subsumption(KeyedRows.outerUnion(lemma12Rhs, k1), Seq("k"))
    Oracle.assertEquivalent(
      kab(lhs),
      "SELECT t1.k AS k, a, b FROM t1 LEFT JOIN t2 ON t1.k = t2.k",
      "t1" -> t1, "t2" -> t2)
  }

  test("Lemma 14: full outer join ≡ β(β((T1 ⋈ T2) ⊎ T1) ⊎ T2) — against DuckDB") {
    val left = KeyedRows.subsumption(KeyedRows.outerUnion(lemma12Rhs, k1), Seq("k"))
    val full = KeyedRows.subsumption(KeyedRows.outerUnion(left, k2), Seq("k"))
    Oracle.assertEquivalent(
      kab(full),
      "SELECT COALESCE(t1.k, t2.k) AS k, a, b FROM t1 FULL JOIN t2 ON t1.k = t2.k",
      "t1" -> t1, "t2" -> t2)
  }

  test("Lemma 15: cross product ≡ κ(π(T1,c) ⊎ π(T2,c)) — via FD closure, against DuckDB") {
    // Lemma 15 assumes T1 and T2 share no columns: rename the keys apart.
    val p1 = t1.select(col("k").as("k1"), col("a"), lit("const").as("c"))
    val p2 = t2.select(col("k").as("k2"), col("b"), lit("const").as("c"))
    val fd = Fd.fullDisjunction(Seq(p1, p2)).get
      .where(col("a").isNotNull && col("b").isNotNull)
    // π out the helper constant and the two k copies collide — keep a,b.
    Oracle.assertEquivalent(
      fd.select(col("a"), col("b")),
      "SELECT a, b FROM (SELECT a FROM t1) CROSS JOIN (SELECT b FROM t2)",
      "t1" -> t1, "t2" -> t2)
  }
}
