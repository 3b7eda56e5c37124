package repro.lake

import java.nio.file.Files
import org.apache.spark.sql.functions._
import repro.{Fixtures, JobCounter, SparkSpec}
import repro.core.KeyedRows
import repro.discovery.SetSimilarity

/** TableRepo Parquet round-trips and the inverted value index. */
class LakeSpec extends SparkSpec {

  test("stringify casts every column to string and preserves nulls") {
    val df = spark.range(3).select(
      col("id"), (col("id") * 1.5).as("d"), lit(null).cast("int").as("n"))
    val s = Lake.stringify(df)
    assert(Lake.isStringTyped(s))
    assert(s.collect().forall(_.isNullAt(2)))
  }

  test("TableRepo write/read round-trips rows") {
    val root = Files.createTempDirectory("repo").toString
    val repo = new TableRepo(root, spark)
    repo.write("t1", Fixtures.tableA(spark))
    val back = repo.read("t1").df
    assert(back.collect().toSet == Fixtures.tableA(spark).collect().toSet)
    assert(repo.exists("t1") && !repo.exists("nope"))
  }

  test("TableRepo opens a table once: two reads of a name return the same DataFrame") {
    val root = Files.createTempDirectory("repo-memo").toString
    val repo = TableRepo.create(root, spark, Map("t1" -> Fixtures.tableA(spark)))
    assert(repo.read("t1").df eq repo.read("t1").df)
  }

  test("TableRepo write after read: the next read returns the new rows") {
    val root = Files.createTempDirectory("repo-rewrite").toString
    val repo = TableRepo.create(root, spark, Map("t1" -> Fixtures.tableA(spark)))
    val before = repo.read("t1").df
    assert(before.collect().toSet == Fixtures.tableA(spark).collect().toSet)
    repo.write("t1", Fixtures.tableB(spark))
    val after = repo.read("t1").df
    assert(!(after eq before))
    assert(after.columns.toSeq == Seq("Name", "Age"))
    assert(after.collect().toSet == Fixtures.tableB(spark).collect().toSet)
  }

  /** `reads` one table at a time, as a filtered collect of each: the
    * reference for [[TableRepo.scan]].
    */
  private def readOneByOne(repo: TableRepo, reads: Seq[TableRepo.Read]): Seq[KeyedRows.Table] =
    KeyedRows.collectRows(reads.map(r =>
      repo.read(r.table).df.where(r.where).select(r.columns.map(col): _*)), "reference")

  test("TableRepo.scan reads each table as a filtered read of it alone does") {
    val N: String = null
    val repo = TableRepo.create(Files.createTempDirectory("repo-scan").toString, spark, Map(
      // Duplicate rows and null predicate cells.
      "p" -> Fixtures.stringDf(spark, Seq("Name", "a", "b"), Seq(
        Seq("n1", "1", "x"), Seq("n1", "1", "x"), Seq("n2", N, "y"), Seq("n3", "2", N), Seq("n4", "3", "z"))),
      // `name` differs from p's `Name` only in case; `c` is absent from p.
      "q" -> Fixtures.stringDf(spark, Seq("name", "b", "c"), Seq(
        Seq("n1", "x", "c1"), Seq("n2", "y", N), Seq("n5", N, "c1"))),
      "r" -> Fixtures.stringDf(spark, Seq("x"), Seq(Seq("1"), Seq("2"))),
      "empty" -> Fixtures.stringDf(spark, Seq("a", "z"), Seq.empty)))
    val reads = Seq(
      TableRepo.Read("p", col("a").isin("1", "2"), Seq("Name", "b")),
      TableRepo.Read("q", col("c").isin("c1") || col("name") === "n2", Seq("c", "name")),
      TableRepo.Read("r", lit(true), Seq("x")),
      TableRepo.Read("empty", col("a").isNotNull, Seq("a", "z")))
    val got = KeyedRows.collectTagged(repo.scan(reads), "scan")
    assert(got == readOneByOne(repo, reads))
    assert(got.map(_.rows.size) == Seq(3, 3, 2, 0))
    // Each subset and order of the reads is the same tables.
    for (n <- 1 to reads.size; sub <- reads.combinations(n); perm <- sub.permutations.take(2))
      assert(KeyedRows.collectTagged(repo.scan(perm), "scan") == readOneByOne(repo, perm), perm.map(_.table))
    assert(KeyedRows.collectTagged(repo.scan(Seq.empty), "scan") == Seq.empty)
    intercept[IllegalArgumentException](repo.scan(reads.take(1) ++ reads.take(1)))
    // A table rewritten through the repo is scanned anew.
    repo.write("r", Fixtures.stringDf(spark, Seq("x"), Seq(Seq("3"))))
    assert(KeyedRows.collectTagged(repo.scan(reads.slice(2, 3)), "scan").map(_.rows) == Seq(Seq(Seq("3"))))
  }

  test("TableRepo.scan reads the files each table listed when it was opened") {
    val root = Files.createTempDirectory("repo-scan-listed")
    val repo = TableRepo.create(root.toString, spark, Map(
      "t" -> Fixtures.stringDf(spark, Seq("x"), Seq(Seq("1"))),
      "u" -> Fixtures.stringDf(spark, Seq("x"), Seq(Seq("2")))))
    val reads = Seq(TableRepo.Read("t", lit(true), Seq("x")))
    def scanned(r: TableRepo) = KeyedRows.collectTagged(r.scan(reads), "scan").map(_.rows.toSet)
    assert(scanned(repo) == Seq(Set(Seq("1"))))
    // u's files copied into t's directory behind the repo's back: the
    // scan lists no directory, so only a new repo reads them.
    val files = Files.list(root.resolve("tables/u"))
    try files.filter(_.getFileName.toString.endsWith(".parquet"))
      .forEach(f => Files.copy(f, root.resolve("tables/t").resolve("copied-" + f.getFileName)))
    finally files.close()
    assert(scanned(repo) == Seq(Set(Seq("1"))))
    assert(scanned(TableRepo(root.toString, spark)) == Seq(Set(Seq("1"), Seq("2"))))
    // A column named as the scan's tag, whatever its case, is refused.
    val tagged = TableRepo.create(Files.createTempDirectory("repo-scan-tag").toString, spark,
      Map("w" -> Fixtures.stringDf(spark, Seq("__TAG"), Seq(Seq("1")))))
    intercept[IllegalArgumentException](tagged.scan(Seq(TableRepo.Read("w", lit(true), Seq("__TAG")))))
  }

  test("TableRepo.scan reads more tables than Spark lists without a job, in several scans of one job") {
    val n = spark.sessionState.conf.parallelPartitionDiscoveryThreshold + 8
    val names = (0 until n).map(i => f"t$i%02d")
    val repo = TableRepo.create(Files.createTempDirectory("repo-scan-many").toString, spark,
      names.zipWithIndex.map { case (t, i) =>
        t -> Fixtures.stringDf(spark, Seq(s"c${i % 3}", "v"), Seq(Seq(s"$i", "a"), Seq(s"$i", "b")))
      }.toMap)
    val reads = names.zipWithIndex.map { case (t, i) =>
      TableRepo.Read(t, col("v") === (if (i % 2 == 0) "a" else "b"), Seq(s"c${i % 3}", "v"))
    }
    val want = readOneByOne(repo, reads) // opens every table
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try {
      val (got, jobs) = JobCounter(spark)(KeyedRows.collectTagged(repo.scan(reads), "scan"))
      assert(got == want)
      assert(got.forall(_.rows.size == 1))
      assert(jobs == 1, s"$n tables")
    } finally spark.conf.set("spark.sql.adaptive.enabled", aqe)
  }

  test("TableRepo lists table names sorted") {
    val root = Files.createTempDirectory("repo2").toString
    val repo = TableRepo.create(root, spark, Map(
      "zz" -> Fixtures.tableA(spark), "aa" -> Fixtures.tableB(spark)))
    assert(repo.tableNames == Seq("aa", "zz"))
  }

  test("TableRepo rejects unsafe table names") {
    val root = Files.createTempDirectory("repo3").toString
    val repo = new TableRepo(root, spark)
    intercept[IllegalArgumentException] {
      repo.write("../evil", Fixtures.tableA(spark))
    }
  }

  test("unpivot produces distinct (column, value) pairs without nulls") {
    val up = LakeIndex.unpivot(Fixtures.tableA(spark)).collect()
      .map(r => (r.getString(0), r.getString(1))).toSet
    assert(up.contains(("Name", "Smith")))
    assert(up.contains(("Education", "Bachelors")))
    assert(!up.exists(_._2 == null))
    // Brown's null Education must not appear.
    assert(up.count(_._1 == "Education") == 2)
  }

  test("index build covers every table and column") {
    val root = Files.createTempDirectory("repo4").toString
    val repo = TableRepo.create(root, spark, Map(
      "A" -> Fixtures.tableA(spark), "B" -> Fixtures.tableB(spark)))
    val idx = LakeIndex.build(repo, spark)
    val tables = idx.select("table").distinct().collect().map(_.getString(0)).toSet
    assert(tables == Set("A", "B"))
    val colsA = idx.where(col("table") === "A").select("column")
      .distinct().collect().map(_.getString(0)).toSet
    assert(colsA == Set("ID", "Name", "Education"))
  }

  test("buildOrLoad persists and reloads the index") {
    val root = Files.createTempDirectory("repo5").toString
    val repo = TableRepo.create(root, spark, Map("A" -> Fixtures.tableA(spark)))
    val first = LakeIndex.buildOrLoad(repo, spark).count()
    val second = LakeIndex.buildOrLoad(repo, spark).count()
    assert(first == second && first > 0)
  }

  test("sourceColumnSizes counts distinct non-null values per column") {
    val src = Fixtures.figure3Source(spark)
    val sizes = SetSimilarity.sourceColumnSizes(KeyedRows.collect(src, Seq.empty)._1.table)
    assert(sizes("Name") == 3)
    assert(sizes("Gender") == 2) // null not counted
  }

  test("SourceTable validates keys") {
    intercept[IllegalArgumentException] {
      SourceTable("bad", Fixtures.tableA(spark), Seq("NotAColumn"))
    }
    intercept[IllegalArgumentException] {
      SourceTable("bad2", Fixtures.tableA(spark), Seq.empty)
    }
  }

  test("SourceTable.nonKeyColumns excludes all key parts") {
    val src = SourceTable("s", Fixtures.tableA(spark), Seq("ID", "Name"))
    assert(src.nonKeyColumns == Seq("Education"))
  }
}
