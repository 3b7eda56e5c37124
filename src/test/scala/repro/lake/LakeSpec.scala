package repro.lake

import java.nio.file.Files
import org.apache.spark.sql.functions._
import repro.{Fixtures, SparkSpec}
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
