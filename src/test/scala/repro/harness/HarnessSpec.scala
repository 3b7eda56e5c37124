package repro.harness

import java.nio.file.Files
import repro.{Fixtures, SparkSpec}
import repro.core.Metrics
import repro.lake.{LakeIndex, SourceTable, TableRepo}

/** Experiment harness: method dispatch, aggregation, formatting, and the
  * logic of the paper tables that is not a method run.
  */
class HarnessSpec extends SparkSpec {

  private lazy val source = Fixtures.figure3Source(spark)
  private lazy val repo: TableRepo = {
    val root = Files.createTempDirectory("harness").toString
    TableRepo.create(root, spark, Map(
      "A" -> Fixtures.tableA(spark),
      "B" -> Fixtures.tableB(spark),
      "C" -> Fixtures.tableC(spark),
      "D" -> Fixtures.tableD(spark)))
  }
  private lazy val index = LakeIndex.build(repo, spark)

  test("runAll runs every method for every source") {
    val runs = Harness.runAll(spark, repo, index, Seq(source),
      Map(source.name -> Seq("A", "D")), Harness.TableIVMethods, verbose = false)
    assert(runs.size == Harness.TableIVMethods.size)
    assert(runs.map(_.method).toSet == Harness.TableIVMethods.map(_.label).toSet)
  }

  test("Gen-T dominates ALITE on the Figure 3 lake") {
    val runs = Harness.runAll(spark, repo, index, Seq(source),
      Map.empty, Harness.TableIVMethods, verbose = false)
    val byMethod = runs.map(r => r.method -> r.scores).toMap
    val genT = byMethod("Gen-T").get
    assert(genT.perfect, s"$genT")
    val alite = byMethod("ALITE")
    alite.foreach(a => assert(a.precision <= genT.precision))
  }

  test("int-set methods receive the renamed integrating set") {
    val runs = Harness.runAll(spark, repo, index, Seq(source),
      Map(source.name -> Seq("A", "D")),
      Seq(Method.AlitePs(intSet = true)),
      verbose = false)
    assert(runs.head.scores.isDefined)
    assert(runs.head.scores.get.recall > 0.5)
  }

  test("aggregate averages over completed runs and counts timeouts/perfects") {
    val runs = Seq(
      Harness.SourceRun("s1", "M", Some(Metrics.Scores(1, 1, 0, 0, 1, 10, 10)), 5),
      Harness.SourceRun("s2", "M", Some(Metrics.Scores(0.5, 0.5, 0.1, 2, 0.7, 30, 10)), 15),
      Harness.SourceRun("s3", "M", None, 100))
    val agg = Harness.aggregate(runs)
    assert(agg.size == 1)
    val a = agg.head
    assert(a.completed == 2 && a.timeouts == 1 && a.perfect == 1)
    assert(math.abs(a.rec - 0.75) < 1e-9)
    assert(math.abs(a.avgMillis - 40.0) < 1e-9)
  }

  test("aggregate of all-timeout method yields NaN metrics") {
    val agg = Harness.aggregate(Seq(Harness.SourceRun("s", "M", None, 3)))
    assert(agg.head.rec.isNaN)
  }

  test("format renders one row per requested method in order") {
    val aggs = Harness.aggregate(Seq(
      Harness.SourceRun("s", "Gen-T", Some(Metrics.Scores(1, 1, 0, 0, 1, 10, 10)), 5),
      Harness.SourceRun("s", "ALITE", None, 7)))
    val out = Harness.format("Test Table", aggs, Seq("ALITE", "Gen-T"))
    val lines = out.linesIterator.toSeq
    assert(lines.head.contains("Test Table"))
    assert(lines(2).startsWith("ALITE"))
    assert(lines(3).startsWith("Gen-T"))
    assert(lines(2).contains("—")) // timed-out metrics render as dashes
  }

  test("excludeSelf drops the source's own table from discovery") {
    val selfRepo = TableRepo.create(
      Files.createTempDirectory("selfrepo").toString, spark,
      Map("fig3_source" -> source.df, "A" -> Fixtures.tableA(spark)))
    val idx = LakeIndex.build(selfRepo, spark)
    val runs = Harness.runAll(spark, selfRepo, idx, Seq(source), Map.empty,
      Seq(Method.GenT), verbose = false)
    // Only table A remains; ID0/ID2 tuples (not fully in A) can't be perfect.
    assert(runs.head.scores.get.recall < 1.0)
  }

  test("method labels name the paper's rows") {
    assert(Harness.TableIIIMethods.map(_.label) == Seq("ALITE", "ALITE w/ int. set",
      "ALITE-PS", "ALITE-PS w/ int. set", "Auto-Pipeline*", "Auto-Pipeline* w/ int. set",
      "Ver w/ int. set", "Gen-T"))
    assert(Harness.TableIIMethods.forall(Harness.TableIIIMethods.contains))
    assert(Harness.TableIVMethods.forall(m => !m.intSet && Harness.TableIIIMethods.contains(m)))
  }

  private def scored(cells: Long) = Some(Metrics.Scores(1, 1, 0, 0, 1, cells, 10))

  test("Table IV aggregates the sources every method reclaims non-empty") {
    val runs = Seq(
      Harness.SourceRun("s1", "A", scored(10), 1),
      Harness.SourceRun("s1", "B", scored(4), 1),
      Harness.SourceRun("s2", "A", scored(10), 1),
      Harness.SourceRun("s2", "B", None, 1),
      Harness.SourceRun("s3", "A", scored(0), 1),
      Harness.SourceRun("s3", "B", scored(3), 1))
    val (common, kept) = Experiments.commonSources(runs)
    assert(common == Set("s1"))
    assert(kept == runs.take(2))
  }

  test("Table IV aggregates every run when no source is common") {
    val runs = Seq(
      Harness.SourceRun("s1", "A", scored(10), 1),
      Harness.SourceRun("s1", "B", None, 1),
      Harness.SourceRun("s2", "A", scored(0), 1))
    val (common, kept) = Experiments.commonSources(runs)
    assert(common.isEmpty)
    assert(kept == runs)
  }

  test("Table I's statistics of the Figure 3 lake match hand counts") {
    val s = Experiments.lakeStats("Figure 3", repo)
    // A (3 columns), B (2), C (2) and D (4), three rows each.
    assert((s.name, s.tables, s.columns, s.avgRows) == ("Figure 3", 4, 11L, 3L))
    val files = Files.walk(java.nio.file.Paths.get(repo.root, "tables"))
    try {
      val bytes = files.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum
      assert(s.sizeMb == bytes / 1e6)
    } finally files.close()
  }
}
