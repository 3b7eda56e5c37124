package repro.core

import java.io.File
import java.nio.file.Files
import org.apache.commons.io.FileUtils
import repro.{Fixtures, JobCounter, SparkSpec}
import repro.discovery.{SetSimilarity, SetSimilaritySpec}
import repro.lake.{LakeIndex, TableRepo}

/** Gen-T end to end on the Figure 3 lake. */
class GenTSpec extends SparkSpec {

  private lazy val source = Fixtures.figure3Source(spark)

  private lazy val repo: TableRepo = {
    val root = Files.createTempDirectory("gent").toString
    TableRepo.create(root, spark, Map(
      "A" -> Fixtures.tableA(spark),
      "B" -> Fixtures.tableB(spark),
      "C" -> Fixtures.tableC(spark),
      "D" -> Fixtures.tableD(spark),
      "unrelated" -> Fixtures.stringDf(spark,
        Seq("zz"), Seq(Seq("foo"), Seq("bar")))))
  }
  private lazy val index = LakeIndex.build(repo, spark)

  test("Gen-T reclaims the Figure 3 source exactly") {
    val r = GenT.reclaim(repo, index, source, spark)
    assert(r.reclaimed.collect().toSet == source.df.collect().toSet,
      s"originating=${r.originating}")
    val scores = Metrics.all(r.reclaimed, source)
    assert(scores.perfect, s"$scores")
  }

  test("Gen-T's originating tables exclude the contradicting Table C") {
    val r = GenT.reclaim(repo, index, source, spark)
    assert(r.originating.nonEmpty)
    assert(!r.originating.exists(_.startsWith("C")), s"got ${r.originating}")
  }

  test("Gen-T returns an empty source-shaped table when the lake is unrelated") {
    val root = Files.createTempDirectory("gent-empty").toString
    val emptyRepo = TableRepo.create(root, spark, Map(
      "junk" -> Fixtures.stringDf(spark, Seq("q"), Seq(Seq("nothing")))))
    val idx = LakeIndex.build(emptyRepo, spark)
    val r = GenT.reclaim(emptyRepo, idx, source, spark)
    assert(r.reclaimed.count() == 0)
    assert(r.originating.isEmpty)
    assert(r.reclaimed.columns.toSeq == source.df.columns.toSeq)
  }

  test("reclaimFromCandidates with empty candidates yields empty result") {
    val r = GenT.reclaimFromCandidates(repo, Seq.empty, source, spark)
    assert(r.reclaimed.count() == 0 && r.originating.isEmpty)
  }

  test("Gen-T result reports candidates and timing") {
    val r = GenT.reclaim(repo, index, source, spark)
    assert(r.candidates.nonEmpty)
    assert(r.millis >= 0)
  }

  test("reclaimFromCandidates releases every DataFrame it caches") {
    val sc = spark.sparkContext
    val cands = SetSimilarity.findCandidates(repo, index, source, spark)
    val before = sc.getPersistentRDDs.keySet
    val r = GenT.reclaimFromCandidates(repo, cands, source, spark)
    assert(r.originating.nonEmpty)
    assert(sc.getPersistentRDDs.keySet == before)
  }

  test("reclaimFromCandidates submits a fixed number of Spark jobs") {
    // Keyed versions of B and D next to A, so that several keyed tables
    // are picked and folded; B and D themselves need Expand.
    val root = Files.createTempDirectory("gent-jobs").toString
    val idName = Fixtures.tableA(spark).select("ID", "Name")
    val jobsRepo = TableRepo.create(root, spark, Map(
      "A" -> Fixtures.tableA(spark),
      "B" -> Fixtures.tableB(spark),
      "D" -> Fixtures.tableD(spark),
      "AB" -> idName.join(Fixtures.tableB(spark), "Name"),
      "AD" -> idName.join(Fixtures.tableD(spark), "Name")))
    def cand(name: String) = {
      val c = SetSimilarity.Candidate(
        name, jobsRepo.read(name).columns.map(c => c -> c).toMap, 1.0, KeyedRows.Table(Vector(), Nil))
      c.copy(aligned = SetSimilaritySpec.carried(jobsRepo, c, source))
    }
    // Jobs as the benchmark runs them: without adaptive execution, which
    // submits one job per query stage.
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    def run(names: String*): (GenT.Result, Int) = {
      val cands = names.map(cand) // opening and reading a table are jobs of their own
      JobCounter(spark)(GenT.reclaimFromCandidates(jobsRepo, cands, source, spark))
    }
    try {
      val (one, oneJobs) = run("A")
      val (keyed, keyedJobs) = run("A", "AB", "AD")
      val (expanded, expandedJobs) = run("A", "B", "D")
      assert(one.originating == Seq("A"))
      assert(keyed.originating.size >= 2, s"got ${keyed.originating}")
      assert(expanded.originating.exists(_.contains("+")), s"got ${expanded.originating}")
      assert(Seq(oneJobs, keyedJobs) == Seq(1, 1), "every candidate keyed: one collect")
      assert(expandedJobs == 1, "one collect")
      assert(keyed.reclaimed.collect().toSet == source.df.collect().toSet)
    } finally spark.conf.set("spark.sql.adaptive.enabled", aqe)
  }

  test("reclaimFromCandidates reads no keyed candidate from the lake") {
    val root = Files.createTempDirectory("gent-carried").toString
    val lake = TableRepo.create(root, spark, Map(
      "A" -> Fixtures.tableA(spark),
      "B" -> Fixtures.tableB(spark),
      "C" -> Fixtures.tableC(spark),
      "D" -> Fixtures.tableD(spark)))
    val cands = SetSimilarity.findCandidates(lake, LakeIndex.build(lake, spark), source, spark)
    val before = GenT.reclaimFromCandidates(lake, cands, source, spark)
    val keyed = SetSimilaritySpec.keyed(cands, source)
    assert(keyed.map(_.table) == Seq("A"))
    keyed.foreach(c => FileUtils.deleteDirectory(new File(new File(root, "tables"), c.table)))
    val after = GenT.reclaimFromCandidates(lake, cands, source, spark)
    assert(after.originating == before.originating)
    def bag(r: GenT.Result) = r.reclaimed.collect().toSeq.groupMapReduce(identity)(_ => 1)(_ + _)
    assert(bag(after) == bag(before))
  }
}
