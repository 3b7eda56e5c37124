package repro.discovery

import java.nio.file.Files
import repro.{Fixtures, JobCounter, SparkSpec}
import repro.lake.{LakeIndex, TableRepo}

/** Set Similarity candidate retrieval (Algorithms 3–4). */
class SetSimilaritySpec extends SparkSpec {

  private lazy val source = Fixtures.figure3Source(spark)

  private lazy val repo: TableRepo = {
    val root = Files.createTempDirectory("setsim").toString
    TableRepo.create(root, spark, Map(
      "A" -> Fixtures.tableA(spark),
      "B" -> Fixtures.tableB(spark),
      "C" -> Fixtures.tableC(spark),
      "D" -> Fixtures.tableD(spark),
      "E" -> Fixtures.tableD(spark), // exact duplicate of D (Example 9)
      "unrelated" -> Fixtures.stringDf(spark,
        Seq("zz", "yy"), Seq(Seq("foo", "bar"), Seq("baz", "qux")))))
  }
  private lazy val index = LakeIndex.build(repo, spark)

  test("candidates with value overlap are found; unrelated tables are not") {
    val cands = SetSimilarity.findCandidates(repo, index, source, spark)
    val names = cands.map(_.table).toSet
    assert(names.contains("A"))
    assert(!names.contains("unrelated"))
  }

  test("column mapping renames candidate columns to source columns") {
    val cands = SetSimilarity.findCandidates(repo, index, source, spark)
    val a = cands.find(_.table == "A").get
    assert(a.mapping == Map("ID" -> "ID", "Name" -> "Name", "Education" -> "Education"))
    val renamed = SetSimilarity.renamed(repo, a)
    assert(renamed.columns.sorted.toSeq == Seq("Education", "ID", "Name"))
  }

  test("duplicate candidates are pruned (Example 9): only one of D/E survives") {
    val cands = SetSimilarity.findCandidates(repo, index, source, spark)
    val names = cands.map(_.table)
    assert(names.count(n => n == "D" || n == "E") == 1, s"got $names")
  }

  test("mapping is injective per table (no two columns to the same source column)") {
    val cands = SetSimilarity.findCandidates(repo, index, source, spark)
    cands.foreach { c =>
      val targets = c.mapping.values.toSeq
      assert(targets.distinct.size == targets.size, s"${c.table}: ${c.mapping}")
    }
  }

  test("a high tau excludes weak-overlap candidates") {
    // Table C's only columns are Name (full overlap) and Gender (1 of 2
    // source values = 0.5). With tau above 0.5, the Gender mapping drops;
    // Name still qualifies, so C survives with a single mapped column.
    val cands = SetSimilarity.findCandidates(repo, index, source, spark,
      SetSimilarity.Config(tau = 0.6))
    val c = cands.find(_.table == "C")
    c.foreach(cc => assert(!cc.mapping.values.toSet.contains("Gender")))
  }

  test("topK bounds the number of candidates") {
    val cands = SetSimilarity.findCandidates(repo, index, source, spark,
      SetSimilarity.Config(topK = 2))
    assert(cands.size <= 2)
  }

  test("candidate scores are finite and ordered descending") {
    val cands = SetSimilarity.findCandidates(repo, index, source, spark)
    assert(cands.forall(c => !c.score.isNaN))
  }

  test("empty source column sizes handled: source with only key column") {
    val keyOnly = repro.lake.SourceTable("ko",
      source.df.select("ID"), Seq("ID"))
    val cands = SetSimilarity.findCandidates(repo, index, keyOnly, spark)
    // A contains the ID column; candidates may be found but must map ID.
    cands.foreach(c => assert(c.mapping.values.toSet == Set("ID")))
  }

  test("Spark jobs do not grow with the candidates: a fixed set, plus one open per new table") {
    // The Figure 3 lake with `copies` extra exact copies of D. The index is
    // persisted, as a lake's is, and built through a repo of its own, so
    // the searched repo opens no table before the first call.
    def jobs(copies: Int): (Int, Int) = {
      val root = Files.createTempDirectory("setsim-jobs").toString
      TableRepo.create(root, spark, Map(
        "A" -> Fixtures.tableA(spark),
        "B" -> Fixtures.tableB(spark),
        "C" -> Fixtures.tableC(spark),
        "D" -> Fixtures.tableD(spark)) ++
        (1 to copies).map(i => s"D$i" -> Fixtures.tableD(spark)))
      val lakeIndex = LakeIndex.buildOrLoad(TableRepo(root, spark), spark)
      val searched = TableRepo(root, spark)
      val (first, firstJobs) = JobCounter(spark)(
        SetSimilarity.findCandidates(searched, lakeIndex, source, spark))
      val (second, secondJobs) = JobCounter(spark)(
        SetSimilarity.findCandidates(searched, lakeIndex, source, spark))
      assert(second == first)
      assert(first.count(_.table.startsWith("D")) == 1, s"got ${first.map(_.table)}")
      (firstJobs, secondJobs)
    }
    val (first1, second1) = jobs(1)
    val (first4, second4) = jobs(4)
    assert(second4 == second1, s"repeat call: $second1 jobs with 1 copy, $second4 with 4")
    assert(first4 - first1 <= 3, s"first call: $first1 jobs with 1 copy, $first4 with 4")
  }
}
