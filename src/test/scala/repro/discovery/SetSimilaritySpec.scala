package repro.discovery

import java.nio.file.Files
import org.apache.commons.io.FileUtils
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.util.QueryExecutionListener
import repro.{Fixtures, JobCounter, SparkSpec}
import repro.core.{KeyedRows, Operators}
import repro.lake.{LakeIndex, SourceTable, TableRepo}

/** Set Similarity candidate retrieval (Algorithms 3–4). */
class SetSimilaritySpec extends SparkSpec with AdaptiveSparkPlanHelper {

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

  test("a candidate mapping every key column carries its rows with one of S's keys") {
    val cands = SetSimilarity.findCandidates(repo, index, source, spark)
    val keyed = SetSimilaritySpec.keyed(cands, source)
    assert(keyed.map(_.table) == Seq("A"))
    assert(SetSimilaritySpec.carriedMismatches(repo, keyed, source).isEmpty)
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

  test("no Spark plan of Set Similarity joins: the index is probed with S's values") {
    val plans = new ConcurrentLinkedQueue[SparkPlan]()
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        plans.add(qe.executedPlan)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
        plans.add(qe.executedPlan)
    }
    spark.listenerManager.register(listener)
    // JobCounter drains the listener bus, which also delivers these events.
    try JobCounter(spark)(SetSimilarity.findCandidates(repo, index, source, spark))
    finally spark.listenerManager.unregister(listener)
    assert(plans.size >= 4, "the source, overlaps, pairwise overlaps and verification")
    // BaseJoinExec covers SortMergeJoinExec, the hash joins,
    // BroadcastNestedLoopJoinExec and CartesianProductExec; the helper
    // walks adaptive plans' query stages and subqueries.
    val joins = plans.asScala.toSeq.flatMap(collectWithSubqueries(_) { case j: BaseJoinExec => j.nodeName })
    assert(joins.isEmpty, s"join operators: $joins")
  }

  // A source keyed on ID whose columns hold five distinct values each.
  private lazy val keyed = repro.lake.SourceTable("keyed", Fixtures.stringDf(spark,
    Seq("ID", "X", "Y", "Z"),
    (1 to 5).map(i => Seq(s"$i", s"x$i", s"y$i", s"z$i"))), Seq("ID"))

  /** `findCandidates` over a fresh lake of `tables` and the Spark jobs of
    * a repeat call (every table already opened), counted as the benchmark
    * runs Spark: without adaptive execution, which submits a job per
    * query stage.
    */
  private def countedCall(
      source: repro.lake.SourceTable,
      tables: Map[String, org.apache.spark.sql.DataFrame]): (Seq[SetSimilarity.Candidate], Int) = {
    val lake = TableRepo.create(Files.createTempDirectory("setsim-count").toString, spark, tables)
    val lakeIndex = LakeIndex.build(lake, spark)
    val first = SetSimilarity.findCandidates(lake, lakeIndex, source, spark)
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try {
      val (again, jobs) = JobCounter(spark)(SetSimilarity.findCandidates(lake, lakeIndex, source, spark))
      assert(again == first)
      (again, jobs)
    } finally spark.conf.set("spark.sql.adaptive.enabled", aqe)
  }

  test("a table that needs two repair rounds: four Spark jobs in all") {
    // `crossed` holds S's IDs deranged in AID, a name that sorts before ID,
    // so the greedy mapping tries AID → ID first.
    val rows = (1 to 5).map(i => Seq(s"${i % 5 + 1}", s"$i", s"x$i", s"y$i", s"z$i"))
    val (cands, jobs) = countedCall(keyed, Map(
      "crossed" -> Fixtures.stringDf(spark, Seq("AID", "ID", "X", "Y", "Z"), rows),
      "partial" -> Fixtures.stringDf(spark, Seq("ID", "X", "Y"),
        rows.map(_.slice(1, 4)).updated(0, Seq("1", null, "y1")))))
    // Round 1 anchors on AID → ID and fails; round 2 anchors on ID.
    assert(cands.map(c => c.table -> c.mapping).toMap == Map(
      "crossed" -> Map("ID" -> "ID", "X" -> "X", "Y" -> "Y", "Z" -> "Z"),
      "partial" -> Map("ID" -> "ID", "X" -> "X", "Y" -> "Y")))
    assert(jobs == 4, "the source, overlaps, pairwise overlaps and one verification batch")
  }

  test("a table the walk reaches outside the prefetched tables is verified in a follow-up job") {
    // Ten copies of S and `zz`, which holds S's rows and fifteen more: all
    // eleven tie on undiversified score, so the prefetch reads the first
    // topK * 8 = 8 copies by name. Diversification drops every copy but
    // one to 0 and `zz` only to 0.75 at worst, so the walk's first batch
    // reaches `zz`, and the copies ranked behind it.
    val rows = (1 to 5).map(i => Seq(s"$i", s"x$i", s"y$i", s"z$i"))
    val more = rows ++ (6 to 20).map(i => Seq(s"$i", s"x$i", s"y$i", s"z$i"))
    val copies = (1 to 10).map(i => f"c$i%02d" -> Fixtures.stringDf(spark, Seq("ID", "X", "Y", "Z"), rows))
    val lake = TableRepo.create(Files.createTempDirectory("setsim-followup").toString, spark,
      (copies :+ ("zz" -> Fixtures.stringDf(spark, Seq("ID", "X", "Y", "Z"), more))).toMap)
    val lakeIndex = LakeIndex.build(lake, spark)
    val cfg = SetSimilarity.Config(topK = 1)
    val first = SetSimilarity.findCandidates(lake, lakeIndex, keyed, spark, cfg)
    val aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    val (again, jobs) =
      try JobCounter(spark)(SetSimilarity.findCandidates(lake, lakeIndex, keyed, spark, cfg))
      finally spark.conf.set("spark.sql.adaptive.enabled", aqe)
    assert(again == first)
    // What the walk returned when each of its batches read its own tables.
    val all = Map("ID" -> "ID", "X" -> "X", "Y" -> "Y", "Z" -> "Z")
    assert(first.map(c => (c.table, c.mapping, c.score)) == Seq(("c05", all, 1.0)))
    assert(jobs == 6, "the four jobs, the follow-up for zz, and one signature job for the ties")
  }

  test("a failed verification read fails the call and leaves no job or thread behind") {
    val root = Files.createTempDirectory("setsim-fail").toString
    val lake = TableRepo.create(root, spark, Map(
      "A" -> Fixtures.tableA(spark), "B" -> Fixtures.tableB(spark), "D" -> Fixtures.tableD(spark)))
    // Persisted, so that the overlap queries do not read the lake tables.
    val lakeIndex = LakeIndex.buildOrLoad(lake, spark)
    assert(SetSimilarity.findCandidates(lake, lakeIndex, source, spark).exists(_.table == "A"))
    FileUtils.deleteDirectory(new java.io.File(new java.io.File(root, "tables"), "A"))
    // JobCounter drains the listener bus after the call.
    val (thrown, _) =
      JobCounter(spark)(intercept[Exception](SetSimilarity.findCandidates(lake, lakeIndex, source, spark)))
    assert(thrown.getMessage.contains("tables/A"), thrown.getMessage)
    assert(spark.sparkContext.statusTracker.getActiveJobIds.isEmpty)
    assert(!Thread.getAllStackTraces.keySet.asScala.exists(_.getName == "set-similarity-verification"))
  }

  test("tables equal on every source-aligned row but not elsewhere both survive dedup") {
    val aligned = (1 to 5).map(i => Seq(s"$i", s"x$i", s"y$i", s"z$i"))
    val (cands, jobs) = countedCall(keyed, Map(
      "same" -> Fixtures.stringDf(spark, Seq("ID", "X", "Y", "Z"), aligned),
      "more" -> Fixtures.stringDf(spark, Seq("ID", "X", "Y", "Z"),
        aligned :+ Seq("9", "x9", "y9", "z9"))))
    assert(cands.map(_.table).toSet == Set("same", "more"))
    // Their aligned rows tie, so only the content signatures tell them apart.
    assert(jobs == 5, "the four jobs of one batch, then one signature job for the tie")
  }

  test("a composite anchor is a tuple: (1, 23) and (12, 3) do not align") {
    // S's two-column key holds both splits of "123". `swapped` gives each of
    // them the other's value, so only half its rows agree with S: below the
    // 2.5/4 chance bound of a four-value column, and the mapping fails.
    val src = repro.lake.SourceTable("composite", Fixtures.stringDf(spark,
      Seq("a", "b", "v"),
      Seq(Seq("1", "23", "x"), Seq("12", "3", "y"), Seq("5", "6", "z"), Seq("7", "8", "w"))),
      Seq("a", "b"))
    val lake = TableRepo.create(Files.createTempDirectory("setsim-anchor").toString, spark, Map(
      "good" -> src.df,
      "swapped" -> Fixtures.stringDf(spark, Seq("a", "b", "v"),
        Seq(Seq("1", "23", "y"), Seq("12", "3", "x"), Seq("5", "6", "z"), Seq("7", "8", "w")))))
    val cands = SetSimilarity.findCandidates(lake, LakeIndex.build(lake, spark), src, spark)
    assert(cands.map(_.table) == Seq("good"))
  }
}

object SetSimilaritySpec {

  /** The candidates of `cands` that map every key column of `source`. */
  def keyed(cands: Seq[SetSimilarity.Candidate], source: SourceTable): Seq[SetSimilarity.Candidate] =
    cands.filter(c => source.keys.forall(c.mapping.values.toSet))

  /** `c`'s renamed rows semi-joined to S's keys, collected: the rows Set
    * Similarity carries for a candidate that maps every key column.
    */
  def carried(repo: TableRepo, c: SetSimilarity.Candidate, source: SourceTable): KeyedRows.Table =
    KeyedRows.collectRows(
      Seq(Operators.selectSourceKeys(SetSimilarity.renamed(repo, c), source)), "a candidate").head

  /** The candidates of `cands` whose carried rows differ from [[carried]]'s:
    * in their column set, or as a multiset of rows on the carried columns
    * (the semi-join puts the key columns first).
    */
  def carriedMismatches(
      repo: TableRepo, cands: Seq[SetSimilarity.Candidate], source: SourceTable): Seq[String] = {
    def bag(t: KeyedRows.Table) = t.rows.groupMapReduce(identity)(_ => 1)(_ + _)
    cands.filterNot { c =>
      val want = carried(repo, c, source)
      c.aligned.columns.toSet == want.columns.toSet &&
        bag(c.aligned) == bag(KeyedRows.padTo(want, c.aligned.columns))
    }.map(_.table)
  }
}
