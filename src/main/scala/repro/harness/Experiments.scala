package repro.harness

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.benchgen.{TpTr, WebBench}
import repro.lake.TableRepo

/** The paper's evaluation tables (§VI, Tables I–IV), each computed and
  * rendered here once, at a [[Profile]]'s scale, over lakes generated
  * under `lakes` (one directory per lake; a lake already there is
  * reused). The bench suites run them at [[Profile.Bench]]; the
  * spark-submit entrypoint at [[Profile.Job]]:
  *
  * {{{
  * spark-submit --class repro.harness.Experiments <jar> I|II|III|IV [workDir]
  * }}}
  *
  * `workDir` (default /tmp/gen-t-repro) holds the generated lakes.
  */
object Experiments {

  /** A rendered method table, with the runs and aggregates behind it. */
  final case class Table(text: String, aggs: Seq[Harness.Agg], runs: Seq[Harness.SourceRun]) {
    /** The sources `method` reclaims perfectly, sorted. */
    def perfect(method: String): Seq[String] =
      runs.filter(r => r.method == method && r.scores.exists(_.perfect)).map(_.source).sorted
  }

  /** One lake's row of Table I. */
  final case class LakeStats(name: String, tables: Int, columns: Long, avgRows: Long, sizeMb: Double)

  def lakeStats(name: String, repo: TableRepo): LakeStats = {
    def size(f: File): Long =
      if (f.isFile) f.length() else Option(f.listFiles()).map(_.map(size).sum).getOrElse(0L)
    val tables = repo.allTables
    val rows = tables.map(_.df.count())
    LakeStats(name, tables.size, tables.map(_.columns.size.toLong).sum,
      if (rows.isEmpty) 0L else rows.sum / rows.size,
      tables.map(t => size(new File(repo.root, s"tables/${t.name}"))).sum / 1e6)
  }

  private def tptr(spark: SparkSession, lakes: String, scale: TpTr.Scale): TpTr.Benchmark =
    TpTr.build(spark, s"$lakes/${scale.name}", scale)

  private def santos(spark: SparkSession, p: Profile, lakes: String): TpTr.Benchmark =
    TpTr.build(spark, s"$lakes/santos_med", p.med, distractors = p.distractors)

  private def wdc(spark: SparkSession, p: Profile, lakes: String): WebBench.Benchmark =
    WebBench.build(spark, s"$lakes/wdc", nTables = p.webTables, distractors = p.webDistractors)

  private def withPaper(measured: String, paperRows: Seq[(String, String)]): String = {
    val paper = ("--- paper reports (Rec Pre Inst-Div D_KL) ---" +:
      paperRows.map { case (m, v) => f"$m%-28s $v" }).mkString("\n")
    s"$measured\n$paper\n"
  }

  /** Table I: the statistics of each benchmark lake. */
  def tableI(spark: SparkSession, p: Profile, lakes: String): (String, Seq[LakeStats]) = {
    val stats = Seq(
      lakeStats("TP-TR Small", tptr(spark, lakes, p.small).repo),
      lakeStats("TP-TR Med", tptr(spark, lakes, p.med).repo),
      lakeStats("TP-TR Large", tptr(spark, lakes, p.large).repo),
      lakeStats("SANTOS Large +TP-TR Med", santos(spark, p, lakes).repo),
      lakeStats("T2D Gold (web)",
        WebBench.build(spark, s"$lakes/t2d", nTables = p.webTables).repo),
      lakeStats("WDC Sample +T2D Gold", wdc(spark, p, lakes).repo))
    val measured = (f"${"Benchmark"}%-26s ${"#Tables"}%8s ${"#Cols"}%8s ${"AvgRows"}%9s ${"SizeMB"}%9s" +:
      stats.map(s => f"${s.name}%-26s ${s.tables}%8d ${s.columns}%8d ${s.avgRows}%9d ${s.sizeMb}%9.1f"))
      .mkString("\n")
    val paper =
      """--- paper reports (#Tables #Cols AvgRows SizeMB) ---
        |TP-TR Small                32      244       782         3
        |TP-TR Med                  32      244     10800        40
        |TP-TR Large                32      244   1000000      3900
        |SANTOS Large +TP-TR Med 11000   122000      7700     11000
        |T2D Gold                  515     2147        74         4
        |WDC Sample +T2D Gold    15000    75000        14        66""".stripMargin
    (s"=== Table I: lake statistics ===\n$measured\n$paper\n", stats)
  }

  /** One of Table II's three benchmarks, with the paper's rows for it. */
  sealed abstract class TableII(val title: String, val paper: Seq[(String, String)])

  object TableII {
    case object Med extends TableII("Table II: TP-TR Med", Seq(
      "ALITE" -> "0.662 0.202 0.100 35.831",
      "ALITE w/ int. set" -> "0.694 0.202 0.085 36.348",
      "ALITE-PS" -> "0.880 0.556 0.009  3.524",
      "ALITE-PS w/ int. set" -> "0.880 0.569 0.009  3.524",
      "Gen-T" -> "0.976 0.867 0.004  1.326"))
    case object Santos extends TableII("Table II: SANTOS Large +TP-TR Med", Seq(
      "ALITE" -> "—",
      "ALITE w/ int. set" -> "0.694 0.202 0.085 36.348",
      "ALITE-PS" -> "0.842 0.554 0.011  4.629",
      "ALITE-PS w/ int. set" -> "0.880 0.569 0.009  3.524",
      "Gen-T" -> "0.976 0.867 0.004  1.326"))
    case object Large extends TableII("Table II: TP-TR Large", Seq(
      "ALITE" -> "— (timeout)",
      "ALITE w/ int. set" -> "— (timeout)",
      "ALITE-PS" -> "0.775 0.521 0.049 21.978",
      "ALITE-PS w/ int. set" -> "0.880 0.569 0.009  3.524",
      "Gen-T" -> "0.971 0.807 0.004  1.490"))
    val all: Seq[TableII] = Seq(Med, Santos, Large)
  }

  private def tpTrTable(spark: SparkSession, bench: TpTr.Benchmark, n: Int, methods: Seq[Method],
                        title: String, paper: Seq[(String, String)]): Table = {
    val runs = Harness.runAll(spark, bench.repo, bench.index, bench.sources.take(n),
      bench.intSets, methods)
    val aggs = Harness.aggregate(runs)
    Table(withPaper(Harness.format(s"$title ($n sources)", aggs, methods.map(_.label)), paper),
      aggs, runs)
  }

  /** Table II: ALITE / ALITE-PS / Gen-T on one of the larger TP-TR
    * benchmarks.
    */
  def tableII(spark: SparkSession, p: Profile, lakes: String, which: TableII): Table = {
    val (bench, n) = which match {
      case TableII.Med => (tptr(spark, lakes, p.med), p.medSources)
      case TableII.Santos => (santos(spark, p, lakes), p.medSources)
      case TableII.Large => (tptr(spark, lakes, p.large), p.largeSources)
    }
    tpTrTable(spark, bench, n, Harness.TableIIMethods, which.title, which.paper)
  }

  /** Table III: every method on TP-TR Small. */
  def tableIII(spark: SparkSession, p: Profile, lakes: String): Table =
    tpTrTable(spark, tptr(spark, lakes, p.small), p.smallSources, Harness.TableIIIMethods,
      "Table III: TP-TR Small", Seq(
        "ALITE" -> "0.704 0.128 0.095  1.332",
        "ALITE w/ int. set" -> "0.745 0.133 0.086  1.197",
        "ALITE-PS" -> "0.805 0.539 0.040  0.655",
        "ALITE-PS w/ int. set" -> "0.833 0.552 0.037  0.688",
        "Auto-Pipeline*" -> "0.674 0.272 0.158  2.574",
        "Auto-Pipeline* w/ int. set" -> "0.683 0.289 0.133  2.109",
        "Ver w/ int. set" -> "0.746 0.351 0.127 10.393",
        "Gen-T" -> "0.954 0.799 0.015  0.165"))

  /** Table IV's protocol: the sources for which every method produced a
    * non-empty output, and the runs to aggregate — those sources' runs,
    * or every run when no source is common.
    */
  def commonSources(runs: Seq[Harness.SourceRun]): (Set[String], Seq[Harness.SourceRun]) = {
    val common = runs.groupBy(_.source).collect {
      case (s, rs) if rs.forall(r => r.scores.exists(_.outputCells > 0)) => s
    }.toSet
    val commonRuns = runs.filter(r => common.contains(r.source))
    (common, if (commonRuns.nonEmpty) commonRuns else runs)
  }

  /** Table IV and §VI-D: the web corpus, each table a source with its own
    * table out of discovery. Also returns the planted reclaimable sources.
    */
  def tableIV(spark: SparkSession, p: Profile, lakes: String): (Table, Set[String]) = {
    val bench = wdc(spark, p, lakes)
    val runs = Harness.runAll(spark, bench.repo, bench.index,
      bench.sources.take(p.webSources), Map.empty, Harness.TableIVMethods)
    val (common, scored) = commonSources(runs)
    val aggs = Harness.aggregate(scored)
    val measured = Harness.format(
      s"Table IV: web corpus (${common.size} common non-empty sources of ${bench.sources.size})",
      aggs, Harness.TableIVMethods.map(_.label))
    val table = Table(withPaper(measured, Seq(
      "ALITE" -> "0.956 0.490 0.009  0.627",
      "ALITE-PS" -> "0.956 0.796 0.009  0.627",
      "Auto-Pipeline*" -> "0.881 0.725 0.088 19.261",
      "Gen-T" -> "0.956 1.000 0.009  0.627")), aggs, runs)
    // §VI-D counts: perfectly reclaimed sources and duplicate detections.
    val genTPerfect = table.perfect(Method.GenT.label)
    val summary = s"Gen-T perfectly reclaims ${genTPerfect.size} sources: " +
      s"${genTPerfect.mkString(", ")}\n" +
      s"(planted: ${bench.reclaimable.toSeq.sorted.mkString(", ")} + " +
      s"${bench.duplicates.count(!_.endsWith("_dup"))} duplicate sets)\n"
    (table.copy(text = table.text + summary), bench.reclaimable)
  }

  def main(args: Array[String]): Unit = {
    val p = Profile.Job
    val lakes = args.lift(1).getOrElse("/tmp/gen-t-repro")
    val render: Option[SparkSession => Seq[String]] = args.headOption.filter(_ => args.length <= 2).collect {
      case "I" => s => Seq(tableI(s, p, lakes)._1)
      case "II" => s => TableII.all.map(tableII(s, p, lakes, _).text)
      case "III" => s => Seq(tableIII(s, p, lakes).text)
      case "IV" => s => Seq(tableIV(s, p, lakes)._1.text)
    }
    render match {
      case Some(r) =>
        val spark = p.session(s"gen-t-table-${args(0)}")
        try r(spark).foreach(print) finally spark.stop()
      case None =>
        System.err.println("usage: repro.harness.Experiments I|II|III|IV [workDir]")
        sys.exit(2)
    }
  }
}
