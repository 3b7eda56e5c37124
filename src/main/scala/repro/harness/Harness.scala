package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Metrics
import repro.lake.{SourceTable, TableRepo}

/** Experiment harness: runs every method of the paper's evaluation over a
  * benchmark's source tables and aggregates the metrics into rows shaped
  * like the paper's Tables II–IV.
  */
object Harness {

  import Method._

  /** Table II's methods (larger TP-TR benchmarks). */
  val TableIIMethods: Seq[Method] = Seq(
    Alite(intSet = false), Alite(intSet = true),
    AlitePs(intSet = false), AlitePs(intSet = true),
    GenT)

  /** Table III's methods (TP-TR Small adds Auto-Pipeline* and Ver). */
  val TableIIIMethods: Seq[Method] = Seq(
    Alite(intSet = false), Alite(intSet = true),
    AlitePs(intSet = false), AlitePs(intSet = true),
    AutoPipeline(intSet = false), AutoPipeline(intSet = true),
    Ver(intSet = true),
    GenT)

  /** Table IV's methods (web benchmark). */
  val TableIVMethods: Seq[Method] = Seq(
    Alite(intSet = false), AlitePs(intSet = false), AutoPipeline(intSet = false), GenT)

  final case class SourceRun(
      source: String,
      method: String,
      scores: Option[Metrics.Scores],
      millis: Long)

  private def time[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000)
  }

  /** Run all `methods` for every source of the benchmark. A method's
    * time includes the shared Set Similarity pass unless it runs on the
    * integrating set.
    */
  def runAll(
      spark: SparkSession,
      repo: TableRepo,
      index: DataFrame,
      sources: Seq[SourceTable],
      intSets: Map[String, Seq[String]],
      methods: Seq[Method],
      verbose: Boolean = true): Seq[SourceRun] =
    sources.flatMap { source =>
      val (in, discMillis) = time {
        new Method.Inputs(spark, repo, index, source, intSets.getOrElse(source.name, Seq.empty))
      }
      methods.map { m =>
        val (outOpt, ms) = time(m.run(in))
        val totalMs = if (m.intSet) ms else ms + discMillis
        val scores = outOpt.map(out => Metrics.all(out, source))
        if (verbose) {
          val s = scores.map(s => f"rec=${s.recall}%.3f pre=${s.precision}%.3f")
            .getOrElse("TIMEOUT")
          Console.err.println(f"[harness] ${source.name}%-28s ${m.label}%-26s $s (${totalMs}ms)")
        }
        SourceRun(source.name, m.label, scores, totalMs)
      }
    }

  final case class Agg(
      method: String,
      completed: Int,
      timeouts: Int,
      perfect: Int,
      rec: Double, pre: Double, instDiv: Double, kl: Double,
      avgMillis: Double, avgSizeRatio: Double)

  def aggregate(runs: Seq[SourceRun]): Seq[Agg] = {
    runs.groupBy(_.method).toSeq.sortBy(_._1).map { case (m, rs) =>
      val ok = rs.flatMap(_.scores)
      def avg(f: Metrics.Scores => Double): Double =
        if (ok.isEmpty) Double.NaN else ok.map(f).sum / ok.size
      Agg(m, ok.size, rs.size - ok.size, ok.count(_.perfect),
        avg(_.recall), avg(_.precision), avg(_.instDiv), avg(_.kl),
        rs.map(_.millis.toDouble).sum / math.max(1, rs.size),
        avg(_.sizeRatio))
    }
  }

  /** Format aggregates as a paper-style table (one row per method). */
  def format(title: String, aggs: Seq[Agg], order: Seq[String]): String = {
    val hdr = f"${"Method"}%-28s ${"Rec"}%7s ${"Pre"}%7s ${"Inst-Div"}%9s ${"D_KL"}%9s " +
      f"${"#perf"}%6s ${"#to"}%4s ${"avg_ms"}%9s ${"out/src"}%8s"
    val rows = order.flatMap(m => aggs.find(_.method == m)).map { a =>
      def d(x: Double): String = if (x.isNaN) "   —" else f"$x%7.3f"
      f"${a.method}%-28s ${d(a.rec)}%7s ${d(a.pre)}%7s ${d(a.instDiv)}%9s " +
        (if (a.kl.isNaN) f"${"—"}%9s" else f"${a.kl}%9.3f") +
        f" ${a.perfect}%6d ${a.timeouts}%4d ${a.avgMillis}%9.0f " +
        (if (a.avgSizeRatio.isNaN) f"${"—"}%8s" else f"${a.avgSizeRatio}%8.1f")
    }
    (s"=== $title ===" +: hdr +: rows).mkString("\n")
  }
}
