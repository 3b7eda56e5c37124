package repro.tools

import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.benchgen.TpTr
import repro.core.{GenT, Metrics}
import repro.discovery.SetSimilarity
import repro.harness.Profile

/** Prints, for every TP-TR Small source, Set Similarity's candidate list
  * as (table, mapping, score) and Gen-T's originating tables in pick
  * order, with the output's recall and precision. Two builds that print
  * the same text discover and reclaim identically; diff the outputs to
  * check a change to discovery.
  *
  * {{{
  * sbt "Test/runMain repro.tools.CandidateLists [lakeDir]"
  * }}}
  *
  * The lake is built under `lakeDir` (a fresh temporary directory when
  * absent; an existing TP-TR lake there is reused). Spark runs with the
  * bench profile's settings ([[Profile.Bench]]).
  */
object CandidateLists {

  /** Run `body` on the TP-TR Small benchmark built under `args(0)` (see
    * above), in a Spark session of its own that is stopped afterwards.
    */
  def onTpTrSmall(appName: String, args: Array[String])(
      body: (SparkSession, TpTr.Benchmark) => Unit): Unit = {
    val spark = Profile.Bench.session(appName)
    try {
      val root = args.headOption.getOrElse(Files.createTempDirectory("tptr").toString)
      body(spark, TpTr.build(spark, root, TpTr.Small))
    } finally spark.stop()
  }

  def main(args: Array[String]): Unit = onTpTrSmall("candidate-lists", args) { (spark, bench) =>
    bench.sources.foreach { src =>
      val cands = SetSimilarity.findCandidates(bench.repo, bench.index, src, spark)
      cands.foreach { c =>
        val mapping = c.mapping.toSeq.sorted.map { case (l, s) => s"$l->$s" }.mkString(",")
        println(s"${src.name}\tcandidate\t${c.table}\t$mapping\t${c.score}")
      }
      val r = GenT.reclaimFromCandidates(bench.repo, cands, src, spark)
      val s = Metrics.all(r.reclaimed, src)
      println(s"${src.name}\toriginating\t${r.originating.mkString(",")}")
      println(s"${src.name}\tscores\trecall=${s.recall}\tprecision=${s.precision}")
    }
  }
}
