package repro.tools

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import repro.baselines.{Alite, AutoPipelineStar, Ver}
import repro.core.{GenT, Metrics}
import repro.discovery.SetSimilarity
import repro.harness.Harness

/** Prints, for every TP-TR Small source and every Table III method, the
  * method's output as its columns, row count, a SHA-256 digest of its
  * sorted row multiset and its recall and precision, or `TIMEOUT` when
  * the method returns no table. Two builds that print the same text
  * return the same rows; diff the outputs to check a change to a
  * baseline.
  *
  * {{{
  * sbt "Test/runMain repro.tools.MethodOutputs [lakeDir]"
  * }}}
  *
  * Inputs are the ones `Harness.runAll` gives each method: the renamed
  * Set Similarity candidates, or the renamed integrating set for the
  * "w/ int. set" rows. The pairs of [[Skipped]] are printed as `SKIPPED`
  * without running them. Lake and Spark set-up are
  * [[CandidateLists.onTpTrSmall]]'s; each pair's wall time goes to stderr.
  */
object MethodOutputs {

  /** (source, method) pairs that do not finish in minutes with an 8 GB
    * driver on 4 cores: Ver w/ int. set on q06 runs out of heap, the
    * others take minutes each, and q14's Ver output holds 661,804 rows.
    */
  val Skipped: Set[(String, String)] = Set(
    "q06_lineitem" -> "Ver w/ int. set",
    "q13_lineitem_orders" -> "ALITE-PS",
    "q13_lineitem_orders" -> "ALITE-PS w/ int. set",
    "q13_lineitem_orders" -> "Auto-Pipeline*",
    "q13_lineitem_orders" -> "Auto-Pipeline* w/ int. set",
    "q13_lineitem_orders" -> "Ver w/ int. set",
    "q14_lineitem_part" -> "ALITE",
    "q14_lineitem_part" -> "Ver w/ int. set",
    "q23_li_orders_customer" -> "ALITE w/ int. set",
    "q24_ps_part_supplier" -> "ALITE",
    "q24_ps_part_supplier" -> "ALITE w/ int. set")

  /** Columns, row count and digest of the sorted rows (null as `\N`). */
  def describe(df: DataFrame): String = {
    val lines = df.collect().map(r =>
      (0 until r.length).map(i => Option(r.get(i)).fold("\\N")(_.toString)).mkString("\t")).sorted
    val sha = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => sha.update((l + "\n").getBytes(UTF_8)))
    s"cols=${df.columns.mkString(",")}\trows=${lines.length}\t" +
      s"sha256=${sha.digest().map("%02x".format(_)).mkString}"
  }

  def main(args: Array[String]): Unit = CandidateLists.onTpTrSmall("method-outputs", args) {
    (spark, bench) =>
      bench.sources.foreach { src =>
        val cands = SetSimilarity.findCandidates(bench.repo, bench.index, src, spark)
        lazy val candidateDfs = cands.map(c => SetSimilarity.renamed(bench.repo, c))
        lazy val intSetDfs = bench.intSets.get(src.name).filter(_.nonEmpty)
          .map(names => Harness.intSetInputs(bench.repo, bench.index, names, src, spark))
          .getOrElse(Seq.empty)
        Harness.TableIIIMethods.foreach { m =>
          val line = if (Skipped((src.name, m.label))) "SKIPPED" else {
            val inputs = if (m.intSet) intSetDfs else candidateDfs
            val t0 = System.nanoTime()
            val out = m.algo match {
              case "gen-t" => Some(GenT.reclaimFromCandidates(bench.repo, cands, src, spark).reclaimed)
              case "alite" => Alite.run(inputs)
              case "alite-ps" => Alite.runPs(inputs, src)
              case "autopipeline" => AutoPipelineStar.run(inputs, src, spark)
              case "ver" => Ver.run(inputs, src, spark)
            }
            val text = out.fold("TIMEOUT") { df =>
              val s = Metrics.all(df, src)
              s"${describe(df)}\trecall=${s.recall}\tprecision=${s.precision}"
            }
            Console.err.println(s"[method-outputs] ${src.name} ${m.label} " +
              s"${(System.nanoTime() - t0) / 1000000} ms")
            text
          }
          println(s"${src.name}\t${m.label}\t$line")
        }
      }
  }
}
