package repro.harness

import org.apache.spark.sql.SparkSession
import repro.benchgen.TpTr

/** The scale the paper's tables run at, and the Spark settings they run
  * with (DESIGN.md §5): per TP-TR scale how many of its 26 sources run,
  * the distractor tables around TP-TR Med (SANTOS) and around the web
  * corpus (WDC), the corpus size (T2D) and how many of its tables run as
  * sources (Table IV).
  */
final case class Profile(
    small: TpTr.Scale, med: TpTr.Scale, large: TpTr.Scale,
    smallSources: Int, medSources: Int, largeSources: Int,
    distractors: Int,
    webTables: Int, webDistractors: Int, webSources: Int,
    sparkSettings: Seq[(String, String)]) {

  /** Set this profile's Spark settings on a running session. */
  def applyTo(spark: SparkSession): SparkSession = {
    sparkSettings.foreach { case (k, v) => spark.conf.set(k, v) }
    spark
  }

  /** A session of this profile's settings, on `SPARK_MASTER` (default
    * local[*]).
    */
  def session(appName: String): SparkSession = {
    val s = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName).getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    applyTo(s)
  }
}

object Profile {

  private def sparkSettings(shufflePartitions: Int): Seq[(String, String)] = Seq(
    "spark.sql.shuffle.partitions" -> shufflePartitions.toString,
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.adaptive.enabled" -> "true")

  private def env(name: String, default: Int): Int =
    sys.env.get(name).flatMap(s => scala.util.Try(s.toInt).toOption).getOrElse(default)

  /** Container scale, run by the bench suites (`sbt bench/test`) and the
    * tools. Environment variables override the counts:
    * REPRO_BENCH_SMALL_SOURCES (26), REPRO_BENCH_MED_SOURCES (8),
    * REPRO_BENCH_LARGE_SOURCES (4), REPRO_BENCH_DISTRACTORS (400, and
    * three times as many around the web corpus), REPRO_BENCH_WEB_TABLES
    * (40) and REPRO_BENCH_WEB_SOURCES (all web tables).
    */
  val Bench: Profile = {
    val distractors = env("REPRO_BENCH_DISTRACTORS", 400)
    val webTables = env("REPRO_BENCH_WEB_TABLES", 40)
    Profile(TpTr.Small, TpTr.Med, TpTr.Large,
      smallSources = env("REPRO_BENCH_SMALL_SOURCES", 26),
      medSources = env("REPRO_BENCH_MED_SOURCES", 8),
      largeSources = env("REPRO_BENCH_LARGE_SOURCES", 4),
      distractors = distractors,
      webTables = webTables, webDistractors = distractors * 3,
      webSources = env("REPRO_BENCH_WEB_SOURCES", webTables),
      sparkSettings = sparkSettings(shufflePartitions = 8))
  }

  /** The spark-submit scale ([[Experiments]]): every source, TP-TR Large
    * at SF 0.2, larger distractor pools.
    */
  val Job: Profile = Profile(TpTr.Small, TpTr.Med, TpTr.LargeFull,
    smallSources = 26, medSources = 26, largeSources = 26,
    distractors = 3000,
    webTables = 60, webDistractors = 1500, webSources = 60,
    sparkSettings = sparkSettings(shufflePartitions = 16))
}
