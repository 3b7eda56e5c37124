package repro.genbench

import java.io.File
import org.apache.spark.GenbenchBus
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.{GenT, Integration, Metrics}
import repro.discovery.SetSimilarity
import repro.lake.{LakeIndex, SourceTable, TableRepo}

/** Closed-loop Gen-T reclamation benchmark.
  *
  * One client reclaims the workload's source, as `Harness.runAll` does
  * for each of its sources, and times each call into a layer's public API:
  * `SetSimilarity.findCandidates`, `GenT.reclaimFromCandidates`, the
  * collect that materializes the reclaimed rows, and `Metrics.all` on
  * those rows. With `--trace 1` a [[JobLedger]] attributes every Spark job
  * to the layer whose call submitted it.
  *
  * Prints one `GENBENCH {json}` line per record (workload, set-up
  * repetition, reclaim, run summary); `genbench/run.py` aggregates them.
  *
  * {{{
  * repro.genbench.Main --workload W --seed N --seconds S --trace 0|1 --work DIR
  * repro.genbench.Main --prepare --work DIR   # generate every lake
  * }}}
  *
  * Runs meant to be compared must not generate lakes: generation warms
  * the JVM and would shorten that run's set-up.
  */
object Main {

  final case class Args(
      workload: String = "",
      seed: Long = 0L,
      seconds: Double = 10.0,
      trace: Boolean = false,
      prepare: Boolean = false,
      work: String = "")

  /** Spark local never gets more cores than the machine has, and at most 4. */
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  /** Index builds per run; `setup_s` is their median. The first build is
    * in a cold JVM, as a user's would be.
    */
  val SetupReps = 2

  /** Timed reclaims per run: at least this many, more while they fit. */
  val MinReclaims = 2

  /** Spark's defaults, except where a run could not otherwise fit its
    * budget of about a minute: with AQE and code generation on, a reclaim
    * of a 20–60-row source takes about twice as long (AQE splits every
    * query into a job per stage; each new query compiles its code), and
    * set-up, warm-up and timed reclaims no longer fit. One shuffle
    * partition is what AQE's coalescing leaves for inputs this small.
    * Broadcast joins stay off, as in the repository's test and bench suites.
    */
  val SparkSettings: Map[String, String] = Map(
    "spark.sql.shuffle.partitions" -> "1",
    "spark.sql.adaptive.enabled" -> "false",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.codegen.wholeStage" -> "false",
    "spark.sql.codegen.factoryMode" -> "NO_CODEGEN")

  private def parse(args: List[String], a: Args = Args()): Args = args match {
    case "--workload" :: v :: t => parse(t, a.copy(workload = v))
    case "--seed" :: v :: t => parse(t, a.copy(seed = v.toLong))
    case "--seconds" :: v :: t => parse(t, a.copy(seconds = v.toDouble))
    case "--trace" :: v :: t => parse(t, a.copy(trace = v == "1"))
    case "--prepare" :: t => parse(t, a.copy(prepare = true))
    case "--work" :: v :: t => parse(t, a.copy(work = v))
    case Nil => a
    case other => sys.error(s"bad arguments: ${other.mkString(" ")}")
  }

  // --- JSON records --------------------------------------------------------

  private def jstr(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def json(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => json(x)
    case s: String => jstr(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] =>
      m.map { case (k, x) => jstr(k.toString) + ":" + json(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(json).mkString("[", ",", "]")
    case other => jstr(other.toString)
  }

  /** Every record carries the JVM's uptime, so a run's time can be split. */
  private def emit(kind: String, fields: (String, Any)*): Unit = {
    val uptimeS = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    println("GENBENCH " + json(Map(("kind" -> kind) +: ("uptime_s" -> uptimeS) +: fields: _*)))
    Console.out.flush()
  }

  // --- Layer calls ---------------------------------------------------------

  /** Times calls into layers. Between `on(true)` and `off()` a
    * [[JobLedger]] listens and every call tags the Spark jobs it submits;
    * otherwise no listener is attached and nothing is tagged.
    */
  final class Tracer(spark: SparkSession) {
    private val sc = spark.sparkContext
    private var ledger: Option[JobLedger] = None

    def on(traced: Boolean): Unit =
      if (traced) {
        val l = new JobLedger
        sc.addSparkListener(l)
        ledger = Some(l)
      }

    /** Per-layer Spark stats since `on` (empty when untraced). */
    def off(): Map[String, JobLedger.Stats] = ledger match {
      case Some(l) =>
        GenbenchBus.drain(sc)
        sc.removeSparkListener(l)
        ledger = None
        l.take()
      case None => Map.empty
    }

    def call[A](layer: String)(f: => A): (A, Double) = {
      ledger.foreach(_ => sc.setLocalProperty(JobLedger.LayerKey, layer))
      val t0 = System.nanoTime()
      try {
        val a = f
        (a, (System.nanoTime() - t0) / 1e6)
      } finally ledger.foreach(_ => sc.setLocalProperty(JobLedger.LayerKey, null))
    }
  }

  private def layerFields(stats: Map[String, JobLedger.Stats]): Map[String, Any] =
    stats.map { case (layer, s) =>
      layer -> Map("jobs" -> s.jobs, "tasks" -> s.tasks,
        "shuffle_bytes" -> s.shuffleBytes, "busy_ms" -> s.busyMs)
    }

  private def cell(r: Row, i: Int): String = if (r.isNullAt(i)) null else r.get(i).toString

  /** The output checks: S's columns in S's order, only keys of S, and no
    * labeled null left over from integration. Returns the first failure.
    */
  private def check(out: DataFrame, rows: Array[Row], source: SourceTable,
                    sourceKeys: Set[Seq[String]]): Option[String] = {
    val cols = out.columns.toIndexedSeq
    val keyIdx = source.keys.map(cols.indexOf)
    if (cols != source.df.columns.toIndexedSeq)
      Some(s"columns ${cols.mkString(",")} differ from the source's")
    else rows.iterator.map { r =>
      val key = keyIdx.map(cell(r, _))
      if (!sourceKeys.contains(key)) Some(s"key ${key.mkString("|")} is not in the source")
      else cols.indices.map(cell(r, _)).find(v => v != null && v.startsWith(Integration.NullLabelPrefix))
        .map(v => s"labeled null $v left in the output")
    }.collectFirst { case Some(msg) => msg }
  }

  /** Storage Spark holds: (persisted RDDs, MB in memory and on disk). */
  private def storage(spark: SparkSession): (Int, Double) = {
    val sc = spark.sparkContext
    val bytes = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum
    (sc.getPersistentRDDs.size, bytes / 1e6)
  }

  /** Time of a fixed single-threaded loop, in ms: how fast the host ran
    * just then. Reported next to each reclaim, never used to adjust one.
    */
  private def probeMs(): Double = {
    val t0 = System.nanoTime()
    var x = 1L
    var i = 0
    while (i < 50000000) { x = x * 6364136223846793005L + 1442695040888963407L; i += 1 }
    if (x == 0L) println()
    (System.nanoTime() - t0) / 1e6
  }

  /** Reclaim, materialize and score one source. */
  private def runSource(
      spark: SparkSession, tracer: Tracer, repo: TableRepo, index: DataFrame,
      source: SourceTable, sourceKeys: Set[Seq[String]], intSet: Seq[String],
      pass: Int): Map[String, Any] = {
    val t0 = System.nanoTime()
    val base = Map[String, Any]("source" -> source.name, "pass" -> pass)
    try {
      val (cands, setsimMs) = tracer.call("setsim") {
        SetSimilarity.findCandidates(repo, index, source, spark)
      }
      val (result, integrateMs) = tracer.call("integrate") {
        GenT.reclaimFromCandidates(repo, cands, source, spark)
      }
      val (rows, materializeMs) = tracer.call("materialize") {
        result.reclaimed.collect()
      }
      val out = spark.createDataFrame(java.util.Arrays.asList(rows: _*), result.reclaimed.schema)
      val (scores, metricsMs) = tracer.call("metrics") { Metrics.all(out, source) }
      val failure = check(result.reclaimed, rows, source, sourceKeys)
      base ++ Map(
        "ok" -> true,
        "check" -> failure.getOrElse("ok"),
        "setsim_ms" -> setsimMs, "integrate_ms" -> integrateMs,
        "materialize_ms" -> materializeMs, "metrics_ms" -> metricsMs,
        "reclaim_ms" -> (setsimMs + integrateMs + materializeMs),
        "candidates" -> cands.size,
        "intset_hits" -> cands.count(c => intSet.contains(c.table)),
        "intset_size" -> intSet.size,
        "originating" -> result.originating.size,
        "rows" -> rows.length,
        "recall" -> scores.recall, "precision" -> scores.precision,
        "eis" -> scores.eis, "perfect" -> scores.perfect,
        "total_ms" -> (System.nanoTime() - t0) / 1e6)
    } catch {
      case e: Exception =>
        base ++ Map("ok" -> false, "error" -> s"${e.getClass.getSimpleName}: ${e.getMessage}",
          "total_ms" -> (System.nanoTime() - t0) / 1e6)
    }
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toList)
    val work = new File(a.work).getAbsoluteFile
    work.mkdirs()

    val spark = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("genbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
      .config(SparkSettings)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")

    if (a.prepare) {
      try Workloads.generate(spark, new File(work, "lakes"))
      finally spark.stop()
    } else {
      val w = Workloads.named(a.workload)
      val runDir = new File(work, s"runs/${w.name}-${a.seed}-${ProcessHandle.current().pid()}")
      try run(spark, a, w, work, runDir)
      finally {
        spark.stop()
        Workloads.delete(runDir.toPath)
      }
    }
  }

  private def run(spark: SparkSession, a: Args, w: Workloads.Workload,
                  work: File, runDir: File): Unit = {
    val sc = spark.sparkContext
    val lake = Workloads.prepare(spark, w, a.seed, new File(work, "lakes"), runDir)
    val source = lake.source
    emit("workload", "source" -> source.name, "tables" -> lake.repo.tableNames.size,
      "distractors" -> lake.distractors,
      "master" -> sc.master, "settings" -> SparkSettings)

    val tracer = new Tracer(spark)

    // --- Set-up: open the lake, build its index from scratch, cache it.
    var index: DataFrame = null
    (1 to SetupReps).foreach { rep =>
      if (index != null) index.unpersist(blocking = true)
      Workloads.delete(new File(runDir, "index").toPath)
      tracer.on(a.trace)
      val t0 = System.nanoTime()
      val (rows, buildMs) = tracer.call("lake") {
        index = LakeIndex.buildOrLoad(TableRepo(runDir.getPath, spark), spark).cache()
        index.count()
      }
      val setupS = (System.nanoTime() - t0) / 1e9
      emit("setup", "rep" -> rep, "setup_s" -> setupS,
        "index_build_ms" -> buildMs, "index_rows" -> rows,
        "layers" -> layerFields(tracer.off()))
    }
    // Storage held beyond the index is the source plus what reclaims leak.
    val (indexRdds, indexMb) = storage(spark)
    val keys: Set[Seq[String]] = source.df.select(source.keys.map(source.df.col): _*)
      .collect().map(r => source.keys.indices.map(cell(r, _)): Seq[String]).toSet

    // One reclaim from the inputs alone: Gen-T never releases what it
    // caches, so every reclaim starts after clearing Spark's cache and
    // re-caching the index and the source.
    def reclaim(pass: Int, traced: Boolean): Map[String, Any] = {
      spark.catalog.clearCache()
      index.cache().count()
      source.df.cache().count()
      val probe = probeMs()
      tracer.on(traced)
      val r = runSource(spark, tracer, lake.repo, index, source, keys, lake.intSet, pass)
      r ++ Map("traced" -> traced, "probe_ms" -> probe, "layers" -> layerFields(tracer.off()))
    }

    // --- Warm-up: one untimed reclaim of the same source.
    emit("warmup", reclaim(0, traced = false).toSeq: _*)

    // --- Timed: at least MinReclaims reclaims, more while another as long
    // as the last fits in the time. A traced run times reclaims in groups
    // of four, untraced, traced, traced, untraced, so the tracing overhead
    // is measured in one JVM and the JIT's warming affects both sides alike.
    val t0 = System.nanoTime()
    def elapsedS = (System.nanoTime() - t0) / 1e9
    var pass = 0
    var lastS = 0.0
    var (endRdds, endMb) = (0, 0.0)
    val minPasses = if (a.trace) 4 else MinReclaims
    while (pass < minPasses || elapsedS + lastS <= a.seconds || (a.trace && pass % 4 != 0)) {
      val p0 = elapsedS
      pass += 1
      emit("source", reclaim(pass, traced = a.trace && pass % 4 / 2 == 1).toSeq: _*)
      val (r, mb) = storage(spark)
      endRdds = r - indexRdds; endMb = mb - indexMb
      lastS = elapsedS - p0
    }
    emit("end", "wall_s" -> elapsedS, "passes" -> pass,
      "cached_rdds_end" -> endRdds, "cached_mb_end" -> endMb)
  }
}
