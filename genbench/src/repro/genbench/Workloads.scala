package repro.genbench

import java.io.File
import java.nio.file.{Files, Path, StandardCopyOption}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import repro.benchgen.{Distractors, TpTr}
import repro.lake.{SourceTable, TableRepo}

/** The benchmark's workloads and the lakes they run on.
  *
  * The base lake is TP-TR Small, fixed by its generator; it and a pool of
  * distractor tables are generated once under the work directory and
  * reused by later runs. The workload seed chooses which distractors are
  * embedded. Every run reclaims from its own copy of the lake, whose value
  * index it builds from scratch.
  */
object Workloads {

  val Scale: TpTr.Scale = TpTr.Small

  /** The four lake versions TP-TR makes of each base table. */
  private val Versions = Seq("n1", "n2", "e1", "e2")

  /** Distractor tables generated once; a run embeds a seeded subset. */
  val DistractorPool = 48
  private val DistractorSeed = 7

  /** A workload reclaims one source from the versions of `baseTables` in
    * the base lake (four of each) plus a seeded draw of `misleading`
    * distractors (whose columns collide with TPC-H key and
    * date domains) and `plain` ones (a vocabulary of their own). Each kind
    * is drawn one table per row-count stratum, so every seed embeds tables
    * of the same kinds and about the same sizes. One source per workload:
    * runs with different seeds must score the same source for their
    * quality figures to be comparable. The lake holds half of TP-TR
    * Small's base tables, so that set-up, a warm-up and two timed
    * reclaims fit in a run of about a minute; with all of them a set-up
    * took twice as long and a reclaim 1.7–1.9 times as long.
    */
  final case class Workload(name: String, source: String, baseTables: Seq[String],
                            misleading: Int, plain: Int)

  val all: Seq[Workload] = Seq(
    // A two-way join reclaimed in part, next to the tables that share
    // its key domains.
    Workload("tptr_small_join", "q15_partsupp_supplier",
      Seq("partsupp", "supplier", "part", "nation"), 0, 0),
    // A single-table source among distractors.
    Workload("santos_small_single", "q01_customer",
      Seq("customer", "orders", "nation", "region"), 2, 6),
  )

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(
      s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** A run's lake: its own repo, the embedded distractors, the source and
    * its integrating set.
    */
  final case class RunLake(repo: TableRepo, distractors: Seq[String], source: SourceTable,
                           intSet: Seq[String])

  private def ready(dir: File): File = new File(dir, "_GENBENCH_READY")

  /** Generate `dir` with `make` unless a finished copy is already there. */
  private def once(dir: File)(make: File => Unit): Unit =
    if (!ready(dir).exists()) {
      val tmp = new File(dir.getParentFile, dir.getName + ".tmp")
      delete(tmp.toPath)
      make(tmp)
      delete(dir.toPath)
      Files.move(tmp.toPath, dir.toPath, StandardCopyOption.ATOMIC_MOVE)
      Files.createFile(ready(dir).toPath)
    }

  def delete(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder()).forEach(Files.delete(_))
      finally s.close()
    }

  private def copyTree(from: Path, to: Path): Unit = {
    val s = Files.walk(from)
    try s.forEach { p =>
      val dst = to.resolve(from.relativize(p))
      if (Files.isDirectory(p)) Files.createDirectories(dst)
      else Files.copy(p, dst)
    } finally s.close()
  }

  private def baseDir(lakesDir: File) = new File(lakesDir, Scale.name)
  private def poolDir(lakesDir: File) = new File(lakesDir, s"distractors_$DistractorPool")
  private def manifest(lakesDir: File) = new File(poolDir(lakesDir), "manifest.tsv")

  /** A pool table: its row count, and whether its first column holds
    * key-like values instead of the table's own vocabulary.
    */
  private final case class PoolTable(name: String, rows: Long, misleading: Boolean)

  /** Generate every workload's lakes under `lakesDir` unless present. */
  def generate(spark: SparkSession, lakesDir: File): Unit = {
    once(baseDir(lakesDir)) { tmp =>
      TpTr.build(spark, tmp.getPath, Scale)
      delete(new File(tmp, "index").toPath)
      spark.catalog.clearCache()
    }
    once(poolDir(lakesDir)) { tmp =>
      val repo = TableRepo.create(tmp.getPath, spark,
        Distractors.tables(spark, DistractorPool, DistractorSeed))
      val lines = repo.allTables.map { t =>
        val first = t.df.select(t.df.columns.head).head().getString(0)
        s"${t.name}\t${t.df.count()}\t${!first.startsWith("w")}"
      }
      Files.write(new File(tmp, "manifest.tsv").toPath, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
    }
  }

  private def pool(lakesDir: File): Seq[PoolTable] =
    Files.readAllLines(manifest(lakesDir).toPath).asScala.toList.map { l =>
      val Array(n, rows, mis) = l.split("\t")
      PoolTable(n, rows.toLong, mis.toBoolean)
    }

  /** One table drawn from each of `k` strata of `tables` sorted by rows. */
  private def stratified(tables: Seq[PoolTable], k: Int, rng: scala.util.Random): Seq[String] = {
    val sorted = tables.sortBy(t => (t.rows, t.name)).toIndexedSeq
    (0 until k).map { i =>
      val (lo, hi) = (i * sorted.size / k, (i + 1) * sorted.size / k)
      sorted(lo + rng.nextInt(hi - lo)).name
    }
  }

  /** Prepare the lake of workload `w` for one run under `runDir`. */
  def prepare(spark: SparkSession, w: Workload, seed: Long,
              lakesDir: File, runDir: File): RunLake = {
    generate(spark, lakesDir)
    val base = baseDir(lakesDir)
    val rng = new scala.util.Random(seed)
    val (mis, plain) = pool(lakesDir).partition(_.misleading)
    val chosen = stratified(mis, w.misleading, rng) ++ stratified(plain, w.plain, rng)

    delete(runDir.toPath)
    val tables = new File(runDir, "tables").toPath
    for (b <- w.baseTables; v <- Versions)
      copyTree(new File(base, s"tables/${b}_$v").toPath, tables.resolve(s"${b}_$v"))
    chosen.foreach { name =>
      copyTree(new File(poolDir(lakesDir), s"tables/$name").toPath, tables.resolve(name))
    }

    val q = TpTr.queries(Scale).find(_.name == w.source).get
    val source = SourceTable(q.name,
      spark.read.parquet(new File(base, s"sources/${q.name}").getPath), q.keys)
    val intSet = q.baseTables.toSeq.sorted.flatMap(b => Versions.map(v => s"${b}_$v"))
    RunLake(TableRepo(runDir.getPath, spark), chosen, source, intSet)
  }
}
