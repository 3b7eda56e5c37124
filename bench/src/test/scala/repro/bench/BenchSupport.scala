package repro.bench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.harness.Profile

/** Shared plumbing for the per-table benchmark suites.
  *
  * Each suite renders its paper table with `repro.harness.Experiments` at
  * [[Profile.Bench]] (scales and environment knobs there), prints it and
  * also writes it under `bench/results/` so EXPERIMENTS.md can be diffed
  * against a fresh run. Lakes are generated under `target/bench-lakes/`
  * and reused by later runs. Both directories are in the checkout the
  * suites were compiled in.
  */
object BenchSupport {

  /** The nearest directory above these classes that holds `build.sbt`. */
  private val checkout: Path =
    Iterator.iterate(Paths.get(getClass.getProtectionDomain.getCodeSource.getLocation.toURI))(_.getParent)
      .takeWhile(_ != null).find(d => Files.exists(d.resolve("build.sbt")))
      .getOrElse(sys.error("bench suites: no build.sbt above their classes"))

  val lakes: String = checkout.resolve("target/bench-lakes").toString

  def emit(fileName: String, content: String): Unit = {
    val results = Files.createDirectories(checkout.resolve("bench/results"))
    Files.write(results.resolve(fileName), content.getBytes("UTF-8"))
    println(content)
  }
}

/** A bench suite: SparkSpec's shared session, with the bench profile's
  * Spark settings.
  */
trait BenchSpec extends SparkSpec {
  def session: SparkSession = Profile.Bench.applyTo(spark)
}
