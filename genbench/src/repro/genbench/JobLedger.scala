package repro.genbench

import org.apache.spark.scheduler._
import scala.collection.mutable

/** Attributes Spark jobs to Gen-T layers from outside the program.
  *
  * The benchmark sets the job-local property [[JobLedger.LayerKey]] around
  * each call into a layer's public API; Spark copies local properties into
  * every job the call submits (AQE's threads included). Call-site stacks
  * cannot do this: most jobs report `CompletableFuture` as their site.
  *
  * Busy time is the union of a layer's job intervals, never their sum:
  * jobs of one layer overlap.
  */
final class JobLedger extends SparkListener {
  import JobLedger._

  private val stageLayer = mutable.Map[Int, String]()
  private val running = mutable.Map[Int, (String, Long)]()
  private val stats = mutable.Map[String, Stats]()

  private def stat(layer: String): Stats = stats.getOrElseUpdate(layer, new Stats)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val layer = Option(e.properties).flatMap(p => Option(p.getProperty(LayerKey)))
      .getOrElse(Untagged)
    running(e.jobId) = (layer, e.time)
    e.stageIds.foreach(stageLayer(_) = layer)
    stat(layer).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    running.remove(e.jobId).foreach { case (layer, t0) =>
      stat(layer).intervals += ((t0, e.time))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val s = stat(stageLayer.getOrElse(e.stageId, Untagged))
    s.tasks += 1
    Option(e.taskMetrics).foreach(m => s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten)
  }

  /** Stats per layer since the last call; the caller drains the bus first. */
  def take(): Map[String, Stats] = synchronized {
    val out = stats.toMap
    stats.clear()
    stageLayer.clear()
    out
  }
}

object JobLedger {
  val LayerKey = "genbench.layer"
  val Untagged = "untagged"

  final class Stats {
    var jobs = 0L
    var tasks = 0L
    var shuffleBytes = 0L
    val intervals = mutable.ArrayBuffer[(Long, Long)]()

    /** Length of the union of the job intervals, in ms. */
    def busyMs: Long = {
      var total = 0L
      var end = Long.MinValue
      intervals.sortBy(_._1).foreach { case (s, e) =>
        if (e > end) { total += e - math.max(s, end); end = e }
      }
      total
    }
  }
}
