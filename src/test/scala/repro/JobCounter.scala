package repro

import java.util.UUID
import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code submits.
  *
  * The block runs with a job-local property that Spark copies into every
  * job it submits; a listener counts the job starts that carry it. The
  * listener bus is asynchronous, so after the block a marker job is run
  * and its end awaited: the bus delivers events in order, so by then every
  * job start of the block has been seen.
  */
object JobCounter {
  private val Key = "repro.jobcounter"

  /** Run `body`; return its result and the number of jobs it submitted. */
  def apply[T](spark: SparkSession)(body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val (tag, marker) = (UUID.randomUUID().toString, UUID.randomUUID().toString)
    val jobs = new AtomicInteger()
    val markerJobs = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(Key)).foreach {
          case `tag` => jobs.incrementAndGet()
          case `marker` => markerJobs.add(e.jobId)
          case _ =>
        }
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (markerJobs.contains(e.jobId)) drained.countDown()
    }
    val previous = sc.getLocalProperty(Key)
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(Key, tag)
      val result = body
      sc.setLocalProperty(Key, marker)
      sc.parallelize(Seq(1), 1).count()
      if (!drained.await(60, TimeUnit.SECONDS)) sys.error("listener bus did not drain")
      (result, jobs.get())
    } finally {
      sc.setLocalProperty(Key, previous)
      sc.removeSparkListener(listener)
    }
  }
}
