package org.apache.spark

/** Waits until every Spark listener has seen every event posted so far.
  *
  * The listener bus is asynchronous: when an action returns, its
  * `SparkListenerJobEnd` has been posted but maybe not delivered. The
  * benchmark drains the bus before it reads its job ledger, so a layer's
  * jobs are all counted against that layer. `waitUntilEmpty` is
  * `private[spark]`, hence this package.
  */
object GenbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
