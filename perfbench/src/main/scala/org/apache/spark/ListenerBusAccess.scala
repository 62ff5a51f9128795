package org.apache.spark

/** Lets the harness wait until every queued listener event has been
  * delivered, so per-query Spark counts are complete when they are read.
  * `SparkContext.listenerBus` is package-private to Spark.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext, timeoutMillis: Long = 10000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMillis)
}
