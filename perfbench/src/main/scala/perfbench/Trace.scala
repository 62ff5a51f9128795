package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

import scala.collection.mutable

/** One timed call into a layer: name, start, end and the span that caused
  * it. Spans of one query share `query`, which is also the Spark job group.
  * Times are nanoseconds on the epoch clock, so spans built from Spark
  * listener events (millisecond epoch times) line up with the harness's.
  */
final class Span(val id: Int, val name: String, val parent: Int, val query: String,
    val startNs: Long) {
  var endNs: Long = -1L
  val counts: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  def durNs: Long = endNs - startNs
  def count(key: String, value: Double): Unit = counts(key) = value

  def json: String = Json.obj(Seq(
    "id" -> id.toString, "name" -> Json.str(name), "parent" -> parent.toString,
    "query" -> Json.str(query), "start_ns" -> startNs.toString, "end_ns" -> endNs.toString,
    "counts" -> Json.obj(counts.toSeq.map { case (k, v) => k -> Json.num(v) })))
}

/** In-memory span recorder; written out once, when the run ends. */
final class Tracer {
  private val originNano = System.nanoTime()
  private val originEpochNs = System.currentTimeMillis() * 1000000L
  private val stack = mutable.Stack.empty[Span]
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty

  def now: Long = System.nanoTime() - originNano + originEpochNs

  private def open(name: String, query: String, parent: Int, start: Long): Span = {
    val s = new Span(spans.length, name, parent, query, start)
    spans += s
    s
  }

  /** Record `body` as a child of the innermost open span (a root if none). */
  def span[A](name: String, query: String = "")(body: Span => A): A = {
    val parent = stack.headOption
    val s = open(name, parent.map(_.query).getOrElse(query), parent.map(_.id).getOrElse(-1), now)
    stack.push(s)
    try body(s)
    finally { s.endNs = now; stack.pop() }
  }

  /** Attach the Spark work of `root`'s query: one `spark.sql` span per SQL
    * execution that started inside it, under the deepest harness span that
    * holds its start, then one `spark.job` span per job of its job group,
    * under the deepest span, SQL execution included, that holds its start.
    */
  def addSparkSpans(root: Span, sqls: Seq[JobTracker.Interval], jobs: Seq[JobTracker.Interval]): Unit = {
    val slackNs = 1000000L // listener times have millisecond resolution
    def add(name: String, iv: JobTracker.Interval): Unit = {
      val startNs = iv.startMs * 1000000L
      val holder = spans.filter(s => s.query == root.query && s.name != "spark.job" &&
        (name == "spark.job" || s.name != "spark.sql") &&
        s.startNs - slackNs <= startNs && startNs <= s.endNs + slackNs)
      val s = open(name, root.query, holder.maxByOption(depth).map(_.id).getOrElse(root.id), startNs)
      s.endNs = math.max(startNs, iv.endMs * 1000000L)
      s.count("id", iv.id.toDouble)
    }
    sqls.filter(iv => iv.startMs * 1000000L >= root.startNs - slackNs &&
      iv.startMs * 1000000L <= root.endNs).foreach(add("spark.sql", _))
    jobs.foreach(add("spark.job", _))
  }

  private def depth(s: Span): Int =
    if (s.parent < 0) 0 else 1 + depth(spans(s.parent))

  /** Span duration minus the part of its interval its children cover. */
  def selfNs(s: Span): Long = {
    val children = spans.filter(_.parent == s.id).map(c => (c.startNs, c.endNs)).toSeq
    s.durNs - Stats.covered(children, s.startNs, s.endNs)
  }

  def json: String = Json.arr(spans.map(_.json).toSeq)
}

/** Spark listener that attributes jobs, stages, tasks and shuffle bytes to
  * the job group that issued them, and records when each SQL execution ran.
  * Read only after draining the bus.
  */
final class JobTracker extends SparkListener {
  import JobTracker._

  private val jobs = mutable.LinkedHashMap.empty[Int, (String, Interval)]
  private val sqls = mutable.LinkedHashMap.empty[Long, Interval]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val groups = mutable.HashMap.empty[String, GroupStats]

  private def stats(g: String): GroupStats = groups.getOrElseUpdate(g, new GroupStats)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    jobs(e.jobId) = (g, Interval(e.jobId.toLong, e.time, e.time))
    e.stageIds.foreach(stageGroup(_) = g)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach { case (g, iv) => jobs(e.jobId) = (g, iv.copy(endMs = e.time)) }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        sqls(s.executionId) = Interval(s.executionId, s.time, s.time)
      case s: SparkListenerSQLExecutionEnd =>
        sqls.get(s.executionId).foreach(iv => sqls(s.executionId) = iv.copy(endMs = s.time))
      case _ => ()
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageGroup.get(e.stageInfo.stageId).foreach(stats(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { g =>
      val s = stats(g)
      s.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        s.taskRunMs += m.executorRunTime
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  def jobsOf(group: String): Seq[Interval] = synchronized {
    jobs.values.collect { case (g, iv) if g == group => iv }.toSeq
  }
  def sqlExecutions: Seq[Interval] = synchronized { sqls.values.toSeq }
  def statsOf(group: String): GroupStats = synchronized { groups.getOrElse(group, new GroupStats) }
}

object JobTracker {
  /** A job or SQL execution, timed in epoch milliseconds. */
  final case class Interval(id: Long, startMs: Long, endMs: Long)

  final class GroupStats {
    var stages = 0L
    var tasks = 0L
    var taskRunMs = 0L
    var shuffleWriteBytes = 0L
  }
}
