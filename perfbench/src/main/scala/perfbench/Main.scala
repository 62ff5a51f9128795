package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import org.apache.spark.ListenerBusAccess
import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Benchmark entry point: one workload, one seed, one closed-loop client.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir> --stamp <s>
  *
  * Set-up starts Spark, builds and caches the inputs and issues the first,
  * cold query. A short warm-up follows. The timed phase issues queries back
  * to back for `--seconds`. With `--trace 0` it prints the end-to-end
  * metrics; with `--trace 1` it alternates traced and untraced queries and
  * prints the per-layer metrics. Every answer is checked against DuckDB, and every
  * modeled-clock counter must repeat exactly, also across runs of the same
  * seed and the same sources (`--stamp`). The last stdout line is the
  * result as one JSON object.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path,
      stamp: String)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(get("workload"), get("seed").toLong, get("seconds").toInt,
      get("trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      },
      Paths.get(get("out")).toAbsolutePath,
      get("stamp"))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.byName(o.workload).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${o.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    Files.createDirectories(o.out)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", o.out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", o.out.resolve("spark-warehouse").toString)
      .getOrCreate()
    val sessionS = (System.nanoTime() - t0) / 1e9
    val ok = try new Run(spark, w, o, sessionS)() finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }
}

/** Per-query figures measured from outside the program; `root` is the
  * query's span when it was traced.
  */
final case class Sample(run: QueryRun, allocMb: Double, persistedDelta: Int, root: Option[Span])

final class Run(spark: SparkSession, w: Workload, o: Main.Opts, sessionS: Double) {
  private val sc = spark.sparkContext
  /** The first few warm queries still run up to ~40% slower than later
    * ones while the JIT settles; they are checked but not timed.
    */
  private val WarmupNs = 3000000000L

  private val tracer = new Tracer
  private val tracker = new JobTracker
  if (o.trace) sc.addSparkListener(tracker)

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private def gcMs: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum

  private var attempted = 0
  private var failed = 0
  private var deterministic = true
  private val errors = mutable.ArrayBuffer.empty[String]
  private val modeledSeen = mutable.HashMap.empty[Boolean, Modeled]
  /** The cached inputs, built once in set-up. */
  private var inputs = Map.empty[String, DataFrame]
  private var refS = 0.0

  /** The reference answer, computed on first use: after the cold query, so
    * that its Spark and DuckDB work does not warm the JVM for it.
    */
  private lazy val ref: Answer = {
    val dir = o.out.resolve(s"ref-${w.name}-${o.seed}")
    val t0 = System.nanoTime()
    try Reference.compute(inputs, w.referenceSql, dir)
    finally {
      refS = (System.nanoTime() - t0) / 1e9
      deleteTree(dir)
    }
  }

  private def error(msg: String): Unit = {
    if (errors.size < 20) errors += msg
    Console.err.println(s"[perfbench] $msg")
  }

  /** Modeled-clock figures must repeat exactly: per mode in full, and the
    * closed rows and modeled seconds across modes.
    */
  private def checkDeterminism(m: Modeled, traced: Boolean, id: String): Unit = {
    modeledSeen.get(traced) match {
      case None => modeledSeen(traced) = m
      case Some(first) if first != m =>
        deterministic = false
        error(s"$id: modeled clock changed: $m vs first $first")
      case _ => ()
    }
    modeledSeen.get(!traced).foreach { other =>
      if ((other.closedRows, other.modeledS) != (m.closedRows, m.modeledS)) {
        deterministic = false
        error(s"$id: traced and untraced modeled clocks differ: $m vs $other")
      }
    }
  }

  /** The modeled clock of a seed must also match earlier runs of the same
    * sources in this output directory. Each mode is kept apart, because
    * only the traced aspirin query sees the full counters.
    */
  private def checkAcrossRuns(): Unit = {
    val dir = Files.createDirectories(o.out.resolve("modeled"))
    modeledSeen.foreach { case (traced, m) =>
      val mode = if (traced) "traced" else "untraced"
      val file = dir.resolve(s"${w.name}-seed${o.seed}-${o.stamp}-$mode.txt")
      if (!Files.exists(file)) Files.writeString(file, m.toString)
      else if (Files.readString(file) != m.toString) {
        deterministic = false
        error(s"$mode modeled clock differs from an earlier run of this seed and these sources: " +
          s"$m vs ${Files.readString(file)}")
      }
    }
  }

  /** Issue one query, check it and release its outputs. */
  private def query(traced: Boolean, id: String): Option[Sample] = {
    sc.setJobGroup(id, w.name, interruptOnCancel = false)
    attempted += 1
    val p0 = sc.getPersistentRDDs.size
    val g0 = gcMs
    val a0 = threads.getCurrentThreadAllocatedBytes
    try {
      var root: Option[Span] = None
      var ok = false
      val r =
        if (!traced) w.run(spark, inputs)
        else tracer.span("query", id) { q =>
          root = Some(q)
          val r = w.runTraced(spark, inputs, tracer)
          ok = tracer.span("check")(_ => verify(r))
          r
        }
      val allocMb = (threads.getCurrentThreadAllocatedBytes - a0) / 1e6
      val gcS = (gcMs - g0) / 1e3
      if (!traced) ok = verify(r)
      r.release()
      if (traced) {
        ListenerBusAccess.drain(sc)
        root.foreach { q =>
          tracer.addSparkSpans(q, tracker.sqlExecutions, tracker.jobsOf(id))
          q.count("jvm.gc_s", gcS)
        }
      }
      checkDeterminism(r.modeled, traced, id)
      if (!ok) { failed += 1; None }
      else Some(Sample(r, allocMb, sc.getPersistentRDDs.size - p0, root))
    } catch {
      case e: Exception =>
        failed += 1
        error(s"$id: ${e.getClass.getSimpleName}: ${e.getMessage}")
        None
    } finally sc.clearJobGroup()
  }

  /** Answer against DuckDB, and a traced plan against `Compiler.compile`. */
  private def verify(r: QueryRun): Boolean = {
    val problems = w.check(r.answer, ref).toSeq ++
      r.plan.filter(_ != w.expectedPlan).map(p => s"traced plan differs:\n$p\nvs\n${w.expectedPlan}")
    problems.foreach(error)
    problems.isEmpty
  }

  def apply(): Boolean = {
    require(w.expectedPlan.nonEmpty)
    val t0 = System.nanoTime()
    inputs = w.inputs(spark, o.seed).map { case (k, df) => k -> df.cache() }
    val inputRows = inputs.values.map(_.count()).sum
    val buildS = (System.nanoTime() - t0) / 1e9
    val coldS = query(traced = false, "setup").fold(Double.NaN)(_.run.wallS)
    val setupS = sessionS + buildS + coldS
    val warmEnd = System.nanoTime() + WarmupNs
    var warm = 0
    while (System.nanoTime() < warmEnd) {
      query(traced = false, s"warmup-$warm")
      warm += 1
    }

    val samples = mutable.ArrayBuffer.empty[Sample]
    val deadline = System.nanoTime() + o.seconds * 1000000000L
    val minQueries = if (o.trace) 2 else 1
    var i = 0
    while (i < minQueries || System.nanoTime() < deadline) {
      query(traced = o.trace && i % 2 == 0, s"q$i").foreach(samples += _)
      i += 1
    }

    checkAcrossRuns()
    val untraced = samples.filter(_.root.isEmpty).toSeq
    val correct = failed == 0 && deterministic && untraced.nonEmpty &&
      (!o.trace || samples.exists(_.root.isDefined))
    val extra = mutable.LinkedHashMap.empty[String, String]
    val metrics: Seq[(String, Double, String)] =
      if (!correct) Seq.empty
      else if (!o.trace) endToEnd(untraced, inputRows, setupS, extra)
      else perLayer(samples.toSeq, extra)

    extra("reference_s") = Json.num(refS)
    extra("error_rate") = Json.num(failed.toDouble / attempted)
    modeledSeen.get(false).foreach(m => extra("mpc_modeled_s") = Json.num(m.modeledS))
    extra("setup_build_s") = Json.num(buildS)
    extra("setup_cold_query_s") = Json.num(coldS)
    extra("warmup_queries") = warm.toString
    report(metrics, correct, extra.toSeq, inputRows)
    if (o.trace) Files.writeString(o.out.resolve(s"spans-${w.name}-seed${o.seed}.json"), tracer.json)
    correct
  }

  private def endToEnd(s: Seq[Sample], inputRows: Long, setupS: Double,
      extra: mutable.LinkedHashMap[String, String]): Seq[(String, Double, String)] = {
    val wall = s.map(_.run.wallS)
    val p50 = Stats.median(wall)
    val (tail, pct) = Stats.tail(wall)
    extra("query_s.tail.percentile") = Json.num(pct)
    extra("query_s.n") = wall.size.toString
    extra("query_s.samples") = Json.arr(wall.map(Json.num))
    Seq(
      ("query_s.p50", p50, "s"),
      ("query_s.tail", tail, "s"),
      ("rows_per_s", inputRows / p50, "rows/s"),
      ("reported_s", Stats.median(s.map(_.run.reportedS)), "s"),
      ("setup_s", setupS, "s"),
    )
  }

  /** Which layer each span's self time belongs to. */
  private def layerOf(name: String): String = name match {
    case "compile" => "compile"
    case n if n.startsWith("compile.") => "compile"
    case "execute" => "executor"
    case n if n.startsWith("smcql.") => "smcql"
    case "check" => "check"
    case _ => "harness"
  }

  private val predictedDominant = Map(
    "market-hhi" -> "spark", "aspirin-sliced" -> "spark",
    "credit-hybrid" -> "mpc", "comorbidity-topk" -> "mpc")

  private def perLayer(s: Seq[Sample],
      extra: mutable.LinkedHashMap[String, String]): Seq[(String, Double, String)] = {
    val traced = s.filter(_.root.isDefined)
    val perQuery: Seq[Map[String, Double]] = traced.map { sample =>
      val q = sample.root.get
      val desc = tracer.spans.filter(x => x.query == q.query && x.id != q.id).toSeq
      def dur(name: String) = desc.filter(_.name == name).map(_.durNs).sum / 1e9
      def cnt(key: String) = desc.flatMap(_.counts.get(key)).sum
      def union(names: String*) = Stats.covered(
        desc.filter(x => names.contains(x.name)).map(x => (x.startNs, x.endNs)), q.startNs, q.endNs) / 1e9
      val jobs = desc.filter(_.name == "spark.job")
      // Adaptive query execution runs independent stages as concurrent jobs,
      // so Spark's busy time is the union of job intervals, not their sum.
      val jobS = union("spark.job")
      val st = tracker.statsOf(q.query)
      val self = desc.filterNot(_.name.startsWith("spark.")).groupBy(x => layerOf(x.name)).map {
        case (l, xs) => l -> xs.map(tracer.selfNs).sum / 1e9
      }.withDefaultValue(0.0)
      val simS = cnt("mpc.sim_s")
      val layers = Map(
        "compile" -> self("compile"),
        "spark" -> union("spark.sql", "spark.job"),
        "mpc" -> simS,
        "executor" -> math.max(0.0, self("executor") - simS),
        "smcql" -> self("smcql"),
        "check" -> self("check"))
      val qS = q.durNs / 1e9
      Map(
        "core.compile_s" -> dur("compile"),
        "spark.jobs" -> jobs.size.toDouble,
        "spark.stages" -> st.stages.toDouble,
        "spark.tasks" -> st.tasks.toDouble,
        "spark.job_s" -> jobS,
        "spark.sql_s" -> union("spark.sql"),
        "spark.task_run_s" -> st.taskRunMs / 1e3,
        "spark.shuffle_mb" -> st.shuffleWriteBytes / 1e6,
        "jvm.gc_s" -> q.counts.getOrElse("jvm.gc_s", 0.0),
        "smcql.slice_s" -> dur("smcql.slice"),
        "smcql.local_s" -> dur("smcql.local"),
        "query.span_s" -> qS,
      ) ++ Workloads.Passes.map(p => s"core.compile.${p}_s" -> dur(s"compile.$p")) ++
        PerLayer.SpanCounts.map(k => k -> cnt(k)) ++
        layers.map { case (l, v) => s"layer.$l.self_s" -> v } ++
        layers.collect { case (l, v) if l != "check" => s"layer.$l.share" -> v / qS }
    }
    val med = perQuery.flatMap(_.keys).distinct.map(k => k -> Stats.median(perQuery.map(_(k)))).toMap
    val untracedS = s.filter(_.root.isEmpty)
    val tracedP50 = Stats.median(traced.map(_.run.wallS))
    val untracedP50 = Stats.median(untracedS.map(_.run.wallS))
    val shares = Seq("compile", "spark", "mpc", "executor", "smcql").map(l => l -> med(s"layer.$l.share"))
    val dominant = shares.maxBy(_._2)._1
    val predicted = predictedDominant(w.name)
    extra("dominant_layer") = Json.str(dominant)
    extra("predicted_dominant_layer") = Json.str(predicted)
    extra("prediction") = Json.str(if (dominant == predicted) "confirmed" else "refuted")
    extra("traced_queries") = traced.size.toString
    extra("untraced_queries") = untracedS.size.toString
    val values = med ++ Map(
      "query.traced_p50_s" -> tracedP50,
      "query.untraced_p50_s" -> untracedP50,
      "trace.overhead_s" -> (tracedP50 - untracedP50),
      "spark.persisted_rdds" -> untracedS.map(_.persistedDelta.toDouble).sum / untracedS.size,
      "jvm.driver_alloc_mb" -> Stats.median(untracedS.map(_.allocMb)),
    )
    PerLayer.Metrics.map { case (name, unit) =>
      (name, values.getOrElse(name, sys.error(s"per-layer metric $name not measured")), unit)
    }
  }

  private def report(metrics: Seq[(String, Double, String)], correct: Boolean,
      extra: Seq[(String, String)], inputRows: Long): Unit = {
    val ctx = Seq(
      "workload" -> Json.str(w.name),
      "seed" -> o.seed.toString,
      "trace" -> o.trace.toString,
      "seconds" -> o.seconds.toString,
      "master" -> Json.str(sc.master),
      "cores" -> sc.defaultParallelism.toString,
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "spark_version" -> Json.str(sc.version),
      "java_version" -> Json.str(System.getProperty("java.version")),
      "input_rows" -> inputRows.toString,
      "sources" -> Json.str(o.stamp),
      "session_s" -> Json.num(sessionS),
      "modeled" -> Json.str(modeledSeen.values.map(_.toString).mkString(" | ")),
      "deterministic" -> deterministic.toString,
      "errors" -> Json.arr(errors.toSeq.map(Json.str)),
    ) ++ extra
    println(s"perfbench ${w.name} seed=${o.seed} trace=${if (o.trace) 1 else 0}")
    ctx.foreach { case (k, v) => println(f"  $k%-26s $v") }
    metrics.foreach { case (n, v, u) => println(f"  $n%-26s $v%14.6f $u") }
    val metricsJson = Json.obj(metrics.map { case (n, v, u) =>
      n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    })
    println(Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> metricsJson)))
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      Files.walk(p).iterator().asScala.toSeq.reverse.foreach(Files.delete)
    }
}

/** The per-layer metrics printed by `--trace 1`, with units. */
object PerLayer {
  /** Counts the workloads attach to spans, reported as they are. */
  val SpanCounts: Seq[String] = Seq(
    "core.ir.nodes", "core.ir.mpc_nodes", "core.ir.stages", "core.ir.mpc_stages",
    "core.ir.hybrid_ops", "core.ir.presorted",
    "exec.clear_s", "mpc.sim_s", "mpc.modeled_s",
    "mpc.rows_touched", "mpc.eqs", "mpc.cmps", "mpc.muls", "mpc.rounds", "mpc.shuffled_elems",
    "frontier.closed_rows", "frontier.leak.cardinality", "frontier.leak.column",
    "frontier.leak.relation", "smcql.shared_keys")

  private def unitOf(name: String): String =
    if (name.endsWith("_s")) "s"
    else if (name.endsWith("_mb")) "MB"
    else if (name.endsWith(".share")) "ratio"
    else "count"

  private val names: Seq[String] =
    Workloads.Passes.map(p => s"core.compile.${p}_s") ++ Seq("core.compile_s") ++
      SpanCounts.filter(_.startsWith("core.ir.")) ++
      Seq("spark.jobs", "spark.stages", "spark.tasks", "spark.job_s", "spark.sql_s", "spark.task_run_s",
        "spark.shuffle_mb", "spark.persisted_rdds", "exec.clear_s") ++
      SpanCounts.filter(k => k.startsWith("frontier.") || k.startsWith("mpc.")) ++
      Seq("jvm.gc_s", "jvm.driver_alloc_mb", "smcql.slice_s", "smcql.local_s", "smcql.shared_keys") ++
      Seq("compile", "spark", "mpc", "executor", "smcql", "check").map(l => s"layer.$l.self_s") ++
      Seq("compile", "spark", "mpc", "executor", "smcql").map(l => s"layer.$l.share") ++
      Seq("query.traced_p50_s", "query.untraced_p50_s", "trace.overhead_s")

  val Metrics: Seq[(String, String)] = names.map(n => n -> unitOf(n))
}
