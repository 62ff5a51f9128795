package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.mpc.{CostMeter, MpcBackend, MpcOutOfMemory, MpcTimeout}

/** One measured cell of a reproduced table: a (system, input size) pair with
  * its runtime, or a note explaining why it has none (simulated OOM, or a
  * modeled runtime beyond the paper's two-hour experiment cap).
  */
final case class BenchPoint(system: String, size: Long, seconds: Option[Double],
    note: String = "") {
  def cell: String = seconds match {
    case Some(s) if note.nonEmpty => f"$s%.1f ($note)"
    case Some(s)                  => f"$s%.1f"
    case None                     => note
  }
}

object Bench {

  /** The paper stops experiments at two hours; so do we (on modeled time). */
  val TimeoutSeconds: Double = CostMeter.CapSeconds

  /** Run one cell and report its seconds, or why it has none: ">2h" when
    * the meter stops it or its reported time passes the cap, "OOM" when a
    * garbled-circuit backend passes its memory ceiling.
    */
  def point(system: String, size: Long)(seconds: => Double): BenchPoint =
    try {
      val s = seconds
      if (s > TimeoutSeconds) BenchPoint(system, size, None, ">2h")
      else BenchPoint(system, size, Some(s))
    } catch {
      case _: MpcTimeout     => BenchPoint(system, size, None, ">2h")
      case _: MpcOutOfMemory => BenchPoint(system, size, None, "OOM")
    }

  /** `n` rows of (key in 1..nKeys, value in 0..999), deterministic in `seed`. */
  def keyedRows(n: Long, nKeys: Long, seed: Long): Seq[Seq[Double]] = {
    val rnd = new scala.util.Random(seed)
    (0L until n).map(_ => Seq((rnd.nextLong(nKeys) + 1).toDouble, rnd.nextInt(1000).toDouble))
  }

  /** Render points as a size × system table (sizes ascending). */
  def table(title: String, points: Seq[BenchPoint]): String = {
    val systems = points.map(_.system).distinct
    val sizes = points.map(_.size).distinct.sorted
    val byKey = points.map(p => (p.system, p.size) -> p).toMap
    val header = ("%-12s".format("rows") +: systems.map("%-22s".format(_))).mkString
    val rows = sizes.map { sz =>
      ("%-12d".format(sz) +: systems.map { sys =>
        "%-22s".format(byKey.get((sys, sz)).map(_.cell).getOrElse("—"))
      }).mkString
    }
    (s"### $title" +: header +: rows).mkString("\n")
  }

  /** Wall-clock a cleartext (Spark) action. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Compile and execute a Conclave query on the Sharemind backend. Up to
    * 20M rows may cross into MPC, so a cell as large as T2's 10M-row
    * Sharemind-only one is stopped by the meter, not by the close cap.
    */
  def runConclave(
      spark: SparkSession,
      dag: Dag,
      config: CompileConfig,
      inputs: Map[String, DataFrame],
      parties: Set[Party],
  ): ExecResult = {
    val plan = Compiler.compile(dag, config)
    new Executor(spark, MpcBackend.sharemind(parties), maxCloseRows = 20_000_000L).run(plan, inputs)
  }
}
