package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.data.Generators
import repro.mpc.MpcBackend
import repro.queries._
import repro.smcql.Slicing

/** A query result as plain doubles, collected on the driver. */
final case class Answer(cols: Seq[String], rows: Seq[Seq[Double]]) {
  def column(name: String): Seq[Double] = {
    val i = cols.indexWhere(_.equalsIgnoreCase(name))
    require(i >= 0, s"no column '$name' in ${cols.mkString(",")}")
    rows.map(_(i))
  }
}

object Answer {
  def of(df: DataFrame): Answer =
    Answer(df.columns.toSeq, df.collect().toSeq.map(r => (0 until r.length).map(r.getDouble)))
}

/** The modeled-clock side of one query: must be identical on every run of
  * the same inputs. `counters` holds the full `CostSnapshot` and leakage
  * counts where the caller can see them, and is empty otherwise.
  */
final case class Modeled(closedRows: Long, modeledS: Double, counters: String)

/** What one query returned and reported. `wallS` covers compile, execute
  * and collecting the output; `release` unpersists what the program handed
  * back.
  */
final case class QueryRun(
    wallS: Double,
    answer: Answer,
    reportedS: Double,
    modeled: Modeled,
    plan: Option[String],
    release: () => Unit,
)

/** One benchmark workload: seeded inputs, the query, and its check. */
sealed abstract class Workload(val name: String) {
  /** Uncached inputs, deterministic in `seed`. */
  def inputs(spark: SparkSession, seed: Long): Map[String, DataFrame]
  /** DuckDB SQL over views named like the inputs. */
  def referenceSql: String
  /** `None` when `got` matches `ref`, else what differs. */
  def check(got: Answer, ref: Answer): Option[String]
  /** `Compiler.compile`'s plan, to compare with the traced compile. */
  def expectedPlan: String
  /** The query as a user issues it. */
  def run(spark: SparkSession, inputs: Map[String, DataFrame]): QueryRun
  /** The same query, with one span per layer call (inside an open root). */
  def runTraced(spark: SparkSession, inputs: Map[String, DataFrame], t: Tracer): QueryRun
}

object Workloads {

  /** Input sizes. Spark's per-job overhead sets a floor of ~0.5 s per query
    * (~1.5 s for aspirin's 36 jobs), so larger inputs would leave a 10 s run
    * with too few queries; these keep the predicted layer dominant.
    */
  val TaxiRowsPerParty = 1000000L
  val CreditTotalRows = 60000L
  val AspirinRowsPerParty = 10000L
  val ComorbidityRowsPerParty = 20000L

  /** `Compiler.compile`'s passes, in its order. */
  val Passes: Seq[String] =
    Seq("ownership", "pushdown", "pushup", "trust", "hybrid", "sortelim", "partition")

  val all: Seq[Workload] = Seq(MarketHhi, CreditHybrid, AspirinSlicedWl, ComorbidityTopK)

  def byName(n: String): Option[Workload] = all.find(_.name == n)

  /** Every input generator of a run draws from its own seed block. */
  private def seedBase(seed: Long): Long = 1000L * seed

  private def within(tol: Double)(a: Double, b: Double): Boolean = math.abs(a - b) <= tol

  // --------------------------------------------------------- compiled path

  /** Ownership, push-down, push-up, trust, hybrid, sort elimination and
    * partition, in `Compiler.compile`'s order, one span per pass.
    */
  private def compileTraced(t: Tracer, dag: Dag, config: CompileConfig): Compiler.Plan =
    t.span("compile") { s =>
      require(config.rewrites, "traced compile covers the rewriting pipeline only")
      t.span("compile.ownership")(_ => Ownership.annotate(dag))
      t.span("compile.pushdown")(_ => PushDown(dag, config))
      t.span("compile.pushup")(_ => PushUp(dag, config))
      t.span("compile.trust")(_ => Trust.annotate(dag))
      t.span("compile.hybrid")(_ => Hybrid(dag, config))
      t.span("compile.sortelim")(_ => SortElim(dag, config))
      val stages = t.span("compile.partition")(_ => Partition(dag))
      val plan = Compiler.Plan(dag, stages)
      val nodes = plan.dag.topo
      s.count("core.ir.nodes", nodes.size.toDouble)
      s.count("core.ir.mpc_nodes", plan.mpcNodes.size.toDouble)
      s.count("core.ir.stages", stages.size.toDouble)
      s.count("core.ir.mpc_stages", stages.count(_.mpc).toDouble)
      s.count("core.ir.hybrid_ops", nodes.count(n => n.kind match {
        case _: OpKind.HybridJoin | _: OpKind.HybridAgg | _: OpKind.PublicJoin => true
        case _ => false
      }).toDouble)
      s.count("core.ir.presorted", nodes.count(_.preSorted).toDouble)
      plan
    }

  private def modeledOf(res: ExecResult): Modeled = {
    val l = res.leakage
    Modeled(res.metrics.closedRows, res.metrics.mpcModeledSeconds,
      s"${res.metrics.cost} leaks=${l.cardinalities.size}/${l.columns.size}/${l.relations.size}")
  }

  /** Counts the Executor exposes, attached to the `execute` span. */
  private def recordExec(s: Span, res: ExecResult): Unit = {
    val m = res.metrics
    val c = m.cost
    s.count("mpc.sim_s", m.mpcRealSeconds)
    s.count("exec.clear_s", math.max(0.0, m.wallSeconds - m.mpcRealSeconds))
    s.count("mpc.modeled_s", m.mpcModeledSeconds)
    s.count("mpc.rows_touched", c.rowsTouched.toDouble)
    s.count("mpc.eqs", c.eqs.toDouble)
    s.count("mpc.cmps", c.cmps.toDouble)
    s.count("mpc.muls", c.muls.toDouble)
    s.count("mpc.rounds", c.rounds.toDouble)
    s.count("mpc.shuffled_elems", c.shuffledElems.toDouble)
    s.count("frontier.closed_rows", m.closedRows.toDouble)
    s.count("frontier.leak.cardinality", res.leakage.cardinalities.size.toDouble)
    s.count("frontier.leak.column", res.leakage.columns.size.toDouble)
    s.count("frontier.leak.relation", res.leakage.relations.size.toDouble)
  }

  private def releaseAll(res: ExecResult): () => Unit =
    () => res.outputs.values.foreach(_.unpersist())

  /** A query compiled by `Compiler.compile` and run by `Executor.run` on
    * the Sharemind backend.
    */
  sealed abstract class Compiled(name: String, config: CompileConfig, parties: Set[Party],
      outName: String) extends Workload(name) {
    def build(): Dag

    lazy val expectedPlan: String = Compiler.compile(build(), config).describe

    def run(spark: SparkSession, inputs: Map[String, DataFrame]): QueryRun = {
      val t0 = System.nanoTime()
      val plan = Compiler.compile(build(), config)
      val res = new Executor(spark, MpcBackend.sharemind(parties)).run(plan, inputs)
      val answer = Answer.of(res.outputs(outName))
      val wall = (System.nanoTime() - t0) / 1e9
      QueryRun(wall, answer, res.metrics.reportedSeconds, modeledOf(res), None, releaseAll(res))
    }

    def runTraced(spark: SparkSession, inputs: Map[String, DataFrame], t: Tracer): QueryRun = {
      val t0 = System.nanoTime()
      val plan = compileTraced(t, build(), config)
      val (res, answer) = t.span("execute") { s =>
        val res = new Executor(spark, MpcBackend.sharemind(parties)).run(plan, inputs)
        val answer = Answer.of(res.outputs(outName))
        recordExec(s, res)
        (res, answer)
      }
      val wall = (System.nanoTime() - t0) / 1e9
      QueryRun(wall, answer, res.metrics.reportedSeconds, modeledOf(res), Some(plan.describe),
        releaseAll(res))
    }
  }

  // -------------------------------------------------------------- workloads

  object MarketHhi extends Compiled("market-hhi", CompileConfig.default,
      Set(MarketConcentration.pA, MarketConcentration.pB, MarketConcentration.pC),
      MarketConcentration.OutputName) {
    def build(): Dag = MarketConcentration.build()

    def inputs(spark: SparkSession, seed: Long): Map[String, DataFrame] =
      MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
        nm -> Generators.taxiTrips(spark, TaxiRowsPerParty, seed = seedBase(seed) + 10L * i)
      }.toMap

    def referenceSql: String = MarketConcentration.referenceSql

    def check(got: Answer, ref: Answer): Option[String] = {
      val (g, r) = (got.column("hhi"), ref.column("hhi"))
      if (g.size == 1 && r.size == 1 && within(1e-3)(g.head, r.head)) None
      else Some(s"hhi got=$g want=$r")
    }
  }

  object CreditHybrid extends Compiled("credit-hybrid", CompileConfig.default,
      Set(CreditRegulation.pA, CreditRegulation.pB, CreditRegulation.pC),
      CreditRegulation.OutputName) {
    def build(): Dag = CreditRegulation.build(trustRegulator = true)

    def inputs(spark: SparkSession, seed: Long): Map[String, DataFrame] = {
      val nDemo = CreditTotalRows / 2
      val nAgency = CreditTotalRows / 4
      val b = seedBase(seed)
      Map(
        "demographics" -> Generators.demographics(spark, nDemo, nZips = 50, seed = b),
        "scores1" -> Generators.creditScores(spark, nAgency, nDemo, seed = b + 10),
        "scores2" -> Generators.creditScores(spark, nAgency, nDemo, seed = b + 20))
    }

    def referenceSql: String = CreditRegulation.referenceSqlAvg

    /** Counts and totals are integers and must match exactly; the average
      * is a fixed-point division.
      */
    def check(got: Answer, ref: Answer): Option[String] = {
      def byZip(a: Answer) = a.column("zip").zip(
        a.column("cnt").lazyZip(a.column("total")).lazyZip(a.column("avg_score")).toSeq).toMap
      val (g, r) = (byZip(got), byZip(ref))
      val bad = (g.keySet ++ r.keySet).toSeq.sorted.filterNot { z =>
        (g.get(z), r.get(z)) match {
          case (Some((gc, gt, ga)), Some((rc, rt, ra))) => gc == rc && gt == rt && within(1e-3)(ga, ra)
          case _ => false
        }
      }
      if (bad.isEmpty && g.size == got.rows.size) None
      else Some(s"${bad.size} zips differ, first ${bad.take(3).map(z => (z, g.get(z), r.get(z)))}")
    }
  }

  object ComorbidityTopK extends Compiled("comorbidity-topk", CompileConfig.default,
      Set(Comorbidity.pH1, Comorbidity.pH2), Comorbidity.OutputName) {
    def build(): Dag = Comorbidity.build()

    def inputs(spark: SparkSession, seed: Long): Map[String, DataFrame] =
      Comorbidity.InputNames.zipWithIndex.map { case (nm, party) =>
        nm -> Generators.comorbidityDiagnoses(spark, ComorbidityRowsPerParty, party,
          seed = seedBase(seed) + 50)
      }.toMap

    def referenceSql: String = Comorbidity.referenceSqlCounts

    /** Ties at the cut-off make the diagnosis ids ambiguous, so compare the
      * ten counts with the reference's ten largest.
      */
    def check(got: Answer, ref: Answer): Option[String] = {
      val g = got.column("cnt").sorted(Ordering[Double].reverse)
      val r = ref.column("cnt").sorted(Ordering[Double].reverse).take(Comorbidity.TopK)
      if (g == r) None else Some(s"top counts got=$g want=$r")
    }
  }

  /** Aspirin count through `AspirinSliced.run`: slicing on the public
    * patient id, local slices in Spark, shared slices through the compiled
    * plan in SMCQL-compatibility mode.
    */
  object AspirinSlicedWl extends Workload("aspirin-sliced") {
    private val config = CompileConfig.smcqlCompat
    private val parties = Set(AspirinCount.pH1, AspirinCount.pH2)

    lazy val expectedPlan: String = Compiler.compile(AspirinCount.build(), config).describe

    def inputs(spark: SparkSession, seed: Long): Map[String, DataFrame] = {
      val b = seedBase(seed)
      Map(
        "diag1" -> Generators.diagnoses(spark, AspirinRowsPerParty, party = 0, seed = b + 30),
        "diag2" -> Generators.diagnoses(spark, AspirinRowsPerParty, party = 1, seed = b + 30),
        "med1" -> Generators.medications(spark, AspirinRowsPerParty, party = 0, seed = b + 40),
        "med2" -> Generators.medications(spark, AspirinRowsPerParty, party = 1, seed = b + 40))
    }

    def referenceSql: String = AspirinCount.referenceSql

    def check(got: Answer, ref: Answer): Option[String] = {
      val (g, r) = (got.column("rc"), ref.column("rc"))
      if (g == r) None else Some(s"count got=$g want=$r")
    }

    private def answer(count: Long) = Answer(Seq("rc"), Seq(Seq(count.toDouble)))

    def run(spark: SparkSession, inputs: Map[String, DataFrame]): QueryRun = {
      val t0 = System.nanoTime()
      val r = AspirinSliced.run(spark, inputs)
      val wall = (System.nanoTime() - t0) / 1e9
      QueryRun(wall, answer(r.count), r.reportedSeconds,
        Modeled(r.mpcClosedRows, r.mpcModeledSeconds, ""), None, () => ())
    }

    /** `AspirinSliced.run`'s steps, called one by one so each gets a span. */
    def runTraced(spark: SparkSession, inputs: Map[String, DataFrame], t: Tracer): QueryRun = {
      val t0 = System.nanoTime()
      val sliced = t.span("smcql.slice") { s =>
        val sl = Slicing.slice(spark,
          Seq(
            Map("diag" -> inputs("diag1"), "med" -> inputs("med1")),
            Map("diag" -> inputs("diag2"), "med" -> inputs("med2"))),
          keyCol = "patient")
        s.count("smcql.shared_keys", sl.sharedKeys.size.toDouble)
        sl
      }
      val localCount = t.span("smcql.local") { _ =>
        sliced.localParts.map { rels =>
          val d = rels("diag").where(col("diag") === AspirinCount.TargetDiag).alias("d")
          val m = rels("med").where(col("med") === AspirinCount.TargetMed).alias("m")
          d.join(m, col("d.patient") === col("m.patient") && col("m.mtime") >= col("d.dtime"))
            .select(col("d.patient")).distinct().count()
        }.sum
      }
      val localSeconds = (System.nanoTime() - t0) / 1e9
      val restricted = Map(
        "diag1" -> sliced.sharedParts(0)("diag"),
        "med1" -> sliced.sharedParts(0)("med"),
        "diag2" -> sliced.sharedParts(1)("diag"),
        "med2" -> sliced.sharedParts(1)("med"))
      val plan = compileTraced(t, AspirinCount.build(), config)
      val (res, mpcCount) = t.span("execute") { s =>
        val res = new Executor(spark, MpcBackend.sharemind(parties)).run(plan, restricted)
        val n = res.outputs(AspirinCount.OutputName).collect().head.getDouble(0).toLong
        recordExec(s, res)
        (res, n)
      }
      val wall = (System.nanoTime() - t0) / 1e9
      val m = res.metrics
      val reported = localSeconds + math.max(0.0, m.wallSeconds - m.mpcRealSeconds) +
        m.mpcModeledSeconds
      QueryRun(wall, answer(localCount + mpcCount), reported, modeledOf(res),
        Some(plan.describe), releaseAll(res))
    }
  }
}
