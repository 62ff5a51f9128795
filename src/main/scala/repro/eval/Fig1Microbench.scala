package repro.eval

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{AggFn, Party}
import repro.data.Generators
import repro.mpc._

/** Table T1 (paper Fig. 1): single-operator microbenchmarks — aggregation,
  * join, projection — on the secret-sharing backend ("sharemind"), the
  * garbled-circuit backend ("obliv-c"), and insecure cleartext Spark.
  *
  * MPC numbers are the cost model's modeled seconds over actually-executed
  * oblivious operations; points the meter stops at the paper's two-hour cap
  * are reported as ">2h", and garbled-circuit points beyond the simulated
  * memory ceiling as "OOM" — matching how the paper's own curves end.
  */
object Fig1Microbench {

  private val parties = Set(Party("a"), Party("b"), Party("c"))

  sealed trait OpKindT { def name: String }
  case object AggOp extends OpKindT { val name = "aggregation" }
  case object JoinOp extends OpKindT { val name = "join" }
  case object ProjectOp extends OpKindT { val name = "projection" }

  /** Default sizes per operator (aggregate record count, as in Fig. 1). */
  val AggSizes: Seq[Long] = Seq(1000, 3000, 10000, 30000, 100000, 1000000)
  val JoinSizes: Seq[Long] = Seq(300, 1000, 3000, 10000, 30000, 100000)
  val ProjectSizes: Seq[Long] = Seq(10000, 100000, 300000, 1000000, 3000000)
  val SparkSizes: Seq[Long] = Seq(10000, 100000, 1000000, 10000000, 30000000)

  def run(spark: SparkSession, op: OpKindT, mpcSizes: Seq[Long], sparkSizes: Seq[Long])
      : Seq[BenchPoint] = {
    val mpc = mpcSizes.flatMap { n =>
      Seq(
        mpcPoint("sharemind", MpcBackend.sharemind(parties), op, n),
        mpcPoint("obliv-c", MpcBackend.oblivc(parties), op, n))
    }
    val clear = sparkSizes.map(n => sparkPoint(spark, op, n))
    mpc ++ clear
  }

  private[eval] def mpcPoint(sys: String, b: MpcBackend, op: OpKindT, n: Long): BenchPoint =
    Bench.point(sys, n) {
      op match {
        case AggOp =>
          val rows = keyedRows(n, nKeys = math.max(1, n / 10))
          b.aggregate("agg", b.close("in", Seq("k", "v"), rows), Seq("k"), Some("v"),
            AggFn.Sum, "s")
        case JoinOp =>
          val l = keyedRows(n / 2, nKeys = math.max(1, n / 2))
          val r = keyedRows(n - n / 2, nKeys = math.max(1, n / 2))
          b.join("join", b.close("l", Seq("k", "x"), l), b.close("r", Seq("k", "y"), r),
            Seq("k"), Seq("k"))
        case ProjectOp =>
          val rows = keyedRows(n, nKeys = math.max(1, n / 10))
          b.project(b.close("in", Seq("k", "v"), rows), Seq("k"))
      }
      b.meter.modeledSeconds
    }

  private def keyedRows(n: Long, nKeys: Long): Seq[Seq[Double]] =
    Bench.keyedRows(n, nKeys, seed = n * 31 + nKeys)

  private def sparkPoint(spark: SparkSession, op: OpKindT, n: Long): BenchPoint = {
    val inputs = (op match {
      case JoinOp =>
        Seq(Generators.keyed(spark, n / 2, math.max(1, n / 2), seed = 62),
          Generators.keyed(spark, n - n / 2, math.max(1, n / 2), seed = 63))
      case _ => Seq(Generators.keyed(spark, n, math.max(1, n / 10)))
    }).map(_.cache())
    inputs.foreach(_.count()) // materialize inputs outside the timed window
    val point = Bench.point("spark", n) {
      Bench.timed {
        op match {
          case AggOp     => inputs.head.groupBy("k").agg(sum("v")).count()
          case JoinOp    =>
            val Seq(l, r) = inputs
            l.alias("l").join(r.alias("r"), col("l.k") === col("r.k")).count()
          case ProjectOp => inputs.head.select("k").count()
        }
      }._2
    }
    inputs.foreach(_.unpersist())
    point
  }
}
