package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.Generators
import repro.queries.CreditRegulation

/** Table T4 (paper Fig. 6): the credit-card regulation query end-to-end.
  *
  * Systems: Conclave with trust annotations (hybrid join + hybrid
  * aggregations, STP = regulator) vs. the whole query under Sharemind MPC.
  * Sizes are total records: half demographics at the regulator, a quarter
  * at each credit agency. The query's first operator is a cross-party join,
  * so without hybrid operators nothing can be pushed down (§7.3).
  */
object Fig6Credit {

  val DefaultSizes: Seq[Long] = Seq(300, 3000, 30000, 300000)

  def inputs(spark: SparkSession, totalRows: Long): Map[String, DataFrame] = {
    val nDemo = totalRows / 2
    val nAgency = totalRows / 4
    Map(
      "demographics" -> Generators.demographics(spark, nDemo, nZips = 50),
      "scores1" -> Generators.creditScores(spark, nAgency, nDemo, seed = 301),
      "scores2" -> Generators.creditScores(spark, nAgency, nDemo, seed = 302))
  }

  def run(spark: SparkSession, sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      val in = inputs(spark, n)
      Seq(conclaveHybrid(spark, n, in), sharemindOnly(spark, n, in))
    }

  private val parties = Set(CreditRegulation.pA, CreditRegulation.pB, CreditRegulation.pC)

  private def conclaveHybrid(spark: SparkSession, n: Long, in: Map[String, DataFrame]): BenchPoint =
    Bench.point("conclave-hybrid", n) {
      Bench.runConclave(spark, CreditRegulation.build(trustRegulator = true),
        CompileConfig.default, in, parties).metrics.reportedSeconds
    }

  private def sharemindOnly(spark: SparkSession, n: Long, in: Map[String, DataFrame]): BenchPoint =
    Bench.point("sharemind-mpc", n) {
      Bench.runConclave(spark, CreditRegulation.build(trustRegulator = false),
        CompileConfig.mpcOnly, in, parties).metrics.reportedSeconds
    }
}
