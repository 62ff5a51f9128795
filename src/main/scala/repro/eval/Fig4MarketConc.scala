package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.Generators
import repro.queries.MarketConcentration

/** Table T2 (paper Fig. 4): the market concentration (HHI) query end-to-end.
  *
  * Systems: Conclave (full pipeline — local Spark pre-aggregation, tiny MPC
  * tail), Sharemind-only (the entire query under MPC), and insecure Spark
  * over the pooled data. The paper's 1.3B-record top point is scaled down
  * to what a single local Spark fits; the crossover shape is preserved.
  */
object Fig4MarketConc {

  val DefaultSizes: Seq[Long] = Seq(1000, 10000, 100000, 1000000, 10000000)

  def inputs(spark: SparkSession, totalRows: Long): Map[String, DataFrame] =
    MarketConcentration.InputNames.zipWithIndex.map { case (nm, i) =>
      nm -> Generators.taxiTrips(spark, totalRows / 3, seed = 100 + i)
    }.toMap

  def run(spark: SparkSession, sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      val in = inputs(spark, n)
      Seq(conclave(spark, n, in), sharemindOnly(spark, n, in), insecureSpark(spark, n, in))
    }

  private val parties = Set(MarketConcentration.pA, MarketConcentration.pB, MarketConcentration.pC)

  private def conclave(spark: SparkSession, n: Long, in: Map[String, DataFrame]): BenchPoint =
    Bench.point("conclave", n) {
      Bench.runConclave(spark, MarketConcentration.build(), CompileConfig.default, in, parties)
        .metrics.reportedSeconds
    }

  private def sharemindOnly(spark: SparkSession, n: Long, in: Map[String, DataFrame]): BenchPoint =
    Bench.point("sharemind-mpc", n) {
      Bench.runConclave(spark, MarketConcentration.build(), CompileConfig.mpcOnly, in, parties)
        .metrics.reportedSeconds
    }

  private def insecureSpark(spark: SparkSession, n: Long, in: Map[String, DataFrame]): BenchPoint = {
    in.foreach { case (nm, df) => df.createOrReplaceTempView(nm) }
    Bench.point("insecure-spark", n) {
      Bench.timed(spark.sql(MarketConcentration.referenceSql).collect())._2
    }
  }
}
