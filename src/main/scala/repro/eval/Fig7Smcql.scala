package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.CompileConfig
import repro.data.Generators
import repro.queries.{AspirinSliced, Comorbidity}
import repro.smcql.{SmcqlAspirin, SmcqlComorbidity}

/** Tables T5/T6 (paper Fig. 7): Conclave vs. SMCQL on the two HealthLNK
  * queries.
  *
  * T5 — aspirin count (sizes are records *per party*, 2% patient overlap):
  * Conclave uses slicing + public join + sort elimination on the
  * secret-sharing backend; SMCQL runs one ObliVM garbled-circuit MPC per
  * shared patient slice, paying a circuit setup each time.
  *
  * T6 — comorbidity (sizes are records *per party*, 10% distinct diagnosis
  * keys): both systems split the aggregation; the backends differ.
  */
object Fig7Smcql {

  val AspirinSizes: Seq[Long] = Seq(1000, 4000, 40000, 400000)
  val ComorbiditySizes: Seq[Long] = Seq(100, 1000, 10000, 100000)

  def aspirinInputs(spark: SparkSession, perParty: Long): Map[String, DataFrame] = Map(
    "diag1" -> Generators.diagnoses(spark, perParty, party = 0),
    "diag2" -> Generators.diagnoses(spark, perParty, party = 1),
    "med1" -> Generators.medications(spark, perParty, party = 0),
    "med2" -> Generators.medications(spark, perParty, party = 1))

  def comorbidityInputs(spark: SparkSession, perParty: Long): Map[String, DataFrame] = Map(
    "cdiag1" -> Generators.comorbidityDiagnoses(spark, perParty, party = 0),
    "cdiag2" -> Generators.comorbidityDiagnoses(spark, perParty, party = 1))

  def runAspirin(spark: SparkSession, sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      val in = aspirinInputs(spark, n)
      Seq(
        Bench.point("conclave", n)(AspirinSliced.run(spark, in).reportedSeconds),
        Bench.point("smcql", n)(SmcqlAspirin.run(spark, in).reportedSeconds))
    }

  def runComorbidity(spark: SparkSession, sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      val in = comorbidityInputs(spark, n)
      Seq(
        Bench.point("conclave", n) {
          Bench.runConclave(spark, Comorbidity.build(), CompileConfig.default, in,
            Set(Comorbidity.pH1, Comorbidity.pH2)).metrics.reportedSeconds
        },
        Bench.point("smcql", n)(SmcqlComorbidity.run(spark, in).reportedSeconds))
    }
}
