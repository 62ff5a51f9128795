package repro.queries

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.smcql.Slicing

/** Aspirin-count query from the SMCQL paper, evaluated in §7.4 (Fig. 7a).
  *
  * Two hospitals each hold part of `diagnoses` and part of `medications`.
  * The query joins them on the *public* (anonymized) patient ID, filters by
  * target diagnosis and prescribed medication (both private columns) and by
  * prescription-after-diagnosis timing, and counts the distinct patients.
  *
  * Compiled in SMCQL-compatibility mode (no push-down past private filters,
  * §7.4), Conclave still wins through the *public join* — only rows whose
  * patient IDs appear in the join enter MPC — and through *sort
  * elimination*: the public join's host emits rows in patient order, the
  * MPC filters are order-preserving, so the distinct needs no oblivious
  * sort, reducing the MPC from O(n log n) to O(n).
  */
object AspirinCount {

  val pH1: Party = Party("h1"); val pH2: Party = Party("h2")
  val InputNames: Seq[String] = Seq("diag1", "diag2", "med1", "med2")
  val OutputName = "aspirin_count"

  /** Target diagnosis code (heart disease) and medication code (aspirin). */
  val TargetDiag = 1.0
  val TargetMed = 1.0

  def build(): Dag = {
    val dag = new Dag
    val q = new Dsl(dag)
    import q._
    val d1 = table("diag1", pH1, publicCol("patient"), col("diag"), col("dtime"))
    val d2 = table("diag2", pH2, publicCol("patient"), col("diag"), col("dtime"))
    val m1 = table("med1", pH1, publicCol("patient"), col("med"), col("mtime"))
    val m2 = table("med2", pH2, publicCol("patient"), col("med"), col("mtime"))
    val d = concat(d1, d2)
    val m = concat(m1, m2)
    d.join(m, Seq("patient"), Seq("patient"))
      .filter("diag", CmpOp.Eq, TargetDiag)
      .filter("med", CmpOp.Eq, TargetMed)
      .filterCol("mtime", CmpOp.Geq, "dtime")
      .project("patient")
      .distinct
      .aggregate(Seq.empty, AggFn.Count, None, "rc")
      .writeTo(OutputName, pH1)
    dag
  }

  /** SMCQL's slicing of the four inputs on the public patient id (§7.4):
    * per party, a "diag" and a "med" relation.
    */
  def slice(spark: SparkSession, inputs: Map[String, DataFrame]): Slicing.Sliced =
    Slicing.slice(spark,
      Seq(
        Map("diag" -> inputs("diag1"), "med" -> inputs("med1")),
        Map("diag" -> inputs("diag2"), "med" -> inputs("med2"))),
      keyCol = "patient")

  /** The query in the clear over one party's "diag" and "med" slices (Spark). */
  def countClear(rels: Map[String, DataFrame]): Long = {
    import org.apache.spark.sql.functions.col
    val d = rels("diag").where(col("diag") === TargetDiag).alias("d")
    val m = rels("med").where(col("med") === TargetMed).alias("m")
    d.join(m, col("d.patient") === col("m.patient") && col("m.mtime") >= col("d.dtime"))
      .select(col("d.patient")).distinct().count()
  }

  /** Cleartext reference over the union of both hospitals' inputs. */
  val referenceSql: String =
    """WITH d AS (SELECT * FROM diag1 UNION ALL SELECT * FROM diag2),
      |m AS (SELECT * FROM med1 UNION ALL SELECT * FROM med2)
      |SELECT CAST(COUNT(DISTINCT d.patient) AS DOUBLE) AS rc
      |FROM d JOIN m ON d.patient = m.patient
      |WHERE CAST(d.diag AS DOUBLE) = 1 AND CAST(m.med AS DOUBLE) = 1
      |  AND CAST(m.mtime AS DOUBLE) >= CAST(d.dtime AS DOUBLE)
      |""".stripMargin
}
