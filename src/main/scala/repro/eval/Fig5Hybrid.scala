package repro.eval

import repro.core.{AggFn, Party}
import repro.mpc._

/** Table T3 (paper Fig. 5): hybrid operator microbenchmarks.
  *
  * T3a compares the standard MPC join against Conclave's hybrid join and
  * public join; T3b compares the MPC aggregation against the hybrid
  * aggregation. Input sizes are records *per party* (two contributing
  * parties for joins, matching §7.2's setup); all runs use the
  * secret-sharing backend, with an STP authorized via trust annotations.
  */
object Fig5Hybrid {

  private val pA = Party("a"); private val pB = Party("b"); private val pC = Party("c")
  private val parties = Set(pA, pB, pC)

  val JoinSizes: Seq[Long] = Seq(1000, 10000, 50000, 200000)
  val AggSizes: Seq[Long] = Seq(1000, 10000, 50000, 200000)

  def runJoins(sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      Seq(mpcJoin(n), hybridJoin(n), publicJoin(n))
    }

  def runAggs(sizes: Seq[Long]): Seq[BenchPoint] =
    sizes.flatMap { n =>
      Seq(mpcAgg(n), hybridAgg(n))
    }

  private def mpcJoin(n: Long): BenchPoint = Bench.point("mpc-join", n) {
    val b = MpcBackend.sharemind(parties)
    b.join("j", b.close("l", Seq("k", "x"), Bench.keyedRows(n, n, seed = 1)),
      b.close("r", Seq("k", "y"), Bench.keyedRows(n, n, seed = 2)), Seq("k"), Seq("k"))
    b.meter.modeledSeconds
  }

  private def hybridJoin(n: Long): BenchPoint = Bench.point("hybrid-join", n) {
    val b = MpcBackend.sharemind(parties)
    b.hybridJoin("j", b.close("l", Seq("k", "x"), Bench.keyedRows(n, n, seed = 1)),
      b.close("r", Seq("k", "y"), Bench.keyedRows(n, n, seed = 2)), Seq("k"), Seq("k"), stp = pC)
    b.meter.modeledSeconds
  }

  private def publicJoin(n: Long): BenchPoint = Bench.point("public-join", n) {
    val b = MpcBackend.sharemind(parties)
    b.publicJoin("j", b.close("l", Seq("k", "x"), Bench.keyedRows(n, n, seed = 1)),
      b.close("r", Seq("k", "y"), Bench.keyedRows(n, n, seed = 2)), Seq("k"), Seq("k"), host = pA)
    b.meter.modeledSeconds
  }

  private def mpcAgg(n: Long): BenchPoint = Bench.point("mpc-agg", n) {
    val b = MpcBackend.sharemind(parties)
    b.aggregate("a", b.close("in", Seq("k", "v"), Bench.keyedRows(n, math.max(1, n / 10), seed = 3)),
      Seq("k"), Some("v"), AggFn.Sum, "s")
    b.meter.modeledSeconds
  }

  private def hybridAgg(n: Long): BenchPoint = Bench.point("hybrid-agg", n) {
    val b = MpcBackend.sharemind(parties)
    b.hybridAggregate("a", b.close("in", Seq("k", "v"), Bench.keyedRows(n, math.max(1, n / 10), seed = 3)),
      Seq("k"), Some("v"), AggFn.Sum, "s", stp = pC)
    b.meter.modeledSeconds
  }
}
