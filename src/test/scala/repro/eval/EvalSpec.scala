package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AggFn, Party}
import repro.mpc.{MpcBackend, MpcOutOfMemory, MpcTimeout}

/** Benchmark harness plumbing: table rendering, the two-hour cap and the
  * BenchPoint cell format used in EXPERIMENTS.md.
  */
class EvalSpec extends AnyFunSuite {

  test("BenchPoint renders seconds, notes, and failures") {
    assert(BenchPoint("s", 10, Some(1.234)).cell == "1.2")
    assert(BenchPoint("s", 10, Some(1.234), "warm").cell == "1.2 (warm)")
    assert(BenchPoint("s", 10, None, "OOM").cell == "OOM")
    assert(BenchPoint("s", 10, None, ">2h").cell == ">2h")
  }

  test("Bench.table lays out sizes x systems with gaps as dashes") {
    val t = Bench.table("demo", Seq(
      BenchPoint("sys1", 100, Some(1.0)),
      BenchPoint("sys2", 100, Some(2.0)),
      BenchPoint("sys1", 1000, None, "OOM")))
    val lines = t.linesIterator.toSeq
    assert(lines.head == "### demo")
    assert(lines(1).contains("sys1") && lines(1).contains("sys2"))
    assert(lines(2).startsWith("100") && lines(2).contains("1.0") && lines(2).contains("2.0"))
    assert(lines(3).startsWith("1000") && lines(3).contains("OOM") && lines(3).contains("—"))
  }

  test("Bench.timed measures elapsed wall time") {
    val (v, secs) = Bench.timed { Thread.sleep(30); 42 }
    assert(v == 42 && secs >= 0.02 && secs < 5.0)
  }

  private val parties = Set(Party("a"), Party("b"), Party("c"))

  private def aggregate(b: MpcBackend, n: Long): Unit =
    b.aggregate("agg", b.close("in", Seq("k", "v"), Bench.keyedRows(n, math.max(1, n / 10), seed = n)),
      Seq("k"), Some("v"), AggFn.Sum, "s")

  test("Sharemind aggregation cost grows superlinearly") {
    def modeled(n: Long): Double = {
      val b = MpcBackend.sharemind(parties)
      aggregate(b, n)
      b.meter.modeledSeconds
    }
    assert(modeled(10000) > 10 * modeled(1000))
  }

  test("a 1M-row Sharemind aggregation stops after one compare-exchange") {
    val b = MpcBackend.sharemind(parties)
    val t = intercept[MpcTimeout](aggregate(b, 1000000))
    assert(t.seconds > Bench.TimeoutSeconds)
    assert(b.meter.cmps <= 1, s"charged ${b.meter.cmps} comparisons before stopping")
  }

  test("ObliVM aggregation reproduces the paper's one-hour-plus anchor") {
    // ~4k pre-aggregated rows entering MPC (20k total at 10% distinct keys,
    // both parties) must land beyond an hour (§7.4: SMCQL >1h at the 20k mark),
    // while T6's smallest cell (~20 rows entering MPC) takes under a minute.
    def modeled(n: Long): Double = {
      val b = MpcBackend.oblivm(parties)
      try { aggregate(b, n); b.meter.modeledSeconds }
      catch { case t: MpcTimeout => t.seconds }
    }
    assert(modeled(4000) > 3600)
    assert(modeled(20) < 60)
  }

  test("microbenchmark pre-checks skip hopeless sizes without executing") {
    // The 1M-row join cell: Sharemind passes the cap after one pair, Obliv-C OOMs.
    val sm = MpcBackend.sharemind(parties)
    assert(Fig1Microbench.mpcPoint("sharemind", sm, Fig1Microbench.JoinOp, 1000000).cell == ">2h")
    assert(sm.meter.eqs <= 1, s"charged ${sm.meter.eqs} equality tests before stopping")
    // Closing 500k rows already passes Obliv-C's 4 GiB ceiling.
    val oc = MpcBackend.oblivc(parties)
    assert(Fig1Microbench.mpcPoint("obliv-c", oc, Fig1Microbench.JoinOp, 1000000).cell == "OOM")
    assert(oc.meter.gates == 0)
  }

  test("Bench.point maps the meter's stops and an over-cap time to notes") {
    assert(Bench.point("s", 1)(1.0) == BenchPoint("s", 1, Some(1.0)))
    assert(Bench.point("s", 1)(Bench.TimeoutSeconds + 1).cell == ">2h")
    assert(Bench.point("s", 1)(throw MpcTimeout("x", 8000)).cell == ">2h")
    assert(Bench.point("s", 1)(throw MpcOutOfMemory("x", "join", 2, 1)).cell == "OOM")
  }
}
