package repro.mpc

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props.{forAll, forAll2}

/** Value-level tests of the secret-sharing and garbled-circuit engines. */
class EngineSpec extends AnyFunSuite {

  private def freshSS(): SecretSharingEngine =
    new SecretSharingEngine(1L, new CostMeter(CostParams.Sharemind))
  private def freshGC(): GarbledCircuitEngine =
    new GarbledCircuitEngine(new CostMeter(CostParams.OblivC))

  private val smallLongs = Gen.chooseNum(-1000000L, 1000000L)

  test("secret sharing round-trips arbitrary ring elements") {
    val e = freshSS()
    forAll(smallLongs) { x => assert(e.open(e.input(x)) == x) }
  }

  test("shares of the same value differ (fresh randomness)") {
    val e = freshSS()
    val a = e.input(42L); val b = e.input(42L)
    assert(a != b)
    assert(e.open(a) == 42L && e.open(b) == 42L)
  }

  test("individual shares look uniform: no single share equals the secret") {
    val e = freshSS()
    val hits = (1 to 200).count { _ =>
      val s = e.input(123456789L).asInstanceOf[SharesVal]
      s.s1 == 123456789L || s.s2 == 123456789L || s.s3 == 123456789L
    }
    assert(hits == 0)
  }

  test("addition and subtraction are exact") {
    val e = freshSS()
    forAll2(smallLongs, smallLongs) { (x, y) =>
      assert(e.open(e.add(e.input(x), e.input(y))) == x + y)
      assert(e.open(e.sub(e.input(x), e.input(y))) == x - y)
    }
  }

  test("public addition and multiplication are exact and local") {
    val e = freshSS()
    val before = e.meter.muls
    forAll2(smallLongs, smallLongs) { (x, k) =>
      assert(e.open(e.addPub(e.input(x), k)) == x + k)
      assert(e.open(e.mulPub(e.input(x), k)) == x * k)
    }
    assert(e.meter.muls == before, "linear ops must not consume Beaver triples")
  }

  test("Beaver multiplication is exact") {
    val e = freshSS()
    forAll2(smallLongs, smallLongs) { (x, y) =>
      assert(e.open(e.mulRaw(e.input(x), e.input(y))) == x * y)
    }
  }

  test("Beaver multiplication charges exactly one triple") {
    val e = freshSS()
    val before = e.meter.muls
    e.mulRaw(e.input(3), e.input(4))
    assert(e.meter.muls == before + 1)
  }

  test("fixed-point multiply rescales correctly") {
    val e = freshSS()
    forAll2(Gen.chooseNum(-10000, 10000), Gen.chooseNum(-10000, 10000)) { (a, b) =>
      val got = Fixed.decode(e.open(e.mulFx(e.input(Fixed.encode(a)), e.input(Fixed.encode(b)))))
      assert(math.abs(got - a.toDouble * b) <= 1.0, s"$a*$b -> $got")
    }
  }

  test("fixed-point multiply raises instead of wrapping the ring") {
    // 50,000^2 = 2.5e9 >= 2^31: the encoded product needs more than 64 bits.
    for (e <- Seq[MpcEngine](freshSS(), freshGC())) {
      val x = e.input(Fixed.encode(50000))
      val err = intercept[ArithmeticException](e.mulFx(x, x))
      assert(err.getMessage.contains("fixed-point multiply overflow"), e.name)
    }
  }

  test("fixed-point divide approximates real division") {
    val e = freshSS()
    forAll2(Gen.chooseNum(1, 100000), Gen.chooseNum(1, 1000)) { (a, b) =>
      val got = Fixed.decode(e.open(e.divFx(e.input(Fixed.encode(a)), e.input(Fixed.encode(b)))))
      assert(math.abs(got - a.toDouble / b) <= 1e-4 * math.max(1.0, a.toDouble / b))
    }
  }

  test("divFx rejects division by zero") {
    val e = freshSS()
    assertThrows[IllegalArgumentException](e.divFx(e.input(Fixed.encode(1)), e.input(0L)))
  }

  test("eq and lt produce correct 0/1 flags") {
    val e = freshSS()
    forAll2(smallLongs, smallLongs) { (x, y) =>
      assert(e.open(e.eq(e.input(x), e.input(y))) == (if (x == y) 1L else 0L))
      assert(e.open(e.lt(e.input(x), e.input(y))) == (if (x < y) 1L else 0L))
    }
  }

  test("mux selects by flag") {
    val e = freshSS()
    forAll2(smallLongs, smallLongs) { (x, y) =>
      assert(e.open(e.mux(e.input(1L), e.input(x), e.input(y))) == x)
      assert(e.open(e.mux(e.input(0L), e.input(x), e.input(y))) == y)
    }
  }

  test("not and and implement boolean logic on flags") {
    val e = freshSS()
    for (a <- Seq(0L, 1L); b <- Seq(0L, 1L)) {
      assert(e.open(e.not(e.input(a))) == 1L - a)
      assert(e.open(e.and(e.input(a), e.input(b))) == a * b)
    }
  }

  test("engines reject foreign values") {
    val ss = freshSS(); val gc = freshGC()
    assertThrows[IllegalArgumentException](ss.add(ss.input(1), gc.input(1)))
    assertThrows[IllegalArgumentException](gc.add(gc.input(1), ss.input(1)))
  }

  test("secretPermutation is a permutation") {
    val e = freshSS()
    val p = e.secretPermutation(257)
    assert(p.sorted.toSeq == (0 until 257))
  }

  test("a seed replays every share and permutation; another seed does not") {
    def draw(seed: Long): (Seq[SharesVal], Seq[Int]) = {
      val e = new SecretSharingEngine(seed, new CostMeter(CostParams.Sharemind))
      ((1L to 20L).map(e.input), e.secretPermutation(64).toSeq)
    }
    val (shares, perm) = draw(7L)
    assert(draw(7L) == ((shares, perm)))
    val (otherShares, otherPerm) = draw(8L)
    assert(otherShares != shares && otherPerm != perm)
  }

  test("eq/lt/cmp operations are metered") {
    val e = freshSS()
    e.eq(e.input(1), e.input(2)); e.lt(e.input(1), e.input(2))
    assert(e.meter.eqs == 1 && e.meter.cmps == 1)
  }

  test("garbled-circuit engine computes the same arithmetic") {
    val e = freshGC()
    assert(e.open(e.add(e.input(3), e.input(4))) == 7L)
    assert(e.open(e.mulRaw(e.input(3), e.input(4))) == 12L)
    assert(e.open(e.eq(e.input(3), e.input(3))) == 1L)
    assert(e.open(e.lt(e.input(3), e.input(4))) == 1L)
    assert(Fixed.decode(e.open(e.mulFx(e.input(Fixed.encode(2.0)), e.input(Fixed.encode(3.0))))) == 6.0)
  }

  test("garbled-circuit engine meters gates, not triples") {
    val e = freshGC()
    e.mulRaw(e.input(3), e.input(4))
    assert(e.meter.gates > 0 && e.meter.muls == 0)
  }

  test("openMany charges one round for a batch") {
    val e = freshSS()
    val before = e.meter.rounds
    val out = e.openMany((1L to 50L).map(e.input))
    assert(out == (1L to 50L))
    assert(e.meter.rounds == before + 1)
  }

  test("fixed-point encode/decode round-trips integers exactly") {
    forAll(Gen.chooseNum(-1000000000L, 1000000000L)) { x =>
      assert(Fixed.decode(Fixed.encode(x.toDouble)) == x.toDouble)
    }
  }

  test("fixed-point encode rejects overflow and non-finite values") {
    assertThrows[IllegalArgumentException](Fixed.encode(math.pow(2, 46)))
    assertThrows[IllegalArgumentException](Fixed.encode(Double.NaN))
    assertThrows[IllegalArgumentException](Fixed.encode(Double.PositiveInfinity))
  }

  test("modeledSeconds combines counters with backend constants") {
    val m = new CostMeter(CostParams.Sharemind)
    m.addEq(100); m.addCmp(10); m.addRows(1000)
    val expected = 100 * CostParams.Sharemind.eq + 10 * CostParams.Sharemind.cmp +
      1000 * CostParams.Sharemind.rowTouch
    assert(math.abs(m.modeledSeconds - expected) < 1e-12)
  }

  test("cost meter reset clears all counters") {
    val m = new CostMeter(CostParams.Sharemind)
    m.addEq(5); m.addMul(5); m.addRows(5); m.reset()
    assert(m.modeledSeconds == 0.0 && m.snapshot.eqs == 0)
  }

  test("cost meter throws MpcTimeout exactly when its running total passes the cap") {
    val m = new CostMeter(CostParams.Sharemind)
    m.addRows(1000); m.addEq(100); m.addCmp(10); m.addMul(7); m.addRound(3); m.addShuffle(50)
    // The running total tracks the modeled clock, whose formula is unchanged.
    assert(math.abs(m.chargedSeconds - m.modeledSeconds) < 1e-9)
    m.reset()
    assert(m.chargedSeconds == 0.0)
    // 3,600 setups of 2 s reach the cap exactly; the next one passes it.
    val atCap = (CostMeter.CapSeconds / CostParams.Sharemind.setup).toLong
    (1L to atCap).foreach(_ => m.addSetup())
    assert(m.chargedSeconds == CostMeter.CapSeconds)
    val t = intercept[MpcTimeout](m.addSetup())
    assert(t.seconds == CostMeter.CapSeconds + CostParams.Sharemind.setup)
    // The charge that passed the cap is still counted.
    assert(m.snapshot == CostSnapshot(0, 0, 0, 0, 0, 0, 0, atCap + 1, 0,
      (atCap + 1) * CostParams.Sharemind.setup))
    m.reset()
    m.addSetup()
    assert(m.chargedSeconds == CostParams.Sharemind.setup)
  }

  test("checkUnits projects the first unit's cost over all units") {
    val m = new CostMeter(CostParams.Sharemind)
    val start = m.chargedSeconds
    m.addCmp(1) // one unit: 3e-4 s
    m.checkUnits(start, 20000000L) // 6,000 s fits
    val t = intercept[MpcTimeout](m.checkUnits(start, 30000000L))
    assert(t.seconds > CostMeter.CapSeconds && m.cmps == 1)
  }

  test("garbled-circuit memory model OOMs above the ceiling") {
    val m = new CostMeter(CostParams.OblivC)
    val e = new GarbledCircuitEngine(m)
    // Join width: 8192 words * 16 B = 128 KiB per record; 4 GiB ceiling
    // -> OOM just above 32k records (the paper's ~30k anchor).
    e.checkRelationMem("join", 30000, GcOpWidth.Join) // below ceiling
    assertThrows[MpcOutOfMemory](e.checkRelationMem("join", 35000, GcOpWidth.Join))
  }

  test("projection memory ceiling sits near 300k records (Fig. 1c anchor)") {
    val m = new CostMeter(CostParams.OblivC)
    val e = new GarbledCircuitEngine(m)
    e.checkRelationMem("project", 300000, GcOpWidth.Projection)
    assertThrows[MpcOutOfMemory](e.checkRelationMem("project", 340000, GcOpWidth.Projection))
  }
}
