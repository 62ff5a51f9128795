package repro.mpc

import java.util.SplittableRandom

/** A value protected by an MPC engine. Engines pattern-match on their own
  * representation and reject foreign values, so a shared relation can never
  * silently migrate between backends.
  */
sealed trait MpcVal

/** 3-party additive secret shares over Z_2^64: x = s1 + s2 + s3 (mod 2^64).
  * Each simulated party holds exactly one component.
  */
final case class SharesVal(s1: Long, s2: Long, s3: Long) extends MpcVal

/** A garbled-circuit wire bundle. The simulation tracks the cleartext value
  * (the evaluator would hold wire labels encoding it) and charges gates.
  */
final case class WireVal(v: Long) extends MpcVal

/** Value-level oblivious arithmetic, implemented by each backend.
  *
  * Two value classes flow through an engine:
  *   - *data values*: fixed-point encoded (see [[Fixed]]);
  *   - *flags*: raw 0/1, produced by `eq`/`lt` and consumed by `mux`,
  *     `mulFlag` and `not`.
  *
  * All methods charge the engine's [[CostMeter]] as they execute, so the
  * meter reflects the operations a real backend would perform.
  */
trait MpcEngine {
  def name: String
  def meter: CostMeter

  /** The engine's only source of randomness: one unsynchronized SplitMix64
    * stream, so a seed replays every share, triple and permutation.
    */
  protected def rng: SplittableRandom

  /** Secret-share / feed a cleartext ring element into the MPC. */
  def input(x: Long): MpcVal

  /** Reconstruct a ring element (the protocol-level "reveal"). */
  def open(v: MpcVal): Long

  /** Reconstruct a batch of ring elements in a single communication round. */
  def openMany(vs: Seq[MpcVal]): Seq[Long] = {
    val out = vs.map(idealOpen)
    meter.addRound(1)
    out
  }

  /** Internal reconstruction used where a sub-protocol is simulated by its
    * ideal functionality (truncation, comparison, oblivious indexing). No
    * round is charged and nothing is revealed to any party — the caller is
    * responsible for charging the simulated protocol's cost.
    */
  def idealOpen(v: MpcVal): Long

  def add(a: MpcVal, b: MpcVal): MpcVal
  def sub(a: MpcVal, b: MpcVal): MpcVal
  def addPub(a: MpcVal, k: Long): MpcVal
  def mulPub(a: MpcVal, k: Long): MpcVal

  /** Secure multiplication of two raw ring elements (no rescale). */
  def mulRaw(a: MpcVal, b: MpcVal): MpcVal

  /** Fixed-point multiply: mulRaw followed by an oblivious truncation. */
  def mulFx(a: MpcVal, b: MpcVal): MpcVal

  /** Fixed-point division (both operands fixed-point encoded). */
  def divFx(a: MpcVal, b: MpcVal): MpcVal

  /** Oblivious equality on data values; returns a 0/1 flag. */
  def eq(a: MpcVal, b: MpcVal): MpcVal

  /** Oblivious less-than on data values; returns a 0/1 flag. */
  def lt(a: MpcVal, b: MpcVal): MpcVal

  /** flag * v, where flag is 0/1 raw — no rescale. */
  def mulFlag(flag: MpcVal, v: MpcVal): MpcVal

  /** c ? a : b for a 0/1 flag c: b + c*(a-b). */
  def mux(c: MpcVal, a: MpcVal, b: MpcVal): MpcVal =
    add(b, mulFlag(c, sub(a, b)))

  /** Logical NOT of a 0/1 flag. */
  def not(flag: MpcVal): MpcVal = sub(input(1L), flag)

  /** AND of two 0/1 flags. */
  def and(a: MpcVal, b: MpcVal): MpcVal = mulFlag(a, b)

  /** A secret permutation of {0..n-1} drawn inside the protocol (the
    * composition of per-party permutations in a resharing-based shuffle);
    * the simulation's trusted runtime draws it directly (Fisher–Yates).
    */
  def secretPermutation(n: Int): Array[Int] = {
    val a = Array.range(0, n)
    var i = n - 1
    while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a
  }

  /** Charge the cost of obliviously shuffling `rows` rows of `cols` columns. */
  def chargeShuffle(rows: Long, cols: Long): Unit

  /** Charge per-row storage-layer cost. */
  def chargeRows(rows: Long, cols: Long): Unit

  /** Charge one fixed protocol setup (GC circuit generation etc.). */
  def chargeSetup(): Unit = meter.addSetup()

  /** Memory-model hook for relation-level operators (GC backends OOM). */
  def checkRelationMem(op: String, records: Long, width: Long): Unit = ()
}

/** Additive 3-party secret sharing with Beaver-triple multiplication — the
  * "Sharemind-like" backend.
  *
  * Linear operations are local (free); multiplications genuinely run the
  * Beaver protocol against a simulated trusted triple dealer and charge one
  * triple + one opening round. Comparisons and equality are computed by an
  * ideal functionality inside the trusted runtime and charged the cost of
  * Sharemind's bit-level protocols (see DESIGN.md — substituting the bit
  * decomposition changes nothing observable: same results, same leakage,
  * same cost shape).
  */
final class SecretSharingEngine(seed: Long, val meter: CostMeter) extends MpcEngine {
  val name = "secret-sharing"
  protected val rng = new SplittableRandom(seed)

  private def wrap(v: MpcVal): SharesVal = v match {
    case s: SharesVal => s
    case other        => throw new IllegalArgumentException(s"$name got foreign value $other")
  }

  override def input(x: Long): SharesVal = {
    val r1 = rng.nextLong(); val r2 = rng.nextLong()
    SharesVal(r1, r2, x - r1 - r2)
  }

  override def open(v: MpcVal): Long = {
    val s = wrap(v)
    meter.addRound(1)
    s.s1 + s.s2 + s.s3
  }

  override def idealOpen(v: MpcVal): Long = peek(v)

  /** Reconstruct without charging a round — internal ideal-functionality use. */
  private def peek(v: MpcVal): Long = { val s = wrap(v); s.s1 + s.s2 + s.s3 }

  override def add(a: MpcVal, b: MpcVal): MpcVal = {
    val x = wrap(a); val y = wrap(b)
    SharesVal(x.s1 + y.s1, x.s2 + y.s2, x.s3 + y.s3)
  }

  override def sub(a: MpcVal, b: MpcVal): MpcVal = {
    val x = wrap(a); val y = wrap(b)
    SharesVal(x.s1 - y.s1, x.s2 - y.s2, x.s3 - y.s3)
  }

  override def addPub(a: MpcVal, k: Long): MpcVal = {
    val x = wrap(a); SharesVal(x.s1 + k, x.s2, x.s3)
  }

  override def mulPub(a: MpcVal, k: Long): MpcVal = {
    val x = wrap(a); SharesVal(x.s1 * k, x.s2 * k, x.s3 * k)
  }

  /** Beaver multiplication: given dealer triple (p, q, pq), open d = a - p
    * and e = b - q, then ab = pq + d*q + e*p + d*e (d, e public).
    *
    * No round is charged per multiplication: Sharemind-class backends batch
    * all multiplications of a vectorized operation into one round, so the
    * per-triple communication is amortized into the `mul` constant.
    */
  override def mulRaw(a: MpcVal, b: MpcVal): MpcVal = {
    val p = rng.nextLong(); val q = rng.nextLong()
    val tripleP = input(p); val tripleQ = input(q); val triplePQ = input(p * q)
    val d = peek(sub(a, tripleP)) // opened to all parties in the protocol
    val e = peek(sub(b, tripleQ))
    meter.addMul(1)
    addPub(add(add(triplePQ, mulPub(tripleQ, d)), mulPub(tripleP, e)), d * e)
  }

  override def mulFx(a: MpcVal, b: MpcVal): MpcVal = {
    // Oblivious truncation after the raw product; the truncation protocol is
    // an ideal functionality charged as one extra multiplication. The trusted
    // runtime refuses a product that would wrap the ring.
    Fixed.product(peek(a), peek(b))
    val prod = mulRaw(a, b)
    meter.addMul(1)
    input(Fixed.rescale(peek(prod)))
  }

  override def divFx(a: MpcVal, b: MpcVal): MpcVal = {
    // Sharemind's fixed-point division (Goldschmidt iteration) — ideal
    // functionality charged as a comparison-class operation.
    meter.addCmp(1)
    val x = Fixed.decode(peek(a)); val y = Fixed.decode(peek(b))
    require(y != 0.0, "MPC division by zero")
    input(Fixed.encode(x / y))
  }

  override def eq(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addEq(1)
    input(if (peek(a) == peek(b)) 1L else 0L)
  }

  override def lt(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addCmp(1)
    input(if (peek(a) < peek(b)) 1L else 0L)
  }

  override def mulFlag(flag: MpcVal, v: MpcVal): MpcVal = mulRaw(flag, v)

  override def chargeShuffle(rows: Long, cols: Long): Unit = {
    val logN = if (rows <= 1) 1L else (64 - java.lang.Long.numberOfLeadingZeros(rows - 1)).toLong
    meter.addShuffle(rows * logN * cols)
    meter.addRound(3)
  }

  override def chargeRows(rows: Long, cols: Long): Unit = meter.addRows(rows)
}

/** Garbled-circuit engine ("Obliv-C" / "ObliVM" depending on CostParams).
  *
  * Computes the same functionality (the garbler+evaluator jointly hold the
  * cleartext across their wire labels) while charging per-gate time and
  * tracking circuit state against a memory ceiling, reproducing Obliv-C's
  * observed OOM behaviour on the paper's 4 GB VMs.
  */
final class GarbledCircuitEngine(val meter: CostMeter) extends MpcEngine {
  val name = s"garbled-${meter.params.name}"
  protected val rng = new SplittableRandom(0x6C1L)

  // Gate counts for 64-bit words (free-XOR model: only AND gates garbled).
  private val AddGates = 64L
  private val MulGates = 64L * 63 / 2
  private val CmpGates = 64L
  private val MuxGates = 64L

  private def wrap(v: MpcVal): WireVal = v match {
    case w: WireVal => w
    case other      => throw new IllegalArgumentException(s"$name got foreign value $other")
  }

  override def input(x: Long): WireVal = WireVal(x)

  override def open(v: MpcVal): Long = wrap(v).v

  override def idealOpen(v: MpcVal): Long = wrap(v).v

  override def add(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addGates(AddGates); WireVal(wrap(a).v + wrap(b).v)
  }
  override def sub(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addGates(AddGates); WireVal(wrap(a).v - wrap(b).v)
  }
  override def addPub(a: MpcVal, k: Long): MpcVal = {
    meter.addGates(AddGates); WireVal(wrap(a).v + k)
  }
  override def mulPub(a: MpcVal, k: Long): MpcVal = {
    meter.addGates(MulGates); WireVal(wrap(a).v * k)
  }
  override def mulRaw(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addGates(MulGates); WireVal(wrap(a).v * b.asInstanceOf[WireVal].v)
  }
  override def mulFx(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addGates(MulGates); WireVal(Fixed.rescale(Fixed.product(wrap(a).v, wrap(b).v)))
  }
  override def divFx(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addGates(MulGates * 4) // long division circuit
    val y = Fixed.decode(wrap(b).v)
    require(y != 0.0, "MPC division by zero")
    WireVal(Fixed.encode(Fixed.decode(wrap(a).v) / y))
  }
  override def eq(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addGates(CmpGates); WireVal(if (wrap(a).v == wrap(b).v) 1L else 0L)
  }
  override def lt(a: MpcVal, b: MpcVal): MpcVal = {
    meter.addGates(CmpGates); WireVal(if (wrap(a).v < wrap(b).v) 1L else 0L)
  }
  override def mulFlag(flag: MpcVal, v: MpcVal): MpcVal = {
    meter.addGates(MuxGates); WireVal(wrap(flag).v * wrap(v).v)
  }

  override def chargeShuffle(rows: Long, cols: Long): Unit = {
    // Waksman permutation network: ~ n log n muxes per column.
    val logN = if (rows <= 1) 1L else (64 - java.lang.Long.numberOfLeadingZeros(rows - 1)).toLong
    meter.addGates(rows * logN * cols * MuxGates)
  }

  override def chargeRows(rows: Long, cols: Long): Unit = meter.addRows(rows)

  /** Circuit-width factors calibrated to the paper's OOM anchors: with
    * 16-byte labels, a join OOMs at ~30k input records and a projection at
    * ~300k on a 4 GB ceiling (Fig. 1b/1c).
    */
  override def checkRelationMem(op: String, records: Long, width: Long): Unit =
    meter.checkMem(op, records * width * meter.params.labelBytes)
}

object GcOpWidth {
  /** Live wire-label words per record for a projection-class circuit. */
  val Projection = 832L
  /** Per record for a join circuit (holds both relations + candidates). */
  val Join = 8192L
  /** Per record for a sort-based aggregation circuit. */
  val Aggregation = 2048L
}
