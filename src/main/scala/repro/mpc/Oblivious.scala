package repro.mpc

import repro.core.AggFn

import scala.collection.mutable.ArrayBuffer

/** Data-oblivious relational algorithms, generic over the MPC engine.
  *
  * Every algorithm has data-independent control flow (modulo explicitly
  * authorized reveals, which the caller logs as leakage): a bitonic sorting
  * network, the sorting-based grouped aggregation of Jónsson et al. [39],
  * a Cartesian-product join that opens match flags only after an oblivious
  * shuffle (the output-size-leaking Sharemind join the paper benchmarks),
  * and the oblivious indexing protocol of Laud [45] used by hybrid joins.
  */
object Oblivious {

  /** One sort key: column index + direction. */
  final case class SortKey(col: Int, ascending: Boolean = true)

  // ---------------------------------------------------------------- shuffle

  /** Resharing-based oblivious shuffle: no party learns the permutation. */
  def shuffle(e: MpcEngine, rel: SharedRelation): SharedRelation = {
    val perm = e.secretPermutation(rel.size)
    e.chargeShuffle(rel.size.toLong, rel.width.toLong + 1)
    applyPerm(rel, perm)
  }

  /** Reorder rows by a public permutation (no oblivious cost beyond I/O) —
    * e.g. the STP-provided ordering in a hybrid aggregation.
    */
  def applyPublicPermutation(e: MpcEngine, rel: SharedRelation, perm: Seq[Int]): SharedRelation = {
    e.chargeRows(rel.size.toLong, rel.width.toLong)
    applyPerm(rel, perm.toArray)
  }

  private def applyPerm(rel: SharedRelation, perm: Array[Int]): SharedRelation = {
    require(perm.length == rel.size, "permutation size mismatch")
    SharedRelation(
      rel.schema,
      Vector.tabulate(rel.size)(i => rel.rows(perm(i))),
      rel.validity.map(v => Vector.tabulate(rel.size)(i => v(perm(i)))),
    )
  }

  // ------------------------------------------------------------------- sort

  /** Bitonic sorting network over `keys`, O(n log^2 n) oblivious
    * compare-exchanges. Invalid rows (validity 0) always sort after valid
    * ones; the relative order of data is by `keys`. Rows are padded to a
    * power of two with invalid sentinel rows that are dropped afterwards
    * (their final positions are data-independent in count).
    *
    * Every compare-exchange costs the same, so after the first one the
    * meter stops a network that cannot finish under the cap.
    */
  def sortBy(e: MpcEngine, rel: SharedRelation, keys: Seq[SortKey]): SharedRelation = {
    val n = rel.size
    if (n <= 1) return rel
    var p = 1
    while (p < n) p <<= 1

    val hadValidity = rel.validity.isDefined
    // Working state: per-row validity flag + cells.
    val valid = new Array[MpcVal](p)
    val cells = new Array[Array[MpcVal]](p)
    var i = 0
    while (i < n) {
      valid(i) = rel.validity.map(_(i)).getOrElse(e.input(1L))
      cells(i) = rel.rows(i).toArray
      i += 1
    }
    while (i < p) { // sentinel padding
      valid(i) = e.input(0L)
      cells(i) = Array.fill[MpcVal](rel.width)(e.input(0L))
      i += 1
    }
    e.chargeRows(p.toLong, rel.width.toLong)

    // "Row a sorts after row b": validity descending, then keys in order.
    def after(a: Int, b: Int): MpcVal = {
      val va = valid(a); val vb = valid(b)
      // validity level: a after b iff va < vb, i.e. vb AND NOT va = vb - va*vb
      var res = e.sub(vb, e.mulFlag(va, vb))
      // eq on 0/1 flags: 1 - (va XOR vb) = 1 - va - vb + 2*va*vb
      var eqSoFar =
        e.addPub(e.sub(e.add(e.mulFlag(va, vb), e.mulFlag(va, vb)), e.add(va, vb)), 1L)
      keys.foreach { k =>
        val x = cells(a)(k.col); val y = cells(b)(k.col)
        val ltf = e.lt(x, y)
        val eqf = e.eq(x, y)
        // ascending: a after b iff x > y  = 1 - lt - eq (disjoint events)
        val cmpFlag =
          if (k.ascending) e.sub(e.sub(e.input(1L), ltf), eqf)
          else ltf
        res = e.add(res, e.mulFlag(eqSoFar, cmpFlag)) // disjoint OR
        eqSoFar = e.mulFlag(eqSoFar, eqf)
      }
      res
    }

    def exchange(a: Int, b: Int, up: Boolean): Unit = {
      val sw = if (up) after(a, b) else after(b, a)
      var c = 0
      while (c < rel.width) {
        val d = e.mulFlag(sw, e.sub(cells(b)(c), cells(a)(c)))
        cells(a)(c) = e.add(cells(a)(c), d)
        cells(b)(c) = e.sub(cells(b)(c), d)
        c += 1
      }
      val dv = e.mulFlag(sw, e.sub(valid(b), valid(a)))
      valid(a) = e.add(valid(a), dv)
      valid(b) = e.sub(valid(b), dv)
    }

    // A p-input bitonic network has p·log p·(log p + 1)/4 compare-exchanges.
    val logP = Integer.numberOfTrailingZeros(p).toLong
    val exchanges = p * logP * (logP + 1) / 4
    val start = e.meter.chargedSeconds
    var k = 2
    while (k <= p) {
      var j = k >> 1
      while (j > 0) {
        var x = 0
        while (x < p) {
          val l = x ^ j
          if (l > x) {
            exchange(x, l, (x & k) == 0)
            if (k == 2 && x == 0) e.meter.checkUnits(start, exchanges) // the first exchange
          }
          x += 1
        }
        j >>= 1
      }
      k <<= 1
    }

    SharedRelation(
      rel.schema,
      Vector.tabulate(n)(i => cells(i).toVector),
      if (hadValidity) Some(Vector.tabulate(n)(valid(_))) else None,
    )
  }

  // ----------------------------------------------------------------- filter

  /** Order-preserving, size-hiding filter: evaluates `pred` per row and ANDs
    * the result into the validity column. Nothing is revealed.
    */
  def filter(e: MpcEngine, rel: SharedRelation)(
      pred: Vector[MpcVal] => MpcVal): SharedRelation = {
    e.chargeRows(rel.size.toLong, rel.width.toLong)
    val flags = rel.rows.map(pred)
    val merged = rel.validity match {
      case Some(v) => v.lazyZip(flags).map((a, b) => e.and(a, b)).toVector
      case None    => flags
    }
    rel.copy(validity = Some(merged))
  }

  /** Materialize a filtered relation: shuffle, open validity flags, drop
    * invalid rows. Reveals the surviving row count (caller must log it).
    */
  def compact(e: MpcEngine, rel: SharedRelation): SharedRelation = rel.validity match {
    case None => rel
    case Some(_) =>
      val shuffled = shuffle(e, rel)
      val flags = e.openMany(shuffled.validity.get)
      val kept = shuffled.rows.lazyZip(flags).collect { case (r, 1L) => r }.toVector
      SharedRelation(rel.schema, kept, None)
  }

  // ------------------------------------------------------------- aggregation

  /** Grouped aggregation per Jónsson et al.: sort by group key, obliviously
    * fold each group into its last row, shuffle, open keep-flags, discard.
    * Reveals the number of groups (the output size — the paper's protocols
    * do not pad, §7.4 comorbidity).
    *
    * Output schema: group columns ++ [outName]; no validity column.
    */
  def aggregate(
      e: MpcEngine,
      rel: SharedRelation,
      groupIdxs: Seq[Int],
      aggIdx: Option[Int],
      fn: AggFn,
      outName: String,
      preSorted: Boolean = false,
  ): SharedRelation = {
    require(groupIdxs.nonEmpty, "use globalAggregate for group-less aggregation")
    val outSchema = groupIdxs.map(rel.schema).toVector :+ outName
    if (rel.size == 0) return SharedRelation(outSchema, Vector.empty, None)

    // The sorting network may be skipped when the input is already grouped
    // (sort elimination, §5.4) — but only if no validity column could
    // interleave invalid rows into a group run.
    val sorted =
      if (preSorted && rel.validity.isEmpty) rel
      else sortBy(e, rel, groupIdxs.map(SortKey(_)))
    val n = sorted.size
    val valid = sorted.validity.getOrElse(Vector.fill(n)(e.input(1L)))

    // Initial per-row contribution, gated by validity.
    def contribution(i: Int): MpcVal = fn match {
      case AggFn.Count => e.mulPub(valid(i), Fixed.Scale)
      case AggFn.Sum   => e.mulFlag(valid(i), sorted.rows(i)(aggIdx.get))
      case AggFn.Min   => e.mux(valid(i), sorted.rows(i)(aggIdx.get), e.input(Fixed.Big))
      case AggFn.Max   => e.mux(valid(i), sorted.rows(i)(aggIdx.get), e.input(-Fixed.Big))
    }

    def sameGroup(i: Int, j: Int): MpcVal =
      groupIdxs.foldLeft(e.input(1L)) { (acc, c) =>
        e.and(acc, e.eq(sorted.rows(i)(c), sorted.rows(j)(c)))
      }

    // Row i continues row i-1's group. Gated by row i's validity so an
    // invalid row with an equal key can never absorb (and then drop) a
    // group's accumulated aggregate; only valid run ends are kept.
    foldRuns(e, sorted, groupIdxs, fn, outName, contribution,
      i => e.and(sameGroup(i, i - 1), valid(i)), Some(valid))
  }

  /** The tail of every sort-based grouped aggregation (this module's and the
    * hybrid one): obliviously fold each run of rows into its last row, then
    * shuffle the rows together with their keep flags, open the flags and
    * discard the rest. Reveals the number of runs kept.
    *
    * `contribution(i)` is row i's initial value. `same(i)`, evaluated once
    * per row in order just before its fold step, flags that row i continues
    * row i-1's run. A run end is kept when `valid` (if given) flags it.
    * Output schema: group columns ++ [outName].
    */
  private[mpc] def foldRuns(
      e: MpcEngine,
      sorted: SharedRelation,
      groupIdxs: Seq[Int],
      fn: AggFn,
      outName: String,
      contribution: Int => MpcVal,
      same: Int => MpcVal,
      valid: Option[IndexedSeq[MpcVal]],
  ): SharedRelation = {
    val n = sorted.size
    val agg = Array.tabulate(n)(contribution)
    val sameFlags = new Array[MpcVal](n)
    var i = 1
    while (i < n) {
      sameFlags(i) = same(i)
      agg(i) = fn match {
        case AggFn.Sum | AggFn.Count => e.add(agg(i), e.mulFlag(sameFlags(i), agg(i - 1)))
        case AggFn.Min => e.mux(e.and(sameFlags(i), e.lt(agg(i - 1), agg(i))), agg(i - 1), agg(i))
        case AggFn.Max => e.mux(e.and(sameFlags(i), e.lt(agg(i), agg(i - 1))), agg(i - 1), agg(i))
      }
      i += 1
    }

    // Keep the last row of each run.
    val keep = Vector.tabulate(n) { i =>
      val lastOfRun = if (i == n - 1) e.input(1L) else e.not(sameFlags(i + 1))
      valid.fold(lastOfRun)(v => e.and(lastOfRun, v(i)))
    }

    // Shuffle rows together with their keep flags, then open the flags.
    val outSchema = groupIdxs.map(sorted.schema).toVector :+ outName
    val tagged = SharedRelation(
      outSchema :+ "__keep",
      Vector.tabulate(n)(i => groupIdxs.map(sorted.rows(i)).toVector :+ agg(i) :+ keep(i)),
      None,
    )
    val shuffled = shuffle(e, tagged)
    val flags = e.openMany(shuffled.rows.map(_.last))
    val outRows = shuffled.rows.lazyZip(flags).collect { case (r, 1L) => r.dropRight(1) }.toVector
    SharedRelation(outSchema, outRows, None)
  }

  /** Group-less aggregation: a single output row, nothing revealed. */
  def globalAggregate(
      e: MpcEngine,
      rel: SharedRelation,
      aggIdx: Option[Int],
      fn: AggFn,
      outName: String,
  ): SharedRelation = {
    e.chargeRows(rel.size.toLong, 1L)
    val valid = rel.validity.getOrElse(Vector.fill(rel.size)(e.input(1L)))
    val result = fn match {
      case AggFn.Count =>
        valid.foldLeft(e.input(0L))((acc, v) => e.add(acc, e.mulPub(v, Fixed.Scale)))
      case AggFn.Sum =>
        rel.rows.indices.foldLeft(e.input(0L)) { (acc, i) =>
          e.add(acc, e.mulFlag(valid(i), rel.rows(i)(aggIdx.get)))
        }
      case AggFn.Min =>
        rel.rows.indices.foldLeft(e.input(Fixed.Big)) { (acc, i) =>
          val x = e.mux(valid(i), rel.rows(i)(aggIdx.get), e.input(Fixed.Big))
          e.mux(e.lt(x, acc), x, acc)
        }
      case AggFn.Max =>
        rel.rows.indices.foldLeft(e.input(-Fixed.Big)) { (acc, i) =>
          val x = e.mux(valid(i), rel.rows(i)(aggIdx.get), e.input(-Fixed.Big))
          e.mux(e.lt(acc, x), x, acc)
        }
    }
    SharedRelation(Vector(outName), Vector(Vector(result)), None)
  }

  // ---------------------------------------------------------------- distinct

  /** Oblivious duplicate elimination over `keyIdxs`: marks all but the first
    * valid row of each key group invalid. Size-hiding (no reveal). When
    * `preSorted`, the O(n log^2 n) sorting network is skipped and a linear
    * scan suffices — the optimization Conclave's sort-elimination pass
    * enables (paper §7.4, aspirin count).
    */
  def distinct(
      e: MpcEngine,
      rel: SharedRelation,
      keyIdxs: Seq[Int],
      preSorted: Boolean,
  ): SharedRelation = {
    if (rel.size == 0) return rel
    val sorted = if (preSorted) rel else sortBy(e, rel, keyIdxs.map(SortKey(_)))
    val n = sorted.size
    val valid = sorted.validity.getOrElse(Vector.fill(n)(e.input(1L)))
    e.chargeRows(n.toLong, rel.width.toLong)

    def sameKey(i: Int): MpcVal =
      keyIdxs.foldLeft(e.input(1L)) { (acc, c) =>
        e.and(acc, e.eq(sorted.rows(i)(c), sorted.rows(i - 1)(c)))
      }

    // seen(i): an earlier row of this key run was valid.
    val newValid = new Array[MpcVal](n)
    newValid(0) = valid(0)
    var seen = e.input(0L)
    var i = 1
    while (i < n) {
      val or = e.sub(e.add(seen, valid(i - 1)), e.and(seen, valid(i - 1)))
      seen = e.mulFlag(sameKey(i), or)
      newValid(i) = e.and(valid(i), e.not(seen))
      i += 1
    }
    sorted.copy(validity = Some(newValid.toVector))
  }

  // -------------------------------------------------------------------- join

  /** Cartesian-product MPC join — the standard algorithm the paper implements
    * in both Sharemind and Obliv-C (§6): O(n·m) oblivious equality tests,
    * then an oblivious shuffle of the candidates and an opening of the match
    * flags. Leaks the output size (as the paper's Sharemind baseline does,
    * §7.3). Output schema: left keys ++ left rest ++ right rest.
    *
    * Every candidate pair costs the same, so after the first one the meter
    * stops a join that cannot finish under the cap.
    */
  def cartesianJoin(
      e: MpcEngine,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[Int],
      rKeys: Seq[Int],
  ): SharedRelation = {
    require(lKeys.length == rKeys.length, "join key arity mismatch")
    val layout = new JoinLayout(lKeys, rKeys, left.width, right.width)
    val outSchema = layout(left.schema, right.schema)

    val n = left.size.toLong; val m = right.size.toLong
    val lValid = left.validity
    val rValid = right.validity

    val matches = ArrayBuffer.empty[Vector[MpcVal]]
    val start = e.meter.chargedSeconds
    var i = 0
    while (i < left.size) {
      var j = 0
      while (j < right.size) {
        var f = lKeys.indices.foldLeft(null: MpcVal) { (acc, k) =>
          val eqf = e.eq(left.rows(i)(lKeys(k)), right.rows(j)(rKeys(k)))
          if (acc == null) eqf else e.and(acc, eqf)
        }
        lValid.foreach(v => f = e.and(f, v(i)))
        rValid.foreach(v => f = e.and(f, v(j)))
        // The protocol shuffles the bit-packed candidate-flag vector and
        // opens it; we materialize only the matches (the open reveals them
        // anyway). The O(n·m) oblivious equality tests above dominate, as
        // in the paper's complexity analysis (§5.3).
        if (e.idealOpen(f) == 1L) {
          matches += layout(left.rows(i), right.rows(j))
        }
        if (i == 0 && j == 0) { // the first pair
          e.meter.checkUnits(start, n * m)
          require(n * m <= 2_000_000_000L,
            s"simulated MPC join too large: $n x $m candidate pairs")
        }
        j += 1
      }
      i += 1
    }
    e.chargeRows(n + m + matches.length, outSchema.length.toLong)
    e.chargeShuffle(n * m / 64 + 1, 1L) // bit-packed flag vector shuffle
    e.chargeShuffle(matches.length.toLong, outSchema.length.toLong)
    e.openMany(Seq.empty) // one opening round for the flag vector
    val perm = e.secretPermutation(matches.length)
    SharedRelation(outSchema, Vector.tabulate(matches.length)(k => matches(perm(k))), None)
  }

  // --------------------------------------------------- oblivious indexing

  /** Oblivious indexing (select) per Laud [45]: given secret indexes into
    * `rel`, returns the rows at those positions without revealing which.
    * Cost O((n+m) log(n+m)) — this is what makes the hybrid join an
    * asymptotic improvement over the Cartesian join.
    * Simulated as its ideal functionality with the protocol's cost charged.
    */
  def select(e: MpcEngine, rel: SharedRelation, idxs: Vector[MpcVal]): SharedRelation = {
    require(rel.validity.isEmpty, "select requires a compacted relation")
    val n = rel.size.toLong; val m = idxs.size.toLong
    val nm = math.max(2L, n + m)
    val logNm = 64 - java.lang.Long.numberOfLeadingZeros(nm - 1)
    e.meter.addMul((n + m) * logNm * rel.width)
    e.meter.addRound(logNm.toLong)
    e.chargeRows(n + m, rel.width.toLong)
    val rows = idxs.map { iv =>
      val i = e.idealOpen(iv).toInt
      require(i >= 0 && i < rel.size, s"oblivious index $i out of range 0..${rel.size}")
      rel.rows(i)
    }
    SharedRelation(rel.schema, rows, None)
  }

  // ------------------------------------------------------------------ reveal

  /** Open an entire relation (e.g. at the MPC frontier to the recipients).
    * Invalid rows are compacted away first (revealing the surviving count —
    * that count is part of the revealed output anyway).
    */
  def reveal(e: MpcEngine, rel: SharedRelation): Vector[Vector[Double]] = {
    val compacted = compact(e, rel)
    e.chargeRows(compacted.size.toLong, compacted.width.toLong)
    if (compacted.size > 0) e.openMany(Seq.empty) // one opening round
    compacted.rows.map(_.map(v => Fixed.decode(e.idealOpen(v))))
  }
}
