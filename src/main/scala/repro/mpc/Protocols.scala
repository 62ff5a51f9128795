package repro.mpc

import repro.core.{AggFn, Party}

import scala.collection.mutable
import scala.math.Ordering.Implicits.seqOrdering

/** Conclave's hybrid MPC–cleartext protocols (paper §5.3, Fig. 3).
  *
  * Each protocol outsources the expensive core of an operator to a
  * selectively-trusted party (STP), which sees *only* the authorized key /
  * group-by columns (after an oblivious shuffle, so values cannot be linked
  * to input positions), while every other column stays secret-shared. All
  * parties additionally learn input/output cardinalities. Every reveal is
  * recorded in the [[LeakageLog]] so tests can verify exactly this leakage
  * occurs and no more.
  */
object Protocols {

  /** Reveal the key columns `keys` of `rel` to `to` in one opening round;
    * each is logged as a column leak named `prefix` + column name.
    */
  private def revealKeys(
      e: MpcEngine,
      leakage: LeakageLog,
      relName: String,
      rel: SharedRelation,
      keys: Seq[Int],
      prefix: String,
      to: Set[Party],
  ): Vector[Vector[Long]] = {
    keys.foreach(k => leakage.record(ColumnLeak(relName, prefix + rel.schema(k), to)))
    e.chargeRows(rel.size.toLong, keys.length.toLong)
    if (rel.size > 0) e.openMany(Seq.empty) // one opening round for the columns
    rel.rows.map(r => keys.map(k => e.idealOpen(r(k))).toVector)
  }

  /** Cleartext hash join over per-row keys, as the STP or host computes it:
    * every (i, j) with `left(i) == right(j)`, by right row and then left row.
    * With `inKeyOrder` the pairs are stably sorted by key — free in the
    * clear, and it lets MPC consumers skip oblivious sorts on the key.
    */
  def matchKeys[K: Ordering](left: IndexedSeq[K], right: IndexedSeq[K],
      inKeyOrder: Boolean): Vector[(Int, Int)] = {
    val byKey = mutable.HashMap.empty[K, mutable.ArrayBuffer[Int]]
    left.indices.foreach(i => byKey.getOrElseUpdate(left(i), mutable.ArrayBuffer.empty) += i)
    val pairs = for {
      j <- right.indices.toVector
      i <- byKey.getOrElse(right(j), mutable.ArrayBuffer.empty[Int])
    } yield (i, j)
    if (inKeyOrder) pairs.sortBy(p => right(p._2)) else pairs
  }

  /** Hybrid join (Fig. 3): oblivious shuffles, key columns revealed to the
    * STP, cleartext join at the STP, then oblivious indexing (Laud [45]) to
    * reconstruct the joined rows under MPC. O((n+m) log(n+m)) non-linear
    * MPC operations instead of the Cartesian join's O(n·m).
    */
  def hybridJoin(
      e: MpcEngine,
      leakage: LeakageLog,
      relName: String,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[Int],
      rKeys: Seq[Int],
      stp: Party,
      allParties: Set[Party],
  ): SharedRelation = {
    require(left.validity.isEmpty && right.validity.isEmpty,
      "hybrid join requires compacted inputs")
    require(lKeys.length == rKeys.length && lKeys.nonEmpty, "bad join keys")

    // 1. Obliviously shuffle both inputs so revealed keys are unlinkable to
    //    input positions.
    val lS = Oblivious.shuffle(e, left)
    val rS = Oblivious.shuffle(e, right)

    // 2-4. Project the key columns, reveal them to the STP; the STP
    //      enumerates rows and joins in the clear.
    val pairs = matchKeys(
      revealKeys(e, leakage, relName, lS, lKeys, "left:", Set(stp)),
      revealKeys(e, leakage, relName, rS, rKeys, "right:", Set(stp)),
      inKeyOrder = false)

    // All parties learn the join's output cardinality.
    leakage.record(CardinalityLeak(relName, pairs.length.toLong, allParties))

    // 5. The STP secret-shares the two index relations back into the MPC.
    val lIdx = pairs.map(p => e.input(p._1.toLong))
    val rIdx = pairs.map(p => e.input(p._2.toLong))
    e.chargeRows(pairs.length.toLong, 2L)

    // 6. Oblivious indexing recovers the joined rows under MPC.
    val lRows = Oblivious.select(e, lS, lIdx)
    val rRows = Oblivious.select(e, rS, rIdx)

    // 7. Concatenate column-wise and reshuffle.
    val layout = new JoinLayout(lKeys, rKeys, left.width, right.width)
    val joined = SharedRelation(
      layout(left.schema, right.schema),
      lRows.rows.lazyZip(rRows.rows).map(layout(_, _)).toVector,
      None,
    )
    Oblivious.shuffle(e, joined)
  }

  /** Public join: both key columns are public, so the keys are revealed to
    * all parties, one (randomly chosen) host computes the join in the clear,
    * and the joined result is assembled from the shared rows by *public*
    * indexes — no oblivious shuffle or indexing at all (paper §5.3).
    * The output rows are ordered by join key, which downstream sort
    * elimination exploits (§7.4).
    */
  def publicJoin(
      e: MpcEngine,
      leakage: LeakageLog,
      relName: String,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[Int],
      rKeys: Seq[Int],
      host: Party,
      allParties: Set[Party],
  ): SharedRelation = {
    require(left.validity.isEmpty && right.validity.isEmpty,
      "public join requires compacted inputs")
    val pairs = matchKeys(
      revealKeys(e, leakage, relName, left, lKeys, "left:", allParties),
      revealKeys(e, leakage, relName, right, rKeys, "right:", allParties),
      inKeyOrder = true)
    leakage.record(CardinalityLeak(relName, pairs.length.toLong, allParties))

    val layout = new JoinLayout(lKeys, rKeys, left.width, right.width)
    val outSchema = layout(left.schema, right.schema)
    e.chargeRows(pairs.length.toLong, outSchema.length.toLong)
    SharedRelation(outSchema, pairs.map { case (i, j) => layout(left.rows(i), right.rows(j)) }, None)
  }

  /** Hybrid aggregation (§5.3): oblivious shuffle, group-by column revealed
    * to the STP, cleartext sort + equality flags at the STP, public reorder,
    * then a linear oblivious accumulation scan. Replaces the O(n log^2 n)
    * sorting network with an O(n log n) shuffle and avoids all oblivious
    * comparisons (for sum/count).
    */
  def hybridAggregate(
      e: MpcEngine,
      leakage: LeakageLog,
      relName: String,
      rel: SharedRelation,
      groupIdxs: Seq[Int],
      aggIdx: Option[Int],
      fn: AggFn,
      outName: String,
      stp: Party,
      allParties: Set[Party],
  ): SharedRelation = {
    require(rel.validity.isEmpty, "hybrid aggregation requires a compacted input")
    require(groupIdxs.nonEmpty, "hybrid aggregation needs group-by columns")
    if (rel.size == 0)
      return SharedRelation(groupIdxs.map(rel.schema).toVector :+ outName, Vector.empty, None)

    // 1. Oblivious shuffle, then reveal the (shuffled) group-by column(s)
    //    to the STP.
    val shuffled = Oblivious.shuffle(e, rel)
    val keys = revealKeys(e, leakage, relName, shuffled, groupIdxs, "", Set(stp))

    // 2-4. STP: enumerate, sort by key, compute equality flags, publish the
    //      ordering (public) and secret-share the flags.
    val order = keys.indices.sortBy(keys)
    val eqFlags = order.indices.map { pos =>
      if (pos == 0) 0L
      else if (keys(order(pos)) == keys(order(pos - 1))) 1L
      else 0L
    }
    val same = eqFlags.map(e.input) // STP secret-shares the equality flags
    e.chargeRows(order.length.toLong, 1L)

    // 5-6. Parties reorder the shuffled relation by the public ordering.
    val sorted = Oblivious.applyPublicPermutation(e, shuffled, order)

    // 7-8. Linear oblivious accumulation into each group's last row; then
    //      shuffle, open keep flags, discard: all parties learn the number
    //      of groups (the output size).
    val out = Oblivious.foldRuns(e, sorted, groupIdxs, fn, outName,
      i => if (fn == AggFn.Count) e.input(Fixed.Scale) else sorted.rows(i)(aggIdx.get),
      same, None)
    leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
    out
  }
}
