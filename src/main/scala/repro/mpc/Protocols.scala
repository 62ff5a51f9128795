package repro.mpc

import repro.core.Party

import scala.collection.mutable

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
    def revealKeys(rel: SharedRelation, keys: Seq[Int], side: String): Vector[Vector[Long]] = {
      keys.foreach(k => leakage.record(ColumnLeak(relName, s"$side:${rel.schema(k)}", Set(stp))))
      e.chargeRows(rel.size.toLong, keys.length.toLong)
      if (rel.size > 0) e.openMany(Seq.empty) // one opening round for the column
      rel.rows.map(r => keys.map(k => e.idealOpen(r(k))).toVector)
    }
    val lKeyRows = revealKeys(lS, lKeys, "left")
    val rKeyRows = revealKeys(rS, rKeys, "right")

    // Cleartext hash join at the STP over (key, rowIndex) pairs.
    val byKey = mutable.HashMap.empty[Vector[Long], mutable.ArrayBuffer[Int]]
    lKeyRows.zipWithIndex.foreach { case (k, i) =>
      byKey.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += i
    }
    val pairs = for {
      (k, j) <- rKeyRows.zipWithIndex
      i <- byKey.getOrElse(k, mutable.ArrayBuffer.empty)
    } yield (i, j)

    // All parties learn the join's output cardinality.
    leakage.record(CardinalityLeak(relName, pairs.length.toLong, allParties))

    // 5. The STP secret-shares the two index relations back into the MPC.
    val lIdx = pairs.map(p => e.input(p._1.toLong)).toVector
    val rIdx = pairs.map(p => e.input(p._2.toLong)).toVector
    e.chargeRows(pairs.length.toLong, 2L)

    // 6. Oblivious indexing recovers the joined rows under MPC.
    val lRows = Oblivious.select(e, lS, lIdx)
    val rRows = Oblivious.select(e, rS, rIdx)

    // 7. Concatenate column-wise and reshuffle.
    val lRest = left.schema.indices.filterNot(lKeys.contains)
    val rRest = right.schema.indices.filterNot(rKeys.contains)
    val outSchema =
      lKeys.map(left.schema).toVector ++ lRest.map(left.schema) ++ rRest.map(right.schema)
    val joined = SharedRelation(
      outSchema,
      lRows.rows.lazyZip(rRows.rows).map { (lr, rr) =>
        lKeys.map(lr).toVector ++ lRest.map(lr) ++ rRest.map(rr)
      }.toVector,
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
    def openKeys(rel: SharedRelation, keys: Seq[Int], side: String): Vector[Vector[Long]] = {
      keys.foreach(k => leakage.record(ColumnLeak(relName, s"$side:${rel.schema(k)}", allParties)))
      e.chargeRows(rel.size.toLong, keys.length.toLong)
      if (rel.size > 0) e.openMany(Seq.empty)
      rel.rows.map(r => keys.map(k => e.idealOpen(r(k))).toVector)
    }
    val lKeyRows = openKeys(left, lKeys, "left")
    val rKeyRows = openKeys(right, rKeys, "right")

    val byKey = mutable.HashMap.empty[Vector[Long], mutable.ArrayBuffer[Int]]
    rKeyRows.zipWithIndex.foreach { case (k, j) =>
      byKey.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += j
    }
    // Sorted by key: the host returns matches in key order (free in the
    // clear) so MPC consumers can skip oblivious sorts on the key.
    import scala.math.Ordering.Implicits.seqOrdering
    val pairs = lKeyRows.zipWithIndex
      .flatMap { case (k, i) => byKey.getOrElse(k, mutable.ArrayBuffer.empty).map(j => (k, i, j)) }
      .sortBy(t => t._1: Seq[Long])
    leakage.record(CardinalityLeak(relName, pairs.length.toLong, allParties))

    val lRest = left.schema.indices.filterNot(lKeys.contains)
    val rRest = right.schema.indices.filterNot(rKeys.contains)
    val outSchema =
      lKeys.map(left.schema).toVector ++ lRest.map(left.schema) ++ rRest.map(right.schema)
    e.chargeRows(pairs.length.toLong, outSchema.length.toLong)
    SharedRelation(
      outSchema,
      pairs.map { case (_, i, j) =>
        lKeys.map(left.rows(i)).toVector ++ lRest.map(left.rows(i)) ++ rRest.map(right.rows(j))
      }.toVector,
      None,
    )
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
      fn: MAggFn,
      outName: String,
      stp: Party,
      allParties: Set[Party],
  ): SharedRelation = {
    require(rel.validity.isEmpty, "hybrid aggregation requires a compacted input")
    require(groupIdxs.nonEmpty, "hybrid aggregation needs group-by columns")
    val outSchema = groupIdxs.map(rel.schema).toVector :+ outName
    if (rel.size == 0) return SharedRelation(outSchema, Vector.empty, None)

    // 1. Oblivious shuffle, then reveal the (shuffled) group-by column(s)
    //    to the STP.
    val shuffled = Oblivious.shuffle(e, rel)
    groupIdxs.foreach(g => leakage.record(ColumnLeak(relName, rel.schema(g), Set(stp))))
    e.chargeRows(shuffled.size.toLong, groupIdxs.length.toLong)
    e.openMany(Seq.empty)
    val keys = shuffled.rows.map(r => groupIdxs.map(g => e.idealOpen(r(g))).toVector)

    // 2-4. STP: enumerate, sort by key, compute equality flags, publish the
    //      ordering (public) and secret-share the flags.
    import scala.math.Ordering.Implicits.seqOrdering
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

    // 7. Linear oblivious accumulation into each group's last row.
    val n = sorted.size
    val agg = new Array[MpcVal](n)
    var i = 0
    while (i < n) {
      agg(i) = fn match {
        case MAggFn.Count => e.input(Fixed.Scale)
        case _            => sorted.rows(i)(aggIdx.get)
      }
      i += 1
    }
    i = 1
    while (i < n) {
      fn match {
        case MAggFn.Sum | MAggFn.Count =>
          agg(i) = e.add(agg(i), e.mulFlag(same(i), agg(i - 1)))
        case MAggFn.Min =>
          val take = e.and(same(i), e.lt(agg(i - 1), agg(i)))
          agg(i) = e.mux(take, agg(i - 1), agg(i))
        case MAggFn.Max =>
          val take = e.and(same(i), e.lt(agg(i), agg(i - 1)))
          agg(i) = e.mux(take, agg(i - 1), agg(i))
      }
      i += 1
    }
    val keep = Vector.tabulate(n)(i => if (i == n - 1) e.input(1L) else e.not(same(i + 1)))

    // 8. Shuffle, open keep flags, discard: all parties learn the number of
    //    groups (the output size).
    val tagged = SharedRelation(
      outSchema :+ "__keep",
      Vector.tabulate(n)(i => groupIdxs.map(sorted.rows(i)).toVector :+ agg(i) :+ keep(i)),
      None,
    )
    val reshuffled = Oblivious.shuffle(e, tagged)
    val flags = e.openMany(reshuffled.rows.map(_.last))
    val outRows = reshuffled.rows.lazyZip(flags).collect { case (r, 1L) => r.dropRight(1) }.toVector
    leakage.record(CardinalityLeak(relName, outRows.length.toLong, allParties))
    SharedRelation(outSchema, outRows, None)
  }
}
