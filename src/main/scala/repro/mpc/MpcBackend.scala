package repro.mpc

import repro.core.{AggFn, ArithFn, CmpOp, Party}

/** Relation-level MPC backend: the API Conclave's executor programs against
  * (the role Sharemind / Obliv-C play in the paper, §6).
  *
  * Wraps an [[MpcEngine]] with input/output movement (`close` = inputToMPC,
  * `reveal` = revealTo), the oblivious relational operators, the hybrid
  * protocols, leakage logging, and — for garbled-circuit engines — the
  * memory model that reproduces Obliv-C's OOM behaviour.
  */
final class MpcBackend(
    val engine: MpcEngine,
    val leakage: LeakageLog,
    val allParties: Set[Party],
) {
  def meter: CostMeter = engine.meter

  /** Secret-share a cleartext relation into the MPC. The row count becomes
    * public (standard MPC input-length leakage, §3.2).
    */
  def close(relName: String, schema: Seq[String], rows: Seq[Seq[Double]]): SharedRelation = {
    leakage.record(CardinalityLeak(relName, rows.size.toLong, allParties))
    engine.chargeRows(rows.size.toLong, schema.length.toLong)
    engine.checkRelationMem("close", rows.size.toLong, GcOpWidth.Projection)
    SharedRelation(
      schema.toVector,
      rows.map(r => r.map(d => engine.input(Fixed.encode(d))).toVector).toVector,
      None,
    )
  }

  /** Reveal a relation to `to` (invalid rows compacted away first). */
  def reveal(relName: String, rel: SharedRelation, to: Set[Party]): Vector[Vector[Double]] = {
    leakage.record(RelationLeak(relName, to))
    Oblivious.reveal(engine, rel)
  }

  def project(rel: SharedRelation, cols: Seq[String]): SharedRelation = {
    val idxs = rel.colIdxs(cols)
    engine.chargeRows(rel.size.toLong, cols.length.toLong)
    engine.checkRelationMem("project", rel.size.toLong, GcOpWidth.Projection)
    SharedRelation(cols.toVector, rel.rows.map(r => idxs.map(r)), rel.validity)
  }

  private def cmpFlag(a: MpcVal, cmp: CmpOp, b: MpcVal): MpcVal = cmp match {
    case CmpOp.Eq  => engine.eq(a, b)
    case CmpOp.Neq => engine.not(engine.eq(a, b))
    case CmpOp.Lt  => engine.lt(a, b)
    case CmpOp.Gt  => engine.lt(b, a)
    case CmpOp.Leq => engine.not(engine.lt(b, a))
    case CmpOp.Geq => engine.not(engine.lt(a, b))
  }

  /** Oblivious filter against a public literal (size-hiding, order-preserving). */
  def filterLit(rel: SharedRelation, col: String, cmp: CmpOp, lit: Double): SharedRelation = {
    val c = rel.colIdx(col)
    val litV = engine.input(Fixed.encode(lit))
    engine.checkRelationMem("filter", rel.size.toLong, GcOpWidth.Projection)
    Oblivious.filter(engine, rel)(row => cmpFlag(row(c), cmp, litV))
  }

  /** Oblivious filter comparing two columns. */
  def filterCol(rel: SharedRelation, colA: String, cmp: CmpOp, colB: String): SharedRelation = {
    val a = rel.colIdx(colA); val b = rel.colIdx(colB)
    engine.checkRelationMem("filter", rel.size.toLong, GcOpWidth.Projection)
    Oblivious.filter(engine, rel)(row => cmpFlag(row(a), cmp, row(b)))
  }

  /** Grouped oblivious aggregation; reveals the group count to all parties. */
  def aggregate(
      relName: String,
      rel: SharedRelation,
      group: Seq[String],
      aggCol: Option[String],
      fn: AggFn,
      outName: String,
      preSorted: Boolean = false,
  ): SharedRelation = {
    engine.checkRelationMem("aggregate", rel.size.toLong, GcOpWidth.Aggregation)
    val out = Oblivious.aggregate(engine, rel, rel.colIdxs(group), aggCol.map(rel.colIdx), fn,
      outName, preSorted)
    leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
    out
  }

  /** Group-less aggregation to a single row; reveals nothing. */
  def globalAggregate(
      rel: SharedRelation,
      aggCol: Option[String],
      fn: AggFn,
      outName: String,
  ): SharedRelation = {
    engine.checkRelationMem("aggregate", rel.size.toLong, GcOpWidth.Aggregation)
    Oblivious.globalAggregate(engine, rel, aggCol.map(rel.colIdx), fn, outName)
  }

  /** Standard MPC join (Cartesian approach, §6); leaks the output size. */
  def join(
      relName: String,
      left: SharedRelation,
      right: SharedRelation,
      lKeys: Seq[String],
      rKeys: Seq[String],
  ): SharedRelation = {
    engine.checkRelationMem("join", left.size.toLong + right.size.toLong, GcOpWidth.Join)
    val out = Oblivious.cartesianJoin(engine, left, right, left.colIdxs(lKeys), right.colIdxs(rKeys))
    leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
    out
  }

  /** Oblivious distinct over all columns (size-hiding). `preSorted` skips the
    * sorting network — enabled by Conclave's sort-elimination pass.
    */
  def distinct(rel: SharedRelation, preSorted: Boolean): SharedRelation = {
    engine.checkRelationMem("distinct", rel.size.toLong, GcOpWidth.Aggregation)
    Oblivious.distinct(engine, rel, rel.schema.indices, preSorted)
  }

  def sort(rel: SharedRelation, keys: Seq[(String, Boolean)]): SharedRelation = {
    engine.checkRelationMem("sort", rel.size.toLong, GcOpWidth.Aggregation)
    Oblivious.sortBy(engine, rel, keys.map { case (c, asc) => Oblivious.SortKey(rel.colIdx(c), asc) })
  }

  /** First `k` valid rows, in input order. Without a validity column these
    * are the first `k` positions. Otherwise a running count c_i of the
    * validity flags keeps row i iff valid_i ∧ c_i ≤ k: order-preserving and
    * size-hiding, so nothing is revealed.
    */
  def limit(rel: SharedRelation, k: Int): SharedRelation = rel.validity match {
    case None =>
      engine.chargeRows(math.min(rel.size, k).toLong, rel.width.toLong)
      rel.copy(rows = rel.rows.take(k))
    case Some(valid) =>
      engine.chargeRows(rel.size.toLong, rel.width.toLong)
      engine.checkRelationMem("limit", rel.size.toLong, GcOpWidth.Projection)
      val bound = engine.input(k.toLong + 1)
      val counts = valid.scanLeft(engine.input(0L))(engine.add).tail
      rel.copy(validity = Some(valid.lazyZip(counts).map((v, c) => engine.and(v, engine.lt(c, bound)))))
  }

  def concat(rels: Seq[SharedRelation]): SharedRelation = {
    require(rels.nonEmpty, "concat of nothing")
    val schema = rels.head.schema
    require(rels.forall(_.schema == schema), s"concat schema mismatch: ${rels.map(_.schema)}")
    val anyValidity = rels.exists(_.validity.isDefined)
    val rows = rels.flatMap(_.rows).toVector
    val validity =
      if (!anyValidity) None
      else Some(rels.flatMap(r => r.validity.getOrElse(Vector.fill(r.size)(engine.input(1L)))).toVector)
    SharedRelation(schema, rows, validity)
  }

  /** Row-wise arithmetic: `out = lhs fn rhs` where rhs is a column or a
    * public scalar. If `out` already exists it is replaced, else appended.
    */
  def arith(
      rel: SharedRelation,
      fn: ArithFn,
      outName: String,
      lhs: String,
      rhs: Either[String, Double],
  ): SharedRelation = {
    val l = rel.colIdx(lhs)
    engine.chargeRows(rel.size.toLong, 1L)
    engine.checkRelationMem("arith", rel.size.toLong, GcOpWidth.Projection)
    def compute(row: Vector[MpcVal]): MpcVal = (fn, rhs) match {
      case (ArithFn.Add, Right(s)) => engine.addPub(row(l), Fixed.encode(s))
      case (ArithFn.Sub, Right(s)) => engine.addPub(row(l), -Fixed.encode(s))
      case (ArithFn.Mul, Right(s)) if s == math.rint(s) => engine.mulPub(row(l), s.toLong)
      case (ArithFn.Mul, Right(s)) => engine.mulFx(row(l), engine.input(Fixed.encode(s)))
      case (ArithFn.Div, Right(s)) => engine.divFx(row(l), engine.input(Fixed.encode(s)))
      case (ArithFn.Add, Left(c))  => engine.add(row(l), row(rel.colIdx(c)))
      case (ArithFn.Sub, Left(c))  => engine.sub(row(l), row(rel.colIdx(c)))
      case (ArithFn.Mul, Left(c))  => engine.mulFx(row(l), row(rel.colIdx(c)))
      case (ArithFn.Div, Left(c))  => engine.divFx(row(l), row(rel.colIdx(c)))
    }
    val existing = rel.schema.indexOf(outName)
    if (existing >= 0)
      rel.copy(rows = rel.rows.map(r => r.updated(existing, compute(r))))
    else
      SharedRelation(rel.schema :+ outName, rel.rows.map(r => r :+ compute(r)), rel.validity)
  }

  /** Append a public constant column (used to key group-less join results). */
  def constCol(rel: SharedRelation, name: String, value: Double): SharedRelation = {
    engine.chargeRows(rel.size.toLong, 1L)
    SharedRelation(rel.schema :+ name, rel.rows.map(_ :+ engine.input(Fixed.encode(value))), rel.validity)
  }

  /** Compact away invalid rows before a hybrid operator; reveals the
    * surviving count to all parties.
    */
  private def compact(relName: String, rel: SharedRelation): SharedRelation =
    if (rel.validity.isEmpty) rel
    else {
      val out = Oblivious.compact(engine, rel)
      leakage.record(CardinalityLeak(relName, out.size.toLong, allParties))
      out
    }

  // ------------------------------------------------------------ hybrid ops

  def hybridJoin(relName: String, left: SharedRelation, right: SharedRelation,
      lKeys: Seq[String], rKeys: Seq[String], stp: Party): SharedRelation =
    Protocols.hybridJoin(engine, leakage, relName,
      compact(relName + ":left", left), compact(relName + ":right", right),
      left.colIdxs(lKeys), right.colIdxs(rKeys), stp, allParties)

  def publicJoin(relName: String, left: SharedRelation, right: SharedRelation,
      lKeys: Seq[String], rKeys: Seq[String], host: Party): SharedRelation =
    Protocols.publicJoin(engine, leakage, relName,
      compact(relName + ":left", left), compact(relName + ":right", right),
      left.colIdxs(lKeys), right.colIdxs(rKeys), host, allParties)

  def hybridAggregate(relName: String, rel: SharedRelation, group: Seq[String],
      aggCol: Option[String], fn: AggFn, outName: String, stp: Party): SharedRelation = {
    val compacted = compact(relName + ":in", rel)
    Protocols.hybridAggregate(engine, leakage, relName, compacted,
      compacted.colIdxs(group), aggCol.map(compacted.colIdx), fn, outName, stp, allParties)
  }
}

object MpcBackend {
  /** A Sharemind-like 3-party secret-sharing backend. */
  def sharemind(allParties: Set[Party], seed: Long = 42L): MpcBackend = {
    val meter = new CostMeter(CostParams.Sharemind)
    new MpcBackend(new SecretSharingEngine(seed, meter), new LeakageLog, allParties)
  }

  /** An Obliv-C-like 2-party garbled-circuit backend. */
  def oblivc(allParties: Set[Party]): MpcBackend =
    new MpcBackend(new GarbledCircuitEngine(new CostMeter(CostParams.OblivC)), new LeakageLog, allParties)

  /** An ObliVM-like garbled-circuit backend (SMCQL's backend). */
  def oblivm(allParties: Set[Party]): MpcBackend =
    new MpcBackend(new GarbledCircuitEngine(new CostMeter(CostParams.ObliVM)), new LeakageLog, allParties)
}
